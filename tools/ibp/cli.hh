/**
 * @file
 * The `ibp` command line: one binary whose subcommands inspect and
 * gate everything the drivers write.
 *
 *   ibp report      print, diff or regenerate an ibp_report.json
 *   ibp timeline    print, diff or export a report's timelines
 *   ibp checkpoint  print, validate or diff IBPC checkpoint files
 *   ibp budget      cross-check the hardware-budget manifest against
 *                   the live storageBits() totals
 *   ibp fuzz        run the deterministic adversarial workload search
 *
 * Every subcommand shares one exit-code contract:
 *
 *   0  passed
 *   1  did not pass: a gate failed, or an input could not be read or
 *      parsed (a malformed report or manifest exits 1 through fatal())
 *   2  the command line is wrong; the subcommand's usage is printed
 *
 * Every --diff builds one obs::ReportDiff: accuracy, shape and state
 * deltas are failures, timing deltas are notes that never gate.
 */

#ifndef IBP_TOOLS_IBP_CLI_HH_
#define IBP_TOOLS_IBP_CLI_HH_

#include <iosfwd>
#include <string>
#include <vector>

namespace ibp::cli {

/**
 * Run one `ibp` command line.
 * @param args the arguments after the program name, subcommand first
 * @param out  results: printouts, diffs, the fuzz findings document
 * @param err  usage text and diagnostics
 * @return the exit code (see the file comment)
 */
int run(const std::vector<std::string> &args, std::ostream &out,
        std::ostream &err);

} // namespace ibp::cli

#endif // IBP_TOOLS_IBP_CLI_HH_
