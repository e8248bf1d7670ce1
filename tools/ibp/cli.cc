#include "cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "util/logging.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/timeline.hh"
#include "obs/trace_event.hh"
#include "workload/adversarial.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"
#include "sim/fuzz.hh"

#include "budget_manifest.hh"

namespace ibp::cli {

namespace {

namespace fs = std::filesystem;

using Args = std::vector<std::string>;

constexpr int kPass = 0;
constexpr int kFail = 1;
constexpr int kUsage = 2;

// --- shared helpers ----------------------------------------------------

/** printf into a string, for the fixed-width printouts. */
[[gnu::format(printf, 1, 2)]] std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list sizing;
    va_copy(sizing, args);
    const int size = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);
    std::string text(static_cast<std::size_t>(std::max(size, 0)), '\0');
    std::vsnprintf(text.data(), text.size() + 1, fmt, args);
    va_end(args);
    return text;
}

/**
 * Parse all of @p text as a number >= 0 (finite, for floating point).
 * Every numeric option goes through here, so "abc", "1x" and "-1"
 * are usage errors rather than a silent 0.
 */
template <typename T>
bool
parseNumber(std::string_view text, T &value)
{
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end)
        return false;
    if constexpr (std::is_floating_point_v<T>)
        return std::isfinite(value) && value >= 0;
    return true;
}

/**
 * Split the arguments after the mode flag at @p args[0] into
 * positionals and the one valued @p flag the mode takes (stored in
 * @p value when given).  False on any other "--" argument or on
 * @p flag without its value.
 */
bool
splitArgs(const Args &args, std::string_view flag, std::string &value,
          std::vector<std::string> &paths)
{
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (!flag.empty() && args[i] == flag) {
            if (++i == args.size())
                return false;
            value = args[i];
        } else if (args[i].starts_with("--")) {
            return false;
        } else {
            paths.push_back(args[i]);
        }
    }
    return true;
}

/** The one gate every --diff ends in: print, then pass or fail. */
int
gate(std::ostream &out, const obs::ReportDiff &diff,
     std::string_view verdict)
{
    obs::printDiff(out, diff);
    if (!diff.clean())
        return kFail;
    out << verdict << '\n';
    return kPass;
}

/**
 * `--diff <before> <after> [--tolerance <pct>]` for report and
 * timeline.  The tolerance gates accuracy in misprediction percentage
 * points; prediction-count and shape mismatches always gate.
 * @param timelines compare only the timeline sections (per-window
 *        miss% and steady-state regressions)
 */
int
diffCommand(const Args &args, std::ostream &out, bool timelines)
{
    std::string tolerance_text = "0";
    std::vector<std::string> paths;
    double tolerance = 0;
    if (!splitArgs(args, "--tolerance", tolerance_text, paths) ||
        paths.size() != 2 || !parseNumber(tolerance_text, tolerance))
        return kUsage;
    obs::RunReport before = obs::readReportFile(paths[0]);
    obs::RunReport after = obs::readReportFile(paths[1]);
    if (timelines) {
        if (before.timelines.empty() && after.timelines.empty()) {
            out << "neither report carries timelines; "
                   "nothing to compare\n";
            return kPass;
        }
        for (obs::RunReport *report : {&before, &after}) {
            obs::RunReport only;
            only.timelines = std::move(report->timelines);
            *report = std::move(only);
        }
    }
    return gate(out, obs::diffReports(before, after, tolerance),
                "accuracy: no deltas beyond tolerance");
}

/** `--emit-golden <out.json>`: run the golden matrix, write its report. */
int
emitGolden(const Args &args, std::ostream &out, bool timeline)
{
    if (args.size() != 2)
        return kUsage;
    obs::writeReportFile(args[1], sim::goldenReport(timeline));
    out << "wrote " << args[1] << '\n';
    return kPass;
}

// --- ibp report --------------------------------------------------------

const char kReportUsage[] =
    "usage: ibp report <report.json>\n"
    "       ibp report --diff <before.json> <after.json>"
    " [--tolerance <pct>]\n"
    "       ibp report --emit-golden <out.json>\n";

int
reportCommand(const Args &args, std::ostream &out, std::ostream &)
{
    if (args.empty())
        return kUsage;
    if (args[0] == "--diff")
        return diffCommand(args, out, false);
    if (args[0] == "--emit-golden")
        return emitGolden(args, out, false);
    if (args.size() != 1 || args[0].starts_with("--"))
        return kUsage;
    obs::printReport(out, obs::readReportFile(args[0]));
    return kPass;
}

// --- ibp timeline ------------------------------------------------------

const char kTimelineUsage[] =
    "usage: ibp timeline <report.json>\n"
    "       ibp timeline --sparkline <report.json>\n"
    "       ibp timeline --diff <before.json> <after.json>"
    " [--tolerance <pct>]\n"
    "       ibp timeline --export-perfetto <report.json>"
    " [--out <trace.json>]\n"
    "       ibp timeline --emit-golden <out.json>\n";

void
printTimelines(std::ostream &out, const obs::RunReport &report)
{
    for (const auto &entry : report.timelines) {
        const auto &windows = entry.timeline.windows();
        out << "(" << entry.row << ", " << entry.predictor
            << "): interval " << entry.timeline.interval() << ", "
            << windows.size() << " windows\n";
        for (std::size_t w = 0; w < windows.size(); ++w)
            out << format(
                "  [%3zu] end %10llu  pred %8llu  miss %7.3f%%"
                "  nopred %7.3f%%\n",
                w,
                static_cast<unsigned long long>(windows[w].endBranch),
                static_cast<unsigned long long>(windows[w].predictions),
                windows[w].missPercent(),
                windows[w].noPredictionPercent());
        if (entry.segmentation.hasChangePoint)
            out << format("  warmup %.3f%% -> steady %.3f%% from "
                          "window %zu\n",
                          entry.segmentation.warmupMissPercent,
                          entry.segmentation.steadyMissPercent,
                          entry.segmentation.steadyStart);
        else
            out << format("  steady throughout (%.3f%%)\n",
                          entry.segmentation.overallMissPercent);
        for (const auto &milestone :
             obs::timelineMilestones(entry.timeline))
            out << format("  milestone @%llu: %s %s (delta %llu)\n",
                          static_cast<unsigned long long>(
                              milestone.branch),
                          milestone.kind.c_str(),
                          milestone.counter.c_str(),
                          static_cast<unsigned long long>(
                              milestone.value));
    }
}

void
printSparklines(std::ostream &out, const obs::RunReport &report)
{
    std::size_t width = 0;
    for (const auto &entry : report.timelines)
        width = std::max(width,
                         entry.row.size() + entry.predictor.size() + 3);
    for (const auto &entry : report.timelines) {
        const std::string label = entry.row + " / " + entry.predictor;
        const auto curve = entry.timeline.missCurve();
        double lo = 0, hi = 0;
        if (!curve.empty()) {
            lo = *std::min_element(curve.begin(), curve.end());
            hi = *std::max_element(curve.begin(), curve.end());
        }
        out << format("%-*s ", static_cast<int>(width), label.c_str())
            << obs::sparkline(curve)
            << format("  [%.2f%% .. %.2f%%]\n", lo, hi);
    }
}

int
exportPerfetto(const Args &args, std::ostream &out)
{
    std::string out_path = "ibp_timeline_trace.json";
    std::vector<std::string> paths;
    if (!splitArgs(args, "--out", out_path, paths) || paths.size() != 1)
        return kUsage;
    const obs::RunReport report = obs::readReportFile(paths[0]);
    fatal_if(report.timelines.empty(), "no timelines in ", paths[0],
             "; run the driver with --timeline-interval= first");
    std::vector<obs::TraceEvent> events;
    std::uint64_t pid = obs::kTimelinePidBase;
    for (const auto &entry : report.timelines)
        obs::appendTimelineEvents(entry.timeline,
                                  entry.row + " x " + entry.predictor,
                                  pid++, events);
    obs::writeTraceEventsFile(out_path, events);
    out << "wrote " << out_path << " (" << events.size()
        << " events); open in https://ui.perfetto.dev\n";
    return kPass;
}

int
timelineCommand(const Args &args, std::ostream &out, std::ostream &)
{
    if (args.empty())
        return kUsage;
    if (args[0] == "--diff")
        return diffCommand(args, out, true);
    if (args[0] == "--export-perfetto")
        return exportPerfetto(args, out);
    if (args[0] == "--emit-golden")
        return emitGolden(args, out, true);

    const bool sparkline = args[0] == "--sparkline";
    if (args.size() != (sparkline ? 2u : 1u) ||
        args.back().starts_with("--"))
        return kUsage;
    const std::string &path = args.back();
    const obs::RunReport report = obs::readReportFile(path);
    if (report.timelines.empty())
        out << "no timelines in " << path
            << " (run the driver with --timeline-interval=)\n";
    else if (sparkline)
        printSparklines(out, report);
    else
        printTimelines(out, report);
    return kPass;
}

// --- ibp checkpoint ----------------------------------------------------

/*
 * --validate fails on a corrupt or truncated file or a missing
 * required section; it never needs the predictor that wrote the file,
 * so it works on any checkpoint from any configuration.  --diff fails
 * when the two files disagree on anything architectural: meta and
 * fingerprint, cell results, probe registries, or state payload
 * bytes.  Timing fields and in-flight partial cells are notes.
 */
const char kCheckpointUsage[] =
    "usage: ibp checkpoint <file>\n"
    "       ibp checkpoint --validate <file>\n"
    "       ibp checkpoint --diff <a> <b>\n";

/** A decoded checkpoint file of either kind. */
struct Checkpoint
{
    std::string kind;
    std::size_t bytes = 0;
    sim::CheckpointMeta meta;                     ///< "sim" only
    std::vector<sim::CheckpointSection> sections; ///< "sim" only
    sim::SuiteProgress progress;                  ///< "suite" only

    /** A section walkSimCheckpoint() guarantees is present. */
    const std::string &
    payload(std::string_view name) const
    {
        return std::find_if(sections.begin(), sections.end(),
                            [&](const sim::CheckpointSection &section) {
                                return section.name == name;
                            })
            ->payload;
    }
};

util::Status
decodeCheckpoint(const std::vector<std::uint8_t> &bytes, Checkpoint &file)
{
    if (util::Status status = sim::checkpointKind(bytes, file.kind);
        !status.ok())
        return status;
    if (file.kind == sim::kCheckpointKindSim)
        return sim::walkSimCheckpoint(bytes, file.meta, file.sections);
    if (file.kind == sim::kCheckpointKindSuite)
        return sim::decodeSuiteProgress(bytes, file.progress);
    return util::Status::Error("unknown checkpoint kind \"" + file.kind +
                               "\"");
}

util::Status
loadCheckpoint(const std::string &path, Checkpoint &file)
{
    std::vector<std::uint8_t> bytes;
    if (util::Status status = sim::readCheckpointFile(path, bytes);
        !status.ok())
        return status;
    file.bytes = bytes.size();
    if (util::Status status = decodeCheckpoint(bytes, file); !status.ok())
        return util::Status::Error(path + ": " + status.message());
    return util::Status::Ok();
}

void
printCheckpoint(std::ostream &out, const std::string &path,
                const Checkpoint &file)
{
    out << path << ": " << file.kind << " checkpoint, version "
        << sim::kCheckpointVersion << ", " << file.bytes << " bytes\n";
    if (file.kind == sim::kCheckpointKindSim) {
        out << "  predictor    " << file.meta.predictor << '\n'
            << "  profile      "
            << (file.meta.profile.empty() ? "(none)" : file.meta.profile)
            << '\n'
            << "  cursor       " << file.meta.cursor << " records\n"
            << "  fingerprint  " << file.meta.fingerprint << '\n';
        for (const auto &section : file.sections)
            out << "  section " << section.name << ": "
                << section.payload.size() << " bytes\n";
        return;
    }
    const sim::SuiteProgress &progress = file.progress;
    out << "  fingerprint  " << progress.fingerprint << '\n'
        << "  completed cells: " << progress.cells.size() << '\n';
    for (const auto &cell : progress.cells)
        out << "    (" << cell.row << ", " << cell.col << ")  miss "
            << cell.cell.missPercent << "%  over "
            << cell.cell.predictions << " predictions\n";
    for (const auto &partial : progress.partials)
        out << "  partial cell (" << partial.row << ", " << partial.col
            << ") at record " << partial.cursor << " ("
            << partial.predictorState.size() << " predictor bytes, "
            << partial.engineState.size() << " engine bytes, "
            << partial.probeState.size() << " probe bytes)\n";
    if (progress.partials.empty())
        out << "  no partial cell\n";
}

void
diffSim(const Checkpoint &a, const Checkpoint &b, obs::ReportDiff &diff)
{
    if (a.meta.predictor != b.meta.predictor)
        diff.failures.push_back("predictor " + a.meta.predictor +
                                " vs " + b.meta.predictor);
    if (a.meta.profile != b.meta.profile)
        diff.failures.push_back("profile " + a.meta.profile + " vs " +
                                b.meta.profile);
    if (a.meta.fingerprint != b.meta.fingerprint)
        diff.failures.push_back("fingerprint mismatch");
    if (a.meta.cursor != b.meta.cursor)
        diff.failures.push_back("cursor " +
                                std::to_string(a.meta.cursor) + " vs " +
                                std::to_string(b.meta.cursor));
    for (const char *name : {"predictor", "engine", "probes"}) {
        const std::string &left = a.payload(name);
        const std::string &right = b.payload(name);
        if (left != right)
            diff.failures.push_back(
                std::string(name) + " state payloads differ (" +
                std::to_string(left.size()) + " vs " +
                std::to_string(right.size()) + " bytes)");
    }
}

void
diffSuite(const sim::SuiteProgress &a, const sim::SuiteProgress &b,
          obs::ReportDiff &diff)
{
    if (a.fingerprint != b.fingerprint)
        diff.failures.push_back("suite fingerprint mismatch");
    for (const auto &cell : a.cells) {
        const sim::CompletedCell *other = b.find(cell.row, cell.col);
        const std::string where = "(" + cell.row + ", " + cell.col + ")";
        if (other == nullptr) {
            diff.failures.push_back("cell " + where +
                                    " missing from the second file");
            continue;
        }
        if (cell.cell.missPercent != other->cell.missPercent)
            diff.failures.push_back(where + " miss% differs");
        if (cell.cell.noPredictionPercent !=
            other->cell.noPredictionPercent)
            diff.failures.push_back(where + " no-prediction% differs");
        if (cell.cell.predictions != other->cell.predictions)
            diff.failures.push_back(where + " prediction count differs");
        if (cell.cell.wallSeconds != other->cell.wallSeconds ||
            cell.cell.cpuSeconds != other->cell.cpuSeconds)
            diff.notes.push_back(where + " timing differs");
        if (cell.probes.counters() != other->probes.counters() ||
            cell.probes.histograms() != other->probes.histograms())
            diff.failures.push_back(where + " probe registries differ");
    }
    for (const auto &cell : b.cells)
        if (a.find(cell.row, cell.col) == nullptr)
            diff.failures.push_back("cell (" + cell.row + ", " +
                                    cell.col + ") only in the second file");
    if (a.partials.size() != b.partials.size())
        diff.notes.push_back("in-flight partial cells differ: " +
                             std::to_string(a.partials.size()) + " vs " +
                             std::to_string(b.partials.size()));
}

int
checkpointCommand(const Args &args, std::ostream &out, std::ostream &err)
{
    const bool validate = !args.empty() && args[0] == "--validate";
    const bool diff = !args.empty() && args[0] == "--diff";
    std::string unused;
    std::vector<std::string> paths;
    if (validate || diff) {
        if (!splitArgs(args, "", unused, paths))
            return kUsage;
    } else if (args.size() == 1 && !args[0].starts_with("--")) {
        paths = args;
    }
    if (paths.size() != (diff ? 2u : 1u))
        return kUsage;

    std::vector<Checkpoint> files(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i)
        if (util::Status status = loadCheckpoint(paths[i], files[i]);
            !status.ok()) {
            err << "ibp checkpoint: " << status.message() << '\n';
            return kFail;
        }

    if (validate) {
        out << paths[0] << ": OK (" << files[0].kind << ")\n";
        return kPass;
    }
    if (!diff) {
        printCheckpoint(out, paths[0], files[0]);
        return kPass;
    }
    if (files[0].kind != files[1].kind) {
        err << "ibp checkpoint: cannot diff a " << files[0].kind
            << " checkpoint against a " << files[1].kind << " one\n";
        return kFail;
    }
    obs::ReportDiff result;
    if (files[0].kind == sim::kCheckpointKindSim)
        diffSim(files[0], files[1], result);
    else
        diffSuite(files[0].progress, files[1].progress, result);
    return gate(out, result, "checkpoints are equivalent");
}

// --- ibp budget --------------------------------------------------------

/*
 * The budget manifest's static half (class and geometry shape hash)
 * comes from `ibp_lint --update-manifest`; its runtime half
 * (storage_bits) can only come from a build, because entry counts flow
 * through the factory's scaling helpers.  --check (the default) fails,
 * printing both numbers, when any live storageBits() disagrees with
 * the manifest, an entry no longer instantiates, or a lineup name has
 * no entry.  --update records the live totals and keeps the static
 * half.  The wildcard entry `Oracle-PIB@*` covers the Oracle-PIB@<k>
 * family and is instantiated at the lineup's reference k = 4.
 */
const char kBudgetUsage[] =
    "usage: ibp budget [--manifest <path>] [--check|--update]\n"
    "\n"
    "Cross-check (or record) the runtime storageBits() totals\n"
    "in the hardware-budget manifest.  --check is the default;\n"
    "it exits 1 printing manifest vs live totals on any\n"
    "disagreement.\n";

/** True when manifest key @p key (maybe a `Prefix*` wildcard) covers
 *  lineup name @p name. */
bool
covers(const std::string &key, const std::string &name)
{
    if (key.ends_with('*'))
        return name.starts_with(key.substr(0, key.size() - 1));
    return key == name;
}

int
budgetCommand(const Args &args, std::ostream &out, std::ostream &err)
{
    std::string path = "tools/lint/budget_manifest.json";
    bool update = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--help" || args[i] == "-h") {
            out << kBudgetUsage;
            return kPass;
        } else if (args[i] == "--check" || args[i] == "--update") {
            update = args[i] == "--update";
        } else if (args[i] == "--manifest" && i + 1 < args.size()) {
            path = args[++i];
        } else {
            return kUsage;
        }
    }

    lint::BudgetManifest manifest;
    if (!lint::readBudgetManifest(path, manifest)) {
        err << "ibp budget: cannot read " << path
            << " (generate it with `ibp_lint --update-manifest` "
               "first)\n";
        return kFail;
    }

    // Every lineup name must be covered by some manifest entry, so a
    // new factory registration cannot dodge the budget audit.
    int failures = 0;
    for (const std::string &name : sim::allPredictors())
        if (std::none_of(manifest.predictors.begin(),
                         manifest.predictors.end(),
                         [&](const auto &entry) {
                             return covers(entry.first, name);
                         })) {
            err << "ibp budget: lineup predictor " << name
                << " has no entry in " << path
                << " (run `ibp_lint --update-manifest`)\n";
            ++failures;
        }

    for (auto &[key, entry] : manifest.predictors) {
        const std::string name =
            key.ends_with('*') ? key.substr(0, key.size() - 1) + "4"
                               : key;
        if (!sim::knownPredictor(name)) {
            err << "ibp budget: manifest entry " << key
                << " is not a factory name (run `ibp_lint "
                   "--update-manifest` to prune it)\n";
            ++failures;
            continue;
        }
        const std::uint64_t live = sim::makePredictor(name)->storageBits();
        if (update) {
            entry.storageBits = live;
        } else if (live != entry.storageBits) {
            err << "ibp budget: storage mismatch for " << key
                << " (class " << entry.className << "): manifest records "
                << entry.storageBits
                << " bits, live storageBits() reports " << live
                << " bits — re-audit the geometry against the 2K-entry "
                   "envelope, then run `ibp budget --update`\n";
            ++failures;
        }
    }

    if (update) {
        if (!lint::writeBudgetManifest(path, manifest)) {
            err << "ibp budget: cannot write " << path << '\n';
            return kFail;
        }
        out << "ibp budget: recorded " << manifest.predictors.size()
            << " storage totals in " << path << '\n';
        return failures ? kFail : kPass;
    }
    if (failures) {
        out << "ibp budget: " << failures << " mismatch(es)\n";
        return kFail;
    }
    out << "ibp budget: " << manifest.predictors.size()
        << " predictors match the recorded storage totals\n";
    return kPass;
}

// --- ibp fuzz ----------------------------------------------------------

/*
 * Runs the deterministic coverage-guided search (sim/fuzz.hh) and
 * writes the findings document to stdout (or --out), with a human
 * summary on stderr.  The document is a pure function of the options
 * (threads excluded), so two runs with the same seed and budget are
 * byte-identical.  With --known=DIR the run fails when a finding's key
 * is not already pinned as a profile under DIR (CI passes
 * tests/regression_profiles).
 */
const char kFuzzUsage[] =
    "usage: ibp fuzz [options]\n"
    "  --seed=N            master search seed (default 42)\n"
    "  --budget=N          candidates to generate (default 2000)\n"
    "  --records=N         records per candidate trace (default 8000)\n"
    "  --threads=N         worker threads (default: all cores)\n"
    "  --margin=PP         ranking-inversion margin in percentage\n"
    "                      points (default 2.0)\n"
    "  --tolerance=PP      oracle-deviation tolerance (default 1.0)\n"
    "  --predictor=NAME    restrict the lineup (repeatable)\n"
    "  --minimize          shrink findings (default)\n"
    "  --no-minimize       keep findings as found\n"
    "  --out=FILE          findings JSON path (default stdout)\n"
    "  --emit-profiles=DIR write each finding's reproducer profile\n"
    "  --known=DIR         exit 0 when every finding's key matches a\n"
    "                      profile already in DIR; exit 1 otherwise\n"
    "  --timeline=DIR      write a Perfetto trace per finding (the\n"
    "                      involved predictors' windowed miss curves\n"
    "                      over the reproducer workload)\n"
    "  --help              this text\n";

/** True when @p arg is `<name>=<value>`; @p value gets the value. */
bool
flagValue(std::string_view arg, std::string_view name,
          std::string_view &value)
{
    if (!arg.starts_with(name) || arg.substr(name.size(), 1) != "=")
        return false;
    value = arg.substr(name.size() + 1);
    return true;
}

/**
 * Write one Perfetto trace for a finding: the involved predictors'
 * deterministic windowed miss curves over the reproducer workload
 * (64 windows, probe counters included).  Pure function of the
 * finding, so reruns regenerate identical traces.
 */
void
writeFindingTimeline(const std::string &dir,
                     const sim::FuzzFinding &finding, std::ostream &err)
{
    std::vector<std::string> predictors;
    if (!finding.better.empty())
        predictors.push_back(finding.better);
    if (!finding.worse.empty() && finding.worse != finding.better)
        predictors.push_back(finding.worse);
    if (predictors.empty())
        return;

    sim::SuiteOptions options;
    options.engine.timeline.interval =
        std::max<std::uint64_t>(1, finding.profile.records / 64);
    const sim::SuiteResult result =
        sim::runSuite({finding.profile}, predictors, options);

    std::vector<obs::TraceEvent> events;
    std::uint64_t pid = obs::kTimelinePidBase;
    for (const auto &name : predictors)
        obs::appendTimelineEvents(
            result.timelines.at(finding.profile.fullName()).at(name),
            name, pid++, events);

    const std::string path =
        (fs::path(dir) /
         (sim::suggestedProfileName(finding) + ".trace.json"))
            .string();
    obs::writeTraceEventsFile(path, events);
    err << "timeline: " << path << "\n";
}

/**
 * Collect the finding keys already pinned under a regression-profile
 * directory: each committed profile is named by the reproducer naming
 * convention (sim::suggestedProfileName), so matching file stems is
 * enough and keeps the files self-describing.
 */
std::vector<std::string>
knownProfileNames(const std::string &dir)
{
    std::vector<std::string> names;
    if (!fs::is_directory(dir))
        return names;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".json")
            names.push_back(entry.path().stem().string());
    return names;
}

int
fuzzCommand(const Args &args, std::ostream &out, std::ostream &err)
{
    sim::FuzzOptions options;
    std::string out_path;
    std::string emit_dir;
    std::string known_dir;
    std::string timeline_dir;
    bool numbers_ok = true;

    for (const std::string &arg : args) {
        std::string_view value;
        if (arg == "--help" || arg == "-h") {
            out << kFuzzUsage;
            return kPass;
        } else if (arg == "--minimize" || arg == "--no-minimize") {
            options.minimize = arg == "--minimize";
        } else if (flagValue(arg, "--seed", value)) {
            numbers_ok &= parseNumber(value, options.seed);
        } else if (flagValue(arg, "--budget", value)) {
            numbers_ok &= parseNumber(value, options.budget);
        } else if (flagValue(arg, "--records", value)) {
            numbers_ok &= parseNumber(value, options.records);
        } else if (flagValue(arg, "--threads", value)) {
            numbers_ok &= parseNumber(value, options.threads);
        } else if (flagValue(arg, "--margin", value)) {
            numbers_ok &= parseNumber(value, options.inversionMargin);
        } else if (flagValue(arg, "--tolerance", value)) {
            numbers_ok &= parseNumber(value, options.oracleTolerance);
        } else if (flagValue(arg, "--predictor", value)) {
            options.predictors.emplace_back(value);
        } else if (flagValue(arg, "--out", value)) {
            out_path = value;
        } else if (flagValue(arg, "--emit-profiles", value)) {
            emit_dir = value;
        } else if (flagValue(arg, "--known", value)) {
            known_dir = value;
        } else if (flagValue(arg, "--timeline", value)) {
            timeline_dir = value;
        } else {
            return kUsage;
        }
    }
    if (!numbers_ok || options.budget == 0)
        return kUsage;

    obs::ProbeRegistry probes;
    const sim::FuzzReport report = sim::runFuzz(options, &probes);

    if (out_path.empty()) {
        sim::writeFindingsJson(out, report);
    } else {
        std::ofstream file(out_path, std::ios::binary);
        fatal_if(!file, "cannot write ", out_path);
        sim::writeFindingsJson(file, report);
    }

    if (!emit_dir.empty()) {
        fs::create_directories(emit_dir);
        for (const auto &finding : report.findings)
            workload::saveProfileFile(
                (fs::path(emit_dir) /
                 (sim::suggestedProfileName(finding) + ".json"))
                    .string(),
                finding.profile);
    }

    if (!timeline_dir.empty()) {
        fs::create_directories(timeline_dir);
        for (const auto &finding : report.findings)
            writeFindingTimeline(timeline_dir, finding, err);
    }

    err << "fuzz: " << report.generated << " generated, "
        << report.evaluated << " evaluated (" << report.skippedCovered
        << " coverage-pruned, " << report.waves << " waves), "
        << report.shrinkEvals << " shrink evals, "
        << report.findings.size() << " findings\n";
    for (const auto &finding : report.findings)
        err << "  [" << sim::findingKindName(finding.kind) << "] "
            << finding.detail << (finding.minimized ? " (minimized)" : "")
            << "\n";

    if (known_dir.empty())
        return kPass;
    const std::vector<std::string> known = knownProfileNames(known_dir);
    int result = kPass;
    for (const auto &finding : report.findings) {
        const std::string name = sim::suggestedProfileName(finding);
        if (std::find(known.begin(), known.end(), name) == known.end()) {
            err << "new finding not pinned under " << known_dir << ": "
                << name << "\n";
            result = kFail;
        }
    }
    return result;
}

// --- dispatch ----------------------------------------------------------

struct Subcommand
{
    std::string_view name;
    int (*handler)(const Args &, std::ostream &, std::ostream &);
    const char *usage;
};

constexpr Subcommand kSubcommands[] = {
    {"report", reportCommand, kReportUsage},
    {"timeline", timelineCommand, kTimelineUsage},
    {"checkpoint", checkpointCommand, kCheckpointUsage},
    {"budget", budgetCommand, kBudgetUsage},
    {"fuzz", fuzzCommand, kFuzzUsage},
};

} // namespace

int
run(const std::vector<std::string> &args, std::ostream &out,
    std::ostream &err)
{
    for (const Subcommand &command : kSubcommands) {
        if (args.empty() || args[0] != command.name)
            continue;
        const int code =
            command.handler(Args(args.begin() + 1, args.end()), out, err);
        if (code == kUsage)
            err << command.usage;
        return code;
    }
    err << "usage: ibp <subcommand> [args], one of:\n\n";
    for (const Subcommand &command : kSubcommands)
        err << command.usage << '\n';
    return kUsage;
}

} // namespace ibp::cli
