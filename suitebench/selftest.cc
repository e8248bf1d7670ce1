/**
 * @file
 * Protocol-fidelity self-test of the per-layer loops.
 *
 * On the smoke profile, for every lineup predictor of every workload,
 * the out-of-engine predictor loop must reproduce Engine::run's exact
 * record, MT-indirect, hit and miss counts, and the null-predictor
 * engine loop its record, return and return-miss counts.  This is what
 * lets the traced run split a replay into engine and predictor time:
 * both halves run the same protocol the replay runs.
 *
 * Exit code 0 when every check holds, 1 otherwise.
 */

#include <iostream>

#include "trace/trace_buffer.hh"
#include "workload/profiles.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

#include "harness.hh"

namespace {

using namespace ibp;

int failures = 0;

void
expectEqual(const std::string &what, std::uint64_t loop,
            std::uint64_t engine)
{
    if (loop == engine)
        return;
    std::cerr << "FAIL " << what << ": loop " << loop << ", Engine::run "
              << engine << "\n";
    ++failures;
}

} // namespace

int
main()
{
    const trace::TraceBuffer buffer =
        sim::generateTrace(workload::smokeProfile());
    const trace::BranchRecord *records = buffer.records().data();

    suitebench::NullPredictor null;
    trace::ReplaySource null_source(buffer);
    const sim::RunMetrics null_metrics = sim::Engine().run(null_source, null);
    expectEqual("null records", null_metrics.branches, buffer.size());

    const auto names = suitebench::allLineupPredictors();
    for (const auto &name : names) {
        auto replayed = sim::makePredictor(name);
        trace::ReplaySource source(buffer);
        const sim::RunMetrics metrics = sim::Engine().run(source, *replayed);

        auto looped = sim::makePredictor(name);
        const suitebench::LoopCounts loop =
            suitebench::predictorLoop(records, buffer.size(), *looped);

        const std::uint64_t misses = metrics.indirectMisses.events();
        expectEqual(name + " records", loop.records, metrics.branches);
        expectEqual(name + " mt-indirect", loop.mtIndirect,
                    metrics.mtIndirect);
        expectEqual(name + " misses", loop.misses, misses);
        expectEqual(name + " hits", loop.hits,
                    metrics.indirectMisses.total() - misses);
        expectEqual(name + " null records", null_metrics.branches,
                    metrics.branches);
        expectEqual(name + " null mt-indirect", null_metrics.mtIndirect,
                    metrics.mtIndirect);
        expectEqual(name + " null returns",
                    null_metrics.returnMisses.total(),
                    metrics.returnMisses.total());
        expectEqual(name + " null return misses",
                    null_metrics.returnMisses.events(),
                    metrics.returnMisses.events());
    }
    if (failures == 0)
        std::cout << "protocol fidelity: " << names.size()
                  << " predictors, " << buffer.size()
                  << " records, all counts match\n";
    return failures == 0 ? 0 : 1;
}
