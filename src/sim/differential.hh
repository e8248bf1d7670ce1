/**
 * @file
 * Differential harness: run many predictors over one decoded trace and
 * compare them — against each other (ranking), against analytic
 * oracles (accuracy floors), and against their own checkpoint-resumed
 * selves (serde/replay equivalence).  The primitives here are what the
 * adversarial fuzzer (sim/fuzz.hh) scores candidates with, and they
 * are deliberately reusable from tests.
 */

#ifndef IBP_SIM_DIFFERENTIAL_HH_
#define IBP_SIM_DIFFERENTIAL_HH_

#include <string>
#include <vector>

#include "trace/trace_buffer.hh"
#include "sim/engine.hh"
#include "sim/factory.hh"
#include "sim/metrics.hh"

namespace ibp::sim {

/** One predictor's outcome over the shared trace. */
struct LineupEntry
{
    std::string name;
    RunMetrics metrics;

    double missPercent() const { return metrics.missPercent(); }
};

/**
 * Run the named predictors over @p trace as the columns of one
 * ReplayRow (the trace itself is never mutated) and return the
 * outcomes in the given name order.
 */
std::vector<LineupEntry>
runLineup(const trace::TraceBuffer &trace,
          const std::vector<std::string> &names,
          const EngineConfig &config = {},
          const FactoryOptions &options = {});

/**
 * The paper's headline quality ordering (Figure 6, best first).  A
 * workload where a reference-better predictor loses to a reference-
 * worse one by a clear margin is a ranking inversion — either a
 * genuinely adversarial workload worth keeping as a regression
 * profile, or a predictor bug.
 */
std::vector<std::string> referenceRanking();

/** Outcome of a checkpoint-resume equivalence check. */
struct ReplayCheck
{
    bool diverged = false;
    /** Empty when !diverged; otherwise what went off. */
    std::string detail;
};

/**
 * Replay @p name over @p trace twice: straight through, and
 * checkpointed at the midpoint with predictor + session state restored
 * into freshly constructed objects.  The runs must agree on every
 * metric and on the final architectural state bytes; any difference is
 * a serde bug surfaced by this workload.
 */
ReplayCheck checkReplayDivergence(const trace::TraceBuffer &trace,
                                  const std::string &name,
                                  const EngineConfig &config = {},
                                  const FactoryOptions &options = {});

} // namespace ibp::sim

#endif // IBP_SIM_DIFFERENTIAL_HH_
