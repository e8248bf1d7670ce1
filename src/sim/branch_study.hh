/**
 * @file
 * Per-branch correlation study.
 *
 * The paper's dynamic PB/PIB selection rests on its companion TR
 * (Kalamatianos & Kaeli, "On the Predictability and Correlation of
 * Indirect Branches", ref [12]): "most indirect branches were best
 * correlated with either all previous branches or with previous
 * indirect branches".  This module reproduces that measurement: for
 * every static MT indirect site it fits ideal exact-context predictors
 * over both streams at several path lengths, then classifies the site
 * by which stream predicts it best.
 */

#ifndef IBP_SIM_BRANCH_STUDY_HH_
#define IBP_SIM_BRANCH_STUDY_HH_

#include <cstdint>
#include <map>
#include <vector>

#include "trace/trace_buffer.hh"

namespace ibp::sim {

/** Correlation classes a site can land in. */
enum class CorrelationClass : std::uint8_t
{
    PbCorrelated,  ///< all-branch path predicts it distinctly better
    PibCorrelated, ///< indirect-branch path predicts it better
    Either,        ///< both streams predict it about equally well
    Unpredictable, ///< neither stream reaches the accuracy floor
};

/** Printable class name. */
const char *correlationClassName(CorrelationClass cls);

/** Study verdict for one static site. */
struct SiteCorrelation
{
    trace::Addr pc = 0;
    std::uint64_t executions = 0;
    double bestPbAccuracy = 0;  ///< best over the studied orders
    double bestPibAccuracy = 0;
    unsigned bestPbOrder = 0;
    unsigned bestPibOrder = 0;
    CorrelationClass cls = CorrelationClass::Unpredictable;
};

/** Whole-trace study result. */
struct CorrelationStudy
{
    std::vector<SiteCorrelation> sites;
    std::uint64_t dynamicTotal = 0;

    /** Dynamic execution share of each class. */
    double dynamicShare(CorrelationClass cls) const;
};

/** Study parameters. */
struct StudyOptions
{
    /** Path lengths evaluated per stream. */
    std::vector<unsigned> orders{1, 2, 4, 8};
    /** Accuracy margin for declaring one stream distinctly better. */
    double margin = 0.02;
    /** Accuracy floor below which a site is Unpredictable. */
    double floor = 0.60;
    /** Ignore sites executed fewer times than this. */
    std::uint64_t minExecutions = 64;
};

/**
 * Run the study over a branch stream.  Exact-context ideal predictors
 * (last-target per (site, path window)) are fitted online, so the
 * reported accuracy is the in-sample accuracy of an oracle-table
 * predictor — the same idealization the TR and the paper's oracle
 * analysis use.
 */
CorrelationStudy studyCorrelation(trace::BranchSource &source,
                                  const StudyOptions &options = {});

} // namespace ibp::sim

#endif // IBP_SIM_BRANCH_STUDY_HH_
