#include "sim/branch_study.hh"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "util/logging.hh"

namespace ibp::sim {

namespace {

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

/** Hash of the last @p order entries of @p window (newest at back). */
std::uint64_t
contextKey(const std::deque<trace::Addr> &window, unsigned order)
{
    std::uint64_t h = order;
    const std::size_t n = window.size();
    for (unsigned i = 0; i < order && i < n; ++i)
        h = mix(h, window[n - 1 - i]);
    return h;
}

/** One ideal exact-context predictor: context -> last target. */
struct IdealPredictor
{
    std::unordered_map<std::uint64_t, trace::Addr> table;
    std::uint64_t hits = 0;

    void
    sample(std::uint64_t key, trace::Addr target)
    {
        auto [it, fresh] = table.try_emplace(key, target);
        if (!fresh) {
            if (it->second == target)
                ++hits;
            it->second = target;
        }
    }
};

struct SiteState
{
    std::uint64_t executions = 0;
    std::vector<IdealPredictor> pb;  ///< one per studied order
    std::vector<IdealPredictor> pib;
};

} // namespace

const char *
correlationClassName(CorrelationClass cls)
{
    switch (cls) {
      case CorrelationClass::PbCorrelated:  return "PB";
      case CorrelationClass::PibCorrelated: return "PIB";
      case CorrelationClass::Either:        return "either";
      case CorrelationClass::Unpredictable: return "unpredictable";
    }
    return "?";
}

double
CorrelationStudy::dynamicShare(CorrelationClass cls) const
{
    if (dynamicTotal == 0)
        return 0;
    std::uint64_t matching = 0;
    for (const auto &site : sites)
        if (site.cls == cls)
            matching += site.executions;
    return static_cast<double>(matching) /
           static_cast<double>(dynamicTotal);
}

CorrelationStudy
studyCorrelation(trace::BranchSource &source,
                 const StudyOptions &options)
{
    fatal_if(options.orders.empty(), "study needs at least one order");
    const unsigned max_order =
        *std::max_element(options.orders.begin(), options.orders.end());

    std::deque<trace::Addr> pb_window;
    std::deque<trace::Addr> pib_window;
    std::map<trace::Addr, SiteState> states;

    trace::BranchRecord record;
    while (source.next(record)) {
        if (record.isPredictedIndirect()) {
            SiteState &state = states[record.pc];
            if (state.pb.empty()) {
                state.pb.resize(options.orders.size());
                state.pib.resize(options.orders.size());
            }
            ++state.executions;
            for (std::size_t k = 0; k < options.orders.size(); ++k) {
                const unsigned order = options.orders[k];
                state.pb[k].sample(contextKey(pb_window, order),
                                   record.target);
                state.pib[k].sample(contextKey(pib_window, order),
                                    record.target);
            }
        }

        // Advance the ground-truth windows.
        pb_window.push_back(record.nextPc());
        if (pb_window.size() > max_order)
            pb_window.pop_front();
        if (record.multiTarget &&
            (record.kind == trace::BranchKind::IndirectJmp ||
             record.kind == trace::BranchKind::IndirectCall)) {
            pib_window.push_back(record.target);
            if (pib_window.size() > max_order)
                pib_window.pop_front();
        }
    }

    CorrelationStudy study;
    for (const auto &[pc, state] : states) {
        if (state.executions < options.minExecutions)
            continue;
        SiteCorrelation site;
        site.pc = pc;
        site.executions = state.executions;
        for (std::size_t k = 0; k < options.orders.size(); ++k) {
            const double denom =
                static_cast<double>(state.executions);
            const double pb_acc =
                static_cast<double>(state.pb[k].hits) / denom;
            const double pib_acc =
                static_cast<double>(state.pib[k].hits) / denom;
            if (pb_acc > site.bestPbAccuracy) {
                site.bestPbAccuracy = pb_acc;
                site.bestPbOrder = options.orders[k];
            }
            if (pib_acc > site.bestPibAccuracy) {
                site.bestPibAccuracy = pib_acc;
                site.bestPibOrder = options.orders[k];
            }
        }

        const double best =
            std::max(site.bestPbAccuracy, site.bestPibAccuracy);
        if (best < options.floor)
            site.cls = CorrelationClass::Unpredictable;
        else if (site.bestPbAccuracy >
                 site.bestPibAccuracy + options.margin)
            site.cls = CorrelationClass::PbCorrelated;
        else if (site.bestPibAccuracy >
                 site.bestPbAccuracy + options.margin)
            site.cls = CorrelationClass::PibCorrelated;
        else
            site.cls = CorrelationClass::Either;

        study.dynamicTotal += site.executions;
        study.sites.push_back(site);
    }
    return study;
}

} // namespace ibp::sim
