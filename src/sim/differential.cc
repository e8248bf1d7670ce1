#include "sim/differential.hh"

#include <memory>

#include "util/logging.hh"
#include "util/serde.hh"

namespace ibp::sim {

namespace {

std::vector<std::uint8_t>
metricsBytes(const RunMetrics &metrics)
{
    util::StateWriter writer;
    metrics.saveState(writer);
    return writer.bytes();
}

std::vector<std::uint8_t>
predictorBytes(const pred::IndirectPredictor &predictor)
{
    util::StateWriter writer;
    predictor.saveState(writer);
    return writer.bytes();
}

} // namespace

std::vector<LineupEntry>
runLineup(const trace::TraceBuffer &trace,
          const std::vector<std::string> &names,
          const EngineConfig &config, const FactoryOptions &options)
{
    std::vector<std::unique_ptr<pred::IndirectPredictor>> predictors;
    std::vector<ReplaySession> sessions(names.size(),
                                        ReplaySession(config));
    ReplayRow row(config);
    for (std::size_t c = 0; c < names.size(); ++c) {
        predictors.push_back(makePredictor(names[c], options));
        row.addColumn(*predictors.back(), sessions[c]);
    }
    row.feed(trace.records().data(), trace.size());
    row.finish();

    std::vector<LineupEntry> lineup;
    for (std::size_t c = 0; c < names.size(); ++c)
        lineup.push_back({names[c], sessions[c].metrics()});
    return lineup;
}

std::vector<std::string>
referenceRanking()
{
    // Figure 6's geometric-mean ordering, best to worst, with the
    // post-1998 baselines at the head: on the suite average the
    // hashed perceptron and ITTAGE beat every 1998 design (see the
    // "1998 vs. post-1998" table in EXPERIMENTS.md).
    return {"Perceptron", "ITTAGE", "PPM-hyb", "Cascade",
            "Dpath",      "TC-PIB", "GAp",     "BTB2b",
            "BTB"};
}

ReplayCheck
checkReplayDivergence(const trace::TraceBuffer &trace,
                      const std::string &name,
                      const EngineConfig &config,
                      const FactoryOptions &options)
{
    ReplayCheck check;
    auto fail = [&check](std::string detail) {
        check.diverged = true;
        check.detail = std::move(detail);
        return check;
    };

    // Reference: one uninterrupted replay.
    auto straight = makePredictor(name, options);
    ReplaySession straight_session(config);
    {
        trace::ReplaySource source(trace);
        straight_session.run(source, *straight);
    }

    // Candidate: checkpoint at the midpoint, restore into fresh
    // objects, and finish from there.
    const std::uint64_t half = trace.size() / 2;
    auto first = makePredictor(name, options);
    ReplaySession first_session(config);
    trace::ReplaySource source(trace);
    const std::uint64_t consumed =
        first_session.run(source, *first, half);
    if (consumed != half)
        return fail("midpoint replay consumed " +
                    std::to_string(consumed) + " of " +
                    std::to_string(half) + " records");

    util::StateWriter checkpoint;
    first->saveState(checkpoint);
    first_session.saveState(checkpoint);

    auto resumed = makePredictor(name, options);
    ReplaySession resumed_session(config);
    util::StateReader reader(checkpoint.bytes());
    resumed->loadState(reader);
    resumed_session.loadState(reader);
    if (!reader.ok())
        return fail("checkpoint decode failed: " +
                    reader.status().message());
    if (!reader.atEnd())
        return fail("checkpoint decode left " +
                    std::to_string(reader.remaining()) +
                    " trailing bytes");

    // The source already stands at the midpoint.
    resumed_session.run(source, *resumed);

    if (metricsBytes(resumed_session.metrics()) !=
        metricsBytes(straight_session.metrics()))
        return fail(
            "metrics diverged after checkpoint-resume (straight " +
            std::to_string(straight_session.metrics().missPercent()) +
            "% vs resumed " +
            std::to_string(resumed_session.metrics().missPercent()) +
            "%)");
    if (predictorBytes(*resumed) != predictorBytes(*straight))
        return fail("final architectural state diverged after "
                    "checkpoint-resume");
    return check;
}

} // namespace ibp::sim
