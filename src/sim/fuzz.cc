#include "sim/fuzz.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "sim/experiment.hh"

namespace ibp::sim {

namespace {

/** Candidates per generation wave.  Fixed — NOT the thread count —
 *  so the corpus evolution is identical on any machine; threads only
 *  change how many of a wave's evaluations overlap. */
constexpr std::size_t kWave = 8;

/** Corpus growth cap; the seeds always stay resident. */
constexpr std::size_t kMaxCorpus = 256;

/** Re-evaluations the minimizer may spend per finding. */
constexpr std::uint64_t kMaxShrinkEvalsPerFinding = 400;

std::string
percent3(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.3f", value);
    return buffer;
}

std::string
slug(const std::string &name)
{
    std::string out;
    for (char c : name) {
        if (c >= 'A' && c <= 'Z')
            out.push_back(static_cast<char>(c - 'A' + 'a'));
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            out.push_back(c);
        else if (!out.empty() && out.back() != '-')
            out.push_back('-');
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out;
}

std::vector<std::string>
resolvedPredictors(const FuzzOptions &options)
{
    return options.predictors.empty() ? allPredictors()
                                      : options.predictors;
}

/** 4-sigma binomial allowance (in percentage points) for a measured
 *  miss ratio near probability @p floor_fraction over @p n trials. */
double
samplingAllowance(double floor_fraction, std::uint64_t n)
{
    if (n == 0)
        return 100.0;
    const double p = std::clamp(floor_fraction, 0.0, 1.0);
    return 4.0 * 100.0 *
           std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}

} // namespace

std::string
findingKindName(FindingKind kind)
{
    switch (kind) {
      case FindingKind::RankingInversion:
        return "ranking-inversion";
      case FindingKind::OracleDeviation:
        return "oracle-deviation";
      case FindingKind::ReplayDivergence:
        return "replay-divergence";
    }
    panic("unknown finding kind");
}

std::string
findingKey(const FuzzFinding &finding)
{
    return findingKindName(finding.kind) + "/" + finding.better + "/" +
           finding.worse;
}

std::string
suggestedProfileName(const FuzzFinding &finding)
{
    switch (finding.kind) {
      case FindingKind::RankingInversion:
        return "inversion-" + slug(finding.better) + "-loses-to-" +
               slug(finding.worse);
      case FindingKind::OracleDeviation:
        return "oracle-deviation-" + slug(finding.better);
      case FindingKind::ReplayDivergence:
        return "replay-divergence-" + slug(finding.better);
    }
    panic("unknown finding kind");
}

std::vector<FuzzFinding>
evaluateProfile(const workload::BenchmarkProfile &profile,
                const FuzzOptions &options,
                const std::vector<std::string> &replay_names)
{
    std::vector<FuzzFinding> findings;
    const trace::TraceBuffer trace = generateTrace(profile);
    const std::vector<std::string> names = resolvedPredictors(options);
    const std::vector<LineupEntry> lineup = runLineup(trace, names);

    auto entryFor =
        [&lineup](const std::string &name) -> const LineupEntry * {
        for (const LineupEntry &entry : lineup)
            if (entry.name == name)
                return &entry;
        return nullptr;
    };

    // (a) ranking inversions over every ordered reference pair.
    const std::vector<std::string> reference = referenceRanking();
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const LineupEntry *better = entryFor(reference[i]);
        if (!better || better->metrics.mtIndirect == 0)
            continue;
        for (std::size_t j = i + 1; j < reference.size(); ++j) {
            const LineupEntry *worse = entryFor(reference[j]);
            if (!worse)
                continue;
            const double gap =
                better->missPercent() - worse->missPercent();
            if (gap < options.inversionMargin)
                continue;
            FuzzFinding finding;
            finding.kind = FindingKind::RankingInversion;
            finding.better = better->name;
            finding.worse = worse->name;
            finding.betterMissPercent = better->missPercent();
            finding.worseMissPercent = worse->missPercent();
            finding.margin = gap;
            finding.detail = better->name + " (" +
                             percent3(better->missPercent()) +
                             "%) lost to " + worse->name + " (" +
                             percent3(worse->missPercent()) + "%) by " +
                             percent3(gap) + " pp";
            finding.profile = profile;
            findings.push_back(std::move(finding));
        }
    }

    // (b) accuracy beyond the analytic floor: impossible, so a bug.
    const double floor_pct =
        workload::analyticMissFloorPercent(profile.program);
    if (floor_pct > 0) {
        for (const LineupEntry &entry : lineup) {
            if (entry.metrics.mtIndirect < 200)
                continue; // too few trials to say anything
            const double allowance = samplingAllowance(
                floor_pct / 100.0, entry.metrics.mtIndirect);
            const double threshold =
                floor_pct - options.oracleTolerance - allowance;
            if (entry.missPercent() >= threshold)
                continue;
            FuzzFinding finding;
            finding.kind = FindingKind::OracleDeviation;
            finding.better = entry.name;
            finding.betterMissPercent = entry.missPercent();
            finding.floorPercent = floor_pct;
            finding.margin = floor_pct - entry.missPercent();
            finding.detail =
                entry.name + " measured " +
                percent3(entry.missPercent()) +
                "% misses, below the analytic floor " +
                percent3(floor_pct) + "% (allowance " +
                percent3(options.oracleTolerance + allowance) + " pp)";
            finding.profile = profile;
            findings.push_back(std::move(finding));
        }
    }

    // (c) checkpoint-resume equivalence for the chosen predictors.
    for (const std::string &name : replay_names) {
        const ReplayCheck check = checkReplayDivergence(trace, name);
        if (!check.diverged)
            continue;
        FuzzFinding finding;
        finding.kind = FindingKind::ReplayDivergence;
        finding.better = name;
        finding.detail = check.detail;
        finding.profile = profile;
        findings.push_back(std::move(finding));
    }
    return findings;
}

FuzzFinding
minimizeFinding(const FuzzFinding &finding, const FuzzOptions &options,
                std::uint64_t &shrink_evals)
{
    const std::string key = findingKey(finding);
    const std::vector<std::string> replay =
        finding.kind == FindingKind::ReplayDivergence
            ? std::vector<std::string>{finding.better}
            : std::vector<std::string>{};

    // Reproduction only needs the predictors the finding names, so
    // shrink probes run a 1-2 entry lineup instead of all 23.
    FuzzOptions narrowed = options;
    narrowed.predictors = {finding.better};
    if (!finding.worse.empty())
        narrowed.predictors.push_back(finding.worse);

    FuzzFinding current = finding;
    std::uint64_t spent = 0;
    bool improved = true;
    while (improved && spent < kMaxShrinkEvalsPerFinding) {
        improved = false;
        for (const workload::BenchmarkProfile &candidate :
             workload::shrinkCandidates(current.profile)) {
            if (spent >= kMaxShrinkEvalsPerFinding)
                break;
            ++spent;
            for (FuzzFinding &reproduced :
                 evaluateProfile(candidate, narrowed, replay)) {
                if (findingKey(reproduced) != key)
                    continue;
                reproduced.foundAtEval = current.foundAtEval;
                current = std::move(reproduced);
                improved = true;
                break;
            }
            if (improved)
                break; // restart from the shrunk profile
        }
    }
    shrink_evals += spent;
    current.minimized = true;
    // Name the reproducer after what it reproduces.
    current.profile.benchmark = suggestedProfileName(current);
    current.profile.input.clear();
    current.profile.note = current.detail;
    return current;
}

FuzzReport
runFuzz(const FuzzOptions &options, obs::ProbeRegistry *probes)
{
    FuzzReport report;
    report.options = options;

    const std::vector<std::string> names = resolvedPredictors(options);
    std::vector<workload::BenchmarkProfile> corpus =
        workload::adversarialSeeds();
    for (workload::BenchmarkProfile &seed : corpus)
        seed.records = options.records;
    const std::size_t num_seeds = corpus.size();

    std::set<std::uint64_t> seen;
    std::map<std::string, FuzzFinding> unique;
    util::ThreadPool pool(options.threads);

    std::uint64_t index = 0;
    while (report.generated < options.budget) {
        const std::size_t wave_size = static_cast<std::size_t>(
            std::min<std::uint64_t>(kWave,
                                    options.budget - report.generated));
        ++report.waves;

        // Generate the whole wave against the wave-start corpus, then
        // evaluate the novel candidates in parallel.  Futures are
        // folded in submission order, so results are index-ordered no
        // matter how the pool schedules them.
        struct Pending
        {
            workload::BenchmarkProfile profile;
            std::uint64_t index;
            std::future<std::vector<FuzzFinding>> result;
        };
        std::vector<Pending> pending;
        const std::size_t corpus_snapshot = corpus.size();
        for (std::size_t w = 0; w < wave_size; ++w, ++index) {
            std::uint64_t split = options.seed ^
                (0x9e3779b97f4a7c15ULL * (index + 1));
            util::Rng rng(util::splitMix64(split));
            workload::BenchmarkProfile candidate;
            if (index < num_seeds)
                candidate = corpus[static_cast<std::size_t>(index)];
            else
                candidate = workload::mutateProfile(
                    corpus[rng.below(corpus_snapshot)], rng);
            candidate.records = options.records;
            candidate.benchmark = "fuzz";
            candidate.input = std::to_string(index);
            ++report.generated;

            const std::uint64_t signature =
                workload::coverageSignature(candidate.program);
            if (!seen.insert(signature).second) {
                ++report.skippedCovered;
                continue;
            }
            ++report.coverageClasses;

            Pending entry;
            entry.profile = candidate;
            entry.index = index;
            const std::vector<std::string> replay = {
                names[static_cast<std::size_t>(index) % names.size()]};
            entry.result = pool.submit(
                [candidate, &options, replay] {
                    return evaluateProfile(candidate, options, replay);
                });
            pending.push_back(std::move(entry));
        }

        for (Pending &entry : pending) {
            std::vector<FuzzFinding> found = entry.result.get();
            ++report.evaluated;
            for (FuzzFinding &finding : found) {
                finding.foundAtEval = entry.index;
                const std::string key = findingKey(finding);
                auto it = unique.find(key);
                if (it == unique.end())
                    unique.emplace(key, std::move(finding));
                else if (finding.margin > it->second.margin) {
                    // Keep the first-found index, the worst margin.
                    finding.foundAtEval = it->second.foundAtEval;
                    it->second = std::move(finding);
                }
            }
            if (corpus.size() < kMaxCorpus)
                corpus.push_back(std::move(entry.profile));
        }
    }

    if (options.minimize) {
        // Findings minimize independently; fold in key order.
        std::vector<std::future<std::pair<FuzzFinding, std::uint64_t>>>
            minimizers;
        for (const auto &[key, finding] : unique) {
            (void)key;
            minimizers.push_back(pool.submit([finding, &options] {
                std::uint64_t evals = 0;
                FuzzFinding minimized =
                    minimizeFinding(finding, options, evals);
                return std::make_pair(std::move(minimized), evals);
            }));
        }
        for (auto &future : minimizers) {
            auto [finding, evals] = future.get();
            report.shrinkEvals += evals;
            report.findings.push_back(std::move(finding));
        }
    } else {
        for (const auto &[key, finding] : unique) {
            (void)key;
            report.findings.push_back(finding);
        }
    }

    if (probes) {
        probes->counter("fuzz/generated", report.generated);
        probes->counter("fuzz/evaluated", report.evaluated);
        probes->counter("fuzz/skipped_covered", report.skippedCovered);
        probes->counter("fuzz/coverage_classes",
                        report.coverageClasses);
        probes->counter("fuzz/findings", report.findings.size());
        probes->counter("fuzz/shrink_evals", report.shrinkEvals);
        probes->counter("fuzz/waves", report.waves);
    }
    return report;
}

void
writeFindingsJson(std::ostream &out, const FuzzReport &report)
{
    util::JsonWriter json(out);
    json.beginObject();
    json.key("schema").value("ibp-fuzz-v1");

    // The options echo deliberately excludes the thread count: the
    // document must be byte-identical across thread counts.
    json.key("options").beginObject();
    json.key("seed").value(report.options.seed);
    json.key("budget").value(report.options.budget);
    json.key("records").value(report.options.records);
    json.key("minimize").value(report.options.minimize);
    json.key("inversion_margin_pp").value(report.options.inversionMargin);
    json.key("oracle_tolerance_pp").value(report.options.oracleTolerance);
    json.key("predictors").beginArray();
    for (const std::string &name :
         report.options.predictors.empty()
             ? allPredictors()
             : report.options.predictors)
        json.value(name);
    json.endArray();
    json.endObject();

    json.key("stats").beginObject();
    json.key("generated").value(report.generated);
    json.key("evaluated").value(report.evaluated);
    json.key("skipped_covered").value(report.skippedCovered);
    json.key("coverage_classes").value(report.coverageClasses);
    json.key("shrink_evals").value(report.shrinkEvals);
    json.key("waves").value(report.waves);
    json.key("findings")
        .value(static_cast<std::uint64_t>(report.findings.size()));
    json.endObject();

    json.key("findings").beginArray();
    for (const FuzzFinding &finding : report.findings) {
        json.beginObject();
        json.key("kind").value(findingKindName(finding.kind));
        json.key("key").value(findingKey(finding));
        json.key("name").value(suggestedProfileName(finding));
        json.key("better").value(finding.better);
        json.key("worse").value(finding.worse);
        json.key("better_miss_percent").value(finding.betterMissPercent);
        json.key("worse_miss_percent").value(finding.worseMissPercent);
        json.key("margin_pp").value(finding.margin);
        json.key("floor_percent").value(finding.floorPercent);
        json.key("detail").value(finding.detail);
        json.key("minimized").value(finding.minimized);
        json.key("found_at_eval").value(finding.foundAtEval);
        json.key("profile");
        workload::writeProfileJson(json, finding.profile);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
}

} // namespace ibp::sim
