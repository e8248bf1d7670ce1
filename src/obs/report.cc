#include "obs/report.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace ibp::obs {

namespace {

/** Stringified compiler id of this translation unit. */
std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

BuildInfo
BuildInfo::current()
{
    BuildInfo info;
    info.compiler = compilerId();
#ifdef IBP_BUILD_TYPE
    info.buildType = IBP_BUILD_TYPE;
#else
    info.buildType = "unknown";
#endif
#ifdef IBP_BUILD_FLAGS
    info.flags = IBP_BUILD_FLAGS;
#else
    info.flags = "unknown";
#endif
#ifdef IBP_GIT_SHA
    info.gitSha = IBP_GIT_SHA;
#else
    info.gitSha = "unknown";
#endif
    info.instrumented = util::kInstrumentEnabled;
    return info;
}

const ReportCell *
RunReport::findCell(const std::string &row,
                    const std::string &predictor) const
{
    for (const auto &cell : cells)
        if (cell.row == row && cell.predictor == predictor)
            return &cell;
    return nullptr;
}

const ReportTimeline *
RunReport::findTimeline(const std::string &row,
                        const std::string &predictor) const
{
    for (const auto &entry : timelines)
        if (entry.row == row && entry.predictor == predictor)
            return &entry;
    return nullptr;
}

// --- serialization ----------------------------------------------------

void
writeReport(std::ostream &out, const RunReport &report)
{
    util::JsonWriter json(out);
    json.beginObject();
    json.key("schema").value(report.schema);
    json.key("tool").value(report.tool);

    json.key("build").beginObject();
    json.key("compiler").value(report.build.compiler);
    json.key("build_type").value(report.build.buildType);
    json.key("flags").value(report.build.flags);
    json.key("git_sha").value(report.build.gitSha);
    json.key("instrumented").value(report.build.instrumented);
    json.endObject();

    json.key("run").beginObject();
    json.key("trace_scale").value(report.traceScale);
    json.key("threads").value(report.threads);
    json.endObject();

    json.key("timing").beginObject();
    json.key("wall_seconds").value(report.wallSeconds);
    json.key("serial_equivalent_seconds")
        .value(report.serialEquivalentSeconds);
    json.key("trace_gen_seconds").value(report.traceGenSeconds);
    json.key("threads_used").value(report.threadsUsed);
    json.endObject();

    if (!report.phases.phases().empty()) {
        json.key("phases").beginObject();
        for (const auto &[name, times] : report.phases.phases()) {
            json.key(name).beginObject();
            json.key("wall_seconds").value(times.wallSeconds);
            json.key("cpu_seconds").value(times.cpuSeconds);
            json.key("entries").value(times.entries);
            json.endObject();
        }
        json.endObject();
    }

    if (report.hasSuite) {
        json.key("suite").beginObject();
        json.key("predictors").beginArray();
        for (const auto &name : report.predictors)
            json.value(name);
        json.endArray();
        json.key("rows").beginArray();
        for (const auto &name : report.rows)
            json.value(name);
        json.endArray();
        json.key("cells").beginArray();
        for (const auto &cell : report.cells) {
            json.beginObject();
            json.key("row").value(cell.row);
            json.key("predictor").value(cell.predictor);
            json.key("miss_percent").value(cell.missPercent);
            json.key("no_prediction_percent")
                .value(cell.noPredictionPercent);
            json.key("predictions").value(cell.predictions);
            json.key("wall_seconds").value(cell.wallSeconds);
            json.key("cpu_seconds").value(cell.cpuSeconds);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    if (report.hasSweep) {
        json.key("sweep").beginArray();
        for (const auto &column : report.sweep) {
            json.beginObject();
            json.key("predictor").value(column.predictor);
            json.key("mean").value(column.mean);
            json.key("stddev").value(column.stddev);
            json.endObject();
        }
        json.endArray();
    }

    if (!report.timelines.empty()) {
        json.key("timelines").beginArray();
        for (const auto &entry : report.timelines) {
            const auto &windows = entry.timeline.windows();
            json.beginObject();
            json.key("row").value(entry.row);
            json.key("predictor").value(entry.predictor);
            json.key("interval").value(entry.timeline.interval());
            // Columnar windows: one array per metric, index = window.
            json.key("windows").beginObject();
            json.key("end_branch").beginArray();
            for (const auto &w : windows)
                json.value(w.endBranch);
            json.endArray();
            json.key("predictions").beginArray();
            for (const auto &w : windows)
                json.value(w.predictions);
            json.endArray();
            json.key("misses").beginArray();
            for (const auto &w : windows)
                json.value(w.misses);
            json.endArray();
            json.key("no_predictions").beginArray();
            for (const auto &w : windows)
                json.value(w.noPredictions);
            json.endArray();
            json.endObject();
            // Counter series: union of names, missing windows as 0.
            std::map<std::string, bool> counter_names;
            for (const auto &w : windows)
                for (const auto &[name, value] : w.counters)
                    counter_names[name] = true;
            if (!counter_names.empty()) {
                json.key("counters").beginObject();
                for (const auto &[name, unused] : counter_names) {
                    (void)unused;
                    json.key(name).beginArray();
                    for (const auto &w : windows) {
                        const auto it = w.counters.find(name);
                        json.value(it == w.counters.end() ? 0
                                                          : it->second);
                    }
                    json.endArray();
                }
                json.endObject();
            }
            // Written for human readers; readers recompute it from
            // the windows, so it can never drift from them.
            json.key("segmentation").beginObject();
            json.key("has_change_point")
                .value(entry.segmentation.hasChangePoint);
            json.key("steady_start")
                .value(static_cast<std::uint64_t>(
                    entry.segmentation.steadyStart));
            json.key("warmup_miss_percent")
                .value(entry.segmentation.warmupMissPercent);
            json.key("steady_miss_percent")
                .value(entry.segmentation.steadyMissPercent);
            json.key("overall_miss_percent")
                .value(entry.segmentation.overallMissPercent);
            json.endObject();
            json.endObject();
        }
        json.endArray();
    }

    if (!report.scalars.empty()) {
        json.key("scalars").beginObject();
        for (const auto &[name, value] : report.scalars)
            json.key(name).value(value);
        json.endObject();
    }

    if (!report.probes.empty()) {
        json.key("probes").beginObject();
        for (const auto &[component, registry] : report.probes) {
            json.key(component).beginObject();
            json.key("counters").beginObject();
            for (const auto &[name, value] : registry.counters())
                json.key(name).value(value);
            json.endObject();
            json.key("histograms").beginObject();
            for (const auto &[name, buckets] : registry.histograms()) {
                json.key(name).beginArray();
                for (auto b : buckets)
                    json.value(b);
                json.endArray();
            }
            json.endObject();
            json.endObject();
        }
        json.endObject();
    }

    json.endObject();
    out << '\n';
}

void
writeReportFile(const std::string &path, const RunReport &report)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open report file ", path, " for writing");
    writeReport(out, report);
    fatal_if(!out.good(), "error writing report file ", path);
}

RunReport
readReport(std::istream &in)
{
    const util::JsonValue doc = util::parseJson(in);
    RunReport report;

    report.schema = doc.get("schema").asString();
    fatal_if(report.schema != kReportSchema,
             "unsupported report schema \"", report.schema,
             "\" (this tool reads ", kReportSchema, ")");
    report.tool = doc.get("tool").asString();

    const auto &build = doc.get("build");
    report.build.compiler = build.get("compiler").asString();
    report.build.buildType = build.get("build_type").asString();
    report.build.flags = build.get("flags").asString();
    report.build.gitSha = build.get("git_sha").asString();
    report.build.instrumented = build.get("instrumented").asBool();

    const auto &run = doc.get("run");
    report.traceScale = run.get("trace_scale").asDouble();
    report.threads =
        static_cast<unsigned>(run.get("threads").asUint());

    const auto &timing = doc.get("timing");
    report.wallSeconds = timing.get("wall_seconds").asDouble();
    report.serialEquivalentSeconds =
        timing.get("serial_equivalent_seconds").asDouble();
    report.traceGenSeconds =
        timing.get("trace_gen_seconds").asDouble();
    report.threadsUsed =
        static_cast<unsigned>(timing.get("threads_used").asUint());

    if (const auto *phases = doc.find("phases")) {
        for (const auto &[name, value] : phases->asObject())
            for (std::uint64_t i = 0,
                               n = value.get("entries").asUint();
                 i < n; ++i)
                report.phases.add(
                    name,
                    value.get("wall_seconds").asDouble() /
                        static_cast<double>(n),
                    value.get("cpu_seconds").asDouble() /
                        static_cast<double>(n));
    }

    if (const auto *suite = doc.find("suite")) {
        report.hasSuite = true;
        for (const auto &name : suite->get("predictors").asArray())
            report.predictors.push_back(name.asString());
        for (const auto &name : suite->get("rows").asArray())
            report.rows.push_back(name.asString());
        for (const auto &value : suite->get("cells").asArray()) {
            ReportCell cell;
            cell.row = value.get("row").asString();
            cell.predictor = value.get("predictor").asString();
            cell.missPercent = value.get("miss_percent").asDouble();
            cell.noPredictionPercent =
                value.get("no_prediction_percent").asDouble();
            cell.predictions = value.get("predictions").asUint();
            cell.wallSeconds = value.get("wall_seconds").asDouble();
            cell.cpuSeconds = value.get("cpu_seconds").asDouble();
            report.cells.push_back(std::move(cell));
        }
    }

    if (const auto *sweep = doc.find("sweep")) {
        report.hasSweep = true;
        for (const auto &value : sweep->asArray()) {
            ReportSweepColumn column;
            column.predictor = value.get("predictor").asString();
            column.mean = value.get("mean").asDouble();
            column.stddev = value.get("stddev").asDouble();
            report.sweep.push_back(std::move(column));
        }
    }

    if (const auto *timelines = doc.find("timelines")) {
        for (const auto &value : timelines->asArray()) {
            ReportTimeline entry;
            entry.row = value.get("row").asString();
            entry.predictor = value.get("predictor").asString();
            entry.timeline.setInterval(
                value.get("interval").asUint());
            const auto &windows = value.get("windows");
            const auto &ends = windows.get("end_branch").asArray();
            const auto &preds = windows.get("predictions").asArray();
            const auto &misses = windows.get("misses").asArray();
            const auto &nopreds =
                windows.get("no_predictions").asArray();
            fatal_if(preds.size() != ends.size() ||
                         misses.size() != ends.size() ||
                         nopreds.size() != ends.size(),
                     "timeline (", entry.row, ", ", entry.predictor,
                     ") has ragged window arrays");
            for (std::size_t w = 0; w < ends.size(); ++w) {
                TimelineWindow window;
                window.endBranch = ends[w].asUint();
                window.predictions = preds[w].asUint();
                window.misses = misses[w].asUint();
                window.noPredictions = nopreds[w].asUint();
                entry.timeline.append(std::move(window));
            }
            if (const auto *counters = value.find("counters")) {
                // Rebuild per-window maps from the columnar series;
                // every window carries the full name union.
                std::vector<TimelineWindow> rebuilt(
                    entry.timeline.windows());
                for (const auto &[name, series] :
                     counters->asObject()) {
                    const auto &samples = series.asArray();
                    fatal_if(samples.size() != rebuilt.size(),
                             "timeline (", entry.row, ", ",
                             entry.predictor, ") counter ", name,
                             " has ", samples.size(), " samples for ",
                             rebuilt.size(), " windows");
                    for (std::size_t w = 0; w < samples.size(); ++w)
                        rebuilt[w].counters[name] =
                            samples[w].asUint();
                }
                Timeline with_counters;
                with_counters.setInterval(entry.timeline.interval());
                for (auto &window : rebuilt)
                    with_counters.append(std::move(window));
                entry.timeline = std::move(with_counters);
            }
            entry.segmentation = segmentTimeline(entry.timeline);
            report.timelines.push_back(std::move(entry));
        }
    }

    if (const auto *scalars = doc.find("scalars"))
        for (const auto &[name, value] : scalars->asObject())
            report.scalars[name] = value.asDouble();

    if (const auto *probes = doc.find("probes")) {
        for (const auto &[component, entry] : probes->asObject()) {
            ProbeRegistry registry;
            for (const auto &[name, value] :
                 entry.get("counters").asObject())
                registry.counter(name, value.asUint());
            for (const auto &[name, value] :
                 entry.get("histograms").asObject()) {
                std::vector<std::uint64_t> buckets;
                for (const auto &b : value.asArray())
                    buckets.push_back(b.asUint());
                registry.histogram(name, buckets);
            }
            report.probes.emplace(component, std::move(registry));
        }
    }

    return report;
}

RunReport
readReportFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open report file ", path);
    return readReport(in);
}

// --- diff -------------------------------------------------------------

namespace {

std::string
format(const char *fmt, ...)
{
    char buffer[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buffer, sizeof(buffer), fmt, args);
    va_end(args);
    return buffer;
}

/** Percent change b vs a; 0 when a == 0. */
double
percentDelta(double a, double b)
{
    return a == 0 ? 0 : 100.0 * (b - a) / a;
}

} // namespace

ReportDiff
diffReports(const RunReport &before, const RunReport &after,
            double tolerancePct)
{
    ReportDiff diff;

    // --- accuracy (gating) ------------------------------------------
    if (before.hasSuite != after.hasSuite)
        diff.failures.push_back(
            "suite section present in only one report");
    for (const auto &cell : before.cells) {
        const ReportCell *other =
            after.findCell(cell.row, cell.predictor);
        if (other == nullptr) {
            diff.failures.push_back(format(
                "cell (%s, %s) missing from the second report",
                cell.row.c_str(), cell.predictor.c_str()));
            continue;
        }
        const double miss_delta =
            other->missPercent - cell.missPercent;
        if (std::abs(miss_delta) > tolerancePct)
            diff.failures.push_back(format(
                "(%s, %s) miss%% %.4f -> %.4f (%+.4f points, "
                "tolerance %.4f)",
                cell.row.c_str(), cell.predictor.c_str(),
                cell.missPercent, other->missPercent, miss_delta,
                tolerancePct));
        const double nopred_delta =
            other->noPredictionPercent - cell.noPredictionPercent;
        if (std::abs(nopred_delta) > tolerancePct)
            diff.failures.push_back(format(
                "(%s, %s) no-prediction%% %.4f -> %.4f "
                "(%+.4f points, tolerance %.4f)",
                cell.row.c_str(), cell.predictor.c_str(),
                cell.noPredictionPercent, other->noPredictionPercent,
                nopred_delta, tolerancePct));
        if (other->predictions != cell.predictions)
            diff.failures.push_back(format(
                "(%s, %s) prediction count %llu -> %llu "
                "(workload changed?)",
                cell.row.c_str(), cell.predictor.c_str(),
                static_cast<unsigned long long>(cell.predictions),
                static_cast<unsigned long long>(other->predictions)));
    }
    for (const auto &cell : after.cells)
        if (before.findCell(cell.row, cell.predictor) == nullptr)
            diff.notes.push_back(format(
                "cell (%s, %s) only in the second report",
                cell.row.c_str(), cell.predictor.c_str()));

    // --- sweeps (gating on mean beyond tolerance) -------------------
    for (const auto &column : before.sweep) {
        const ReportSweepColumn *other = nullptr;
        for (const auto &candidate : after.sweep)
            if (candidate.predictor == column.predictor)
                other = &candidate;
        if (other == nullptr) {
            diff.failures.push_back(format(
                "sweep column %s missing from the second report",
                column.predictor.c_str()));
            continue;
        }
        const double delta = other->mean - column.mean;
        if (std::abs(delta) > tolerancePct)
            diff.failures.push_back(format(
                "sweep %s mean miss%% %.4f -> %.4f (%+.4f points)",
                column.predictor.c_str(), column.mean, other->mean,
                delta));
    }

    // --- timelines (gating, with the exact offending path) ----------
    for (const auto &entry : before.timelines) {
        const ReportTimeline *other =
            after.findTimeline(entry.row, entry.predictor);
        const std::string path =
            "timelines[" + entry.row + ", " + entry.predictor + "]";
        if (other == nullptr) {
            diff.failures.push_back(
                format("%s missing from the second report",
                       path.c_str()));
            continue;
        }
        if (other->timeline.interval() != entry.timeline.interval()) {
            diff.failures.push_back(format(
                "%s.interval %llu -> %llu (different cadence; "
                "windows are not comparable)",
                path.c_str(),
                static_cast<unsigned long long>(
                    entry.timeline.interval()),
                static_cast<unsigned long long>(
                    other->timeline.interval())));
            continue;
        }
        const auto &a = entry.timeline.windows();
        const auto &b = other->timeline.windows();
        if (a.size() != b.size()) {
            diff.failures.push_back(format(
                "%s has %zu windows -> %zu (run length changed?)",
                path.c_str(), a.size(), b.size()));
            continue;
        }
        for (std::size_t w = 0; w < a.size(); ++w) {
            const std::string wpath =
                format("%s.windows[%zu] (end_branch %llu)",
                       path.c_str(), w,
                       static_cast<unsigned long long>(
                           a[w].endBranch));
            if (a[w].endBranch != b[w].endBranch) {
                diff.failures.push_back(format(
                    "%s.windows[%zu].end_branch %llu -> %llu",
                    path.c_str(), w,
                    static_cast<unsigned long long>(a[w].endBranch),
                    static_cast<unsigned long long>(b[w].endBranch)));
                continue;
            }
            if (a[w].predictions != b[w].predictions)
                diff.failures.push_back(format(
                    "%s predictions %llu -> %llu", wpath.c_str(),
                    static_cast<unsigned long long>(a[w].predictions),
                    static_cast<unsigned long long>(
                        b[w].predictions)));
            const double delta =
                b[w].missPercent() - a[w].missPercent();
            if (std::abs(delta) > tolerancePct)
                diff.failures.push_back(format(
                    "%s miss%% %.4f -> %.4f (%+.4f points, "
                    "tolerance %.4f)",
                    wpath.c_str(), a[w].missPercent(),
                    b[w].missPercent(), delta, tolerancePct));
            for (const auto &[name, value] : a[w].counters) {
                const auto it = b[w].counters.find(name);
                const std::uint64_t bval =
                    it == b[w].counters.end() ? 0 : it->second;
                if (bval != value)
                    diff.notes.push_back(format(
                        "%s counter %s %llu -> %llu", wpath.c_str(),
                        name.c_str(),
                        static_cast<unsigned long long>(value),
                        static_cast<unsigned long long>(bval)));
            }
        }
        // Steady-state regressions gate even when every window stays
        // inside tolerance individually: a sustained drift matters
        // more than a one-window blip.
        const double steady_delta =
            other->segmentation.steadyMissPercent -
            entry.segmentation.steadyMissPercent;
        if (std::abs(steady_delta) > tolerancePct)
            diff.failures.push_back(format(
                "%s steady-state miss%% %.4f -> %.4f (%+.4f points)",
                path.c_str(), entry.segmentation.steadyMissPercent,
                other->segmentation.steadyMissPercent, steady_delta));
    }
    for (const auto &entry : after.timelines)
        if (before.findTimeline(entry.row, entry.predictor) == nullptr)
            diff.notes.push_back(format(
                "timelines[%s, %s] only in the second report",
                entry.row.c_str(), entry.predictor.c_str()));

    // --- scalars (informational) ------------------------------------
    for (const auto &[name, value] : before.scalars) {
        auto it = after.scalars.find(name);
        if (it == after.scalars.end()) {
            diff.notes.push_back(
                format("scalar %s missing from the second report",
                       name.c_str()));
        } else if (it->second != value) {
            diff.notes.push_back(format(
                "scalar %s %.6g -> %.6g (%+.2f%%)", name.c_str(),
                value, it->second, percentDelta(value, it->second)));
        }
    }

    // --- timing / throughput (informational) ------------------------
    if (before.wallSeconds > 0 && after.wallSeconds > 0)
        diff.notes.push_back(format(
            "wall %.3fs -> %.3fs (%+.1f%%)", before.wallSeconds,
            after.wallSeconds,
            percentDelta(before.wallSeconds, after.wallSeconds)));
    if (before.serialEquivalentSeconds > 0 &&
        after.serialEquivalentSeconds > 0)
        diff.notes.push_back(
            format("serial-equivalent %.3fs -> %.3fs (%+.1f%%)",
                   before.serialEquivalentSeconds,
                   after.serialEquivalentSeconds,
                   percentDelta(before.serialEquivalentSeconds,
                                after.serialEquivalentSeconds)));

    // --- probes (informational; zero-vs-zero stays silent) ----------
    for (const auto &[component, registry] : before.probes) {
        auto it = after.probes.find(component);
        if (it == after.probes.end()) {
            diff.notes.push_back(
                format("probes for %s missing from the second report",
                       component.c_str()));
            continue;
        }
        for (const auto &[name, value] : registry.counters()) {
            const std::uint64_t other = it->second.counterValue(name);
            if (other != value)
                diff.notes.push_back(format(
                    "probe %s/%s %llu -> %llu", component.c_str(),
                    name.c_str(),
                    static_cast<unsigned long long>(value),
                    static_cast<unsigned long long>(other)));
        }
    }

    return diff;
}

// --- pretty printing --------------------------------------------------

void
printReport(std::ostream &out, const RunReport &report)
{
    out << "report: " << report.tool << " (" << report.schema << ")\n";
    out << "  build: " << report.build.compiler << ", "
        << report.build.buildType << ", git " << report.build.gitSha
        << (report.build.instrumented ? ", instrumented"
                                      : ", probes off")
        << '\n';
    out << "  run: trace scale " << report.traceScale << ", threads "
        << report.threads << " (used " << report.threadsUsed << ")\n";
    out << std::fixed << std::setprecision(3);
    out << "  timing: wall " << report.wallSeconds
        << " s, serial-equivalent " << report.serialEquivalentSeconds
        << " s, trace-gen " << report.traceGenSeconds << " s\n";

    for (const auto &[name, times] : report.phases.phases())
        out << "  phase " << name << ": wall " << times.wallSeconds
            << " s, cpu " << times.cpuSeconds << " s ("
            << times.entries << " scopes)\n";

    if (report.hasSuite) {
        out << "  suite: " << report.rows.size() << " benchmarks x "
            << report.predictors.size() << " predictors\n";
        out << std::setprecision(2);
        for (const auto &predictor : report.predictors) {
            double sum = 0;
            std::size_t n = 0;
            for (const auto &cell : report.cells)
                if (cell.predictor == predictor) {
                    sum += cell.missPercent;
                    ++n;
                }
            out << "    " << predictor << ": avg miss "
                << (n ? sum / static_cast<double>(n) : 0) << "% over "
                << n << " rows\n";
        }
    }

    if (report.hasSweep) {
        out << "  sweep:\n" << std::setprecision(2);
        for (const auto &column : report.sweep)
            out << "    " << column.predictor << ": mean "
                << column.mean << "% +/- " << column.stddev << '\n';
    }

    if (!report.timelines.empty()) {
        out << "  timelines: " << report.timelines.size()
            << " cells, interval "
            << report.timelines.front().timeline.interval()
            << " records\n"
            << std::setprecision(2);
        for (const auto &entry : report.timelines) {
            out << "    (" << entry.row << ", " << entry.predictor
                << "): " << entry.timeline.windows().size()
                << " windows";
            if (entry.segmentation.hasChangePoint)
                out << ", warmup "
                    << entry.segmentation.warmupMissPercent
                    << "% -> steady "
                    << entry.segmentation.steadyMissPercent
                    << "% from window "
                    << entry.segmentation.steadyStart;
            else
                out << ", steady "
                    << entry.segmentation.overallMissPercent << "%";
            out << '\n';
        }
    }

    if (!report.scalars.empty())
        out << "  scalars: " << report.scalars.size() << " entries\n";

    for (const auto &[component, registry] : report.probes) {
        std::uint64_t total = 0;
        for (const auto &[name, value] : registry.counters())
            total += value;
        out << "  probes[" << component
            << "]: " << registry.counters().size() << " counters ("
            << total << " events), " << registry.histograms().size()
            << " histograms\n";
    }
}

void
printDiff(std::ostream &out, const ReportDiff &diff)
{
    for (const auto &line : diff.failures)
        out << "FAIL  " << line << '\n';
    for (const auto &line : diff.notes)
        out << "note  " << line << '\n';
}

} // namespace ibp::obs
