#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "util/json.hh"
#include "obs/cputime.hh"
#include "obs/trace_event.hh"
#include "sim/factory.hh"

namespace ibp::suitebench {

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"fig6-par", sim::figure6Predictors(), 1.0, 4, false},
        {"btb-par", {"BTB", "BTB2b"}, 2.0, 4, false},
        {"fig7-timeline", sim::figure7Predictors(), 1.0, 4, true},
    };
    return table;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &workload : workloads())
        if (workload.name == name)
            return &workload;
    return nullptr;
}

unsigned
resolvedThreads(const Workload &workload)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(workload.threads, hw);
}

std::vector<workload::BenchmarkProfile>
seededSuite(unsigned workload_seed)
{
    std::vector<workload::BenchmarkProfile> suite =
        workload::standardSuite();
    // runSeedSweep()'s perturbation for sweep index workload_seed - 1.
    if (workload_seed > 0)
        for (auto &profile : suite)
            profile.program.seed ^=
                0x9e3779b97f4a7c15ULL * workload_seed >> 7;
    return suite;
}

sim::SuiteOptions
suiteOptions(const Workload &workload, bool timeline,
             const std::string &checkpoint_path)
{
    sim::SuiteOptions options;
    options.traceScale = workload.traceScale;
    options.threads = resolvedThreads(workload);
    if (!checkpoint_path.empty()) {
        options.checkpointPath = checkpoint_path;
        options.checkpointEvery = kCheckpointEvery;
    }
    if (timeline)
        options.engine.timeline.interval = kTimelineInterval;
    return options;
}

std::vector<std::string>
allLineupPredictors()
{
    std::vector<std::string> names;
    for (const Workload &workload : workloads())
        for (const std::string &name : workload.predictors)
            if (std::find(names.begin(), names.end(), name) == names.end())
                names.push_back(name);
    return names;
}

namespace {

std::vector<std::string>
stringArray(const util::JsonValue &value)
{
    std::vector<std::string> out;
    for (const auto &element : value.asArray())
        out.push_back(element.asString());
    return out;
}

} // namespace

std::string
loadReference(const std::string &path, const Workload &workload,
              unsigned workload_seed, Reference &reference)
{
    std::ifstream in(path);
    if (!in)
        return "cannot open reference " + path;
    const util::JsonValue doc = util::parseJson(in);
    if (!doc.has("workload") ||
        doc.get("workload").asString() != workload.name)
        return "reference " + path + " is not for " + workload.name;
    if (doc.get("trace_scale").asDouble() != workload.traceScale)
        return "reference " + path + " has another trace scale";
    reference.predictors = stringArray(doc.get("predictors"));
    reference.rows = stringArray(doc.get("rows"));
    if (reference.predictors != workload.predictors)
        return "reference " + path + " has another lineup";
    for (const auto &entry : doc.get("seeds").asArray()) {
        if (entry.get("seed").asUint() != workload_seed)
            continue;
        reference.missPercent.clear();
        reference.predictions.clear();
        for (const auto &row : entry.get("miss_percent").asArray()) {
            reference.missPercent.emplace_back();
            for (const auto &cell : row.asArray())
                reference.missPercent.back().push_back(cell.asDouble());
        }
        for (const auto &row : entry.get("predictions").asArray()) {
            reference.predictions.emplace_back();
            for (const auto &cell : row.asArray())
                reference.predictions.back().push_back(cell.asUint());
        }
        const std::size_t rows = reference.rows.size();
        const std::size_t cols = reference.predictors.size();
        bool shaped = reference.missPercent.size() == rows &&
                      reference.predictions.size() == rows;
        for (std::size_t r = 0; shaped && r < rows; ++r)
            shaped = reference.missPercent[r].size() == cols &&
                     reference.predictions[r].size() == cols;
        if (!shaped)
            return "reference " + path + " matrix is malformed";
        return "";
    }
    return "reference " + path + " has no workload seed " +
           std::to_string(workload_seed);
}

std::size_t
failedCells(const sim::SuiteResult &result, const Reference &reference)
{
    const std::size_t rows = reference.rows.size();
    const std::size_t cols = reference.predictors.size();
    if (result.rowNames != reference.rows ||
        result.predictorNames != reference.predictors ||
        result.cells.size() != rows)
        return rows * cols;
    std::size_t failed = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        if (result.cells[r].size() != cols) {
            failed += cols;
            continue;
        }
        for (std::size_t c = 0; c < cols; ++c) {
            const sim::CellResult &cell = result.cells[r][c];
            if (cell.missPercent != reference.missPercent[r][c] ||
                cell.predictions != reference.predictions[r][c])
                ++failed;
        }
    }
    return failed;
}

double
paperErrorPp(const Reference &reference)
{
    double sum = 0;
    unsigned count = 0;
    for (std::size_t c = 0; c < reference.predictors.size(); ++c) {
        const double paper = sim::paperAverageFor(reference.predictors[c]);
        if (paper < 0)
            continue;
        double average = 0;
        for (const auto &row : reference.missPercent)
            average += row[c];
        average /= static_cast<double>(reference.missPercent.size());
        sum += std::fabs(average - paper);
        ++count;
    }
    return count == 0 ? -1.0 : sum / count;
}

std::string
referenceJson(const Workload &workload,
              const std::vector<sim::SuiteResult> &per_seed)
{
    std::ostringstream out;
    {
        util::JsonWriter json(out, 1);
        json.beginObject();
        json.key("schema").value("suitebench-reference-v1");
        json.key("workload").value(workload.name);
        json.key("trace_scale").value(workload.traceScale);
        json.key("predictors").beginArray();
        for (const auto &name : workload.predictors)
            json.value(name);
        json.endArray();
        json.key("rows").beginArray();
        if (!per_seed.empty())
            for (const auto &row : per_seed.front().rowNames)
                json.value(row);
        json.endArray();
        json.key("seeds").beginArray();
        for (std::size_t s = 0; s < per_seed.size(); ++s) {
            json.beginObject();
            json.key("seed").value(static_cast<std::uint64_t>(s));
            json.key("miss_percent").beginArray();
            for (const auto &row : per_seed[s].cells) {
                json.beginArray();
                for (const auto &cell : row)
                    json.value(cell.missPercent);
                json.endArray();
            }
            json.endArray();
            json.key("predictions").beginArray();
            for (const auto &row : per_seed[s].cells) {
                json.beginArray();
                for (const auto &cell : row)
                    json.value(cell.predictions);
                json.endArray();
            }
            json.endArray();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    out << '\n';
    return out.str();
}

LoopCounts
predictorLoop(const trace::BranchRecord *records, std::size_t n,
              pred::IndirectPredictor &predictor)
{
    LoopCounts counts;
    counts.records = n;
    const bool observes = predictor.wantsObserve();
    for (std::size_t i = 0; i < n; ++i) {
        const trace::BranchRecord &record = records[i];
        if (record.isPredictedIndirect()) {
            ++counts.mtIndirect;
            const pred::Prediction prediction =
                predictor.predictAndUpdate(record.pc, record.target);
            if (prediction.hit(record.target))
                ++counts.hits;
            else
                ++counts.misses;
        }
        if (observes)
            predictor.observe(record);
    }
    return counts;
}

void
observeLoop(const trace::BranchRecord *records, std::size_t n,
            pred::IndirectPredictor &predictor)
{
    if (!predictor.wantsObserve())
        return;
    for (std::size_t i = 0; i < n; ++i)
        predictor.observe(records[i]);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(pct / 100.0 * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

void
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<SpanLog::Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<std::pair<std::string, double>>
SpanLog::selfSeconds() const
{
    const std::vector<Span> all = spans();
    std::map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &span : all)
        children[span.parent].push_back(&span);

    std::map<std::string, double> by_layer;
    for (const Span &span : all) {
        // Union of the children's intervals, clipped to the span.
        std::vector<std::pair<double, double>> covered;
        for (const Span *child : children[span.id])
            covered.emplace_back(std::max(child->begin, span.begin),
                                 std::min(child->end, span.end));
        std::sort(covered.begin(), covered.end());
        double busy = 0;
        double reach = span.begin;
        for (const auto &[begin, end] : covered) {
            const double from = std::max(begin, reach);
            if (end > from) {
                busy += end - from;
                reach = end;
            }
        }
        by_layer[span.layer] += (span.end - span.begin) - busy;
    }
    return {by_layer.begin(), by_layer.end()};
}

void
SpanLog::write(const std::string &path) const
{
    std::vector<obs::TraceEvent> events;
    for (const Span &span : spans()) {
        obs::TraceEvent event;
        event.phase = 'X';
        event.name = span.name;
        event.category = span.layer;
        event.tid = span.thread;
        event.timestampMicros = span.begin * 1e6;
        event.durationMicros = (span.end - span.begin) * 1e6;
        event.numberArgs = {{"span_id", static_cast<double>(span.id)},
                            {"parent_id",
                             static_cast<double>(span.parent)}};
        event.stringArgs = {{"run_id", runId_}, {"layer", span.layer}};
        events.push_back(std::move(event));
    }
    obs::writeTraceEventsFile(path, events);
}

ScopedSpan::ScopedSpan(SpanLog &log, std::string name, std::string layer,
                       std::uint64_t parent)
    : log_(log)
{
    span_.id = log.nextId();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.layer = std::move(layer);
    span_.thread = obs::threadTrackId();
    span_.begin = obs::wallSeconds();
}

ScopedSpan::~ScopedSpan()
{
    span_.end = obs::wallSeconds();
    log_.add(std::move(span_));
}

double
ScopedSpan::elapsed() const
{
    return obs::wallSeconds() - span_.begin;
}

} // namespace ibp::suitebench
