#include "sim/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ibp::sim {

namespace {

void
writeHeader(util::StateWriter &writer, std::string_view kind)
{
    writer.writeU32(kCheckpointMagic);
    writer.writeU16(kCheckpointVersion);
    writer.writeString(kind);
}

util::Status
readHeader(util::StateReader &reader, std::string &kind)
{
    const std::uint32_t magic = reader.readU32();
    if (!reader.ok())
        return reader.status();
    if (magic != kCheckpointMagic)
        return util::Status::Error(
            "not a checkpoint file (bad magic)");
    const std::uint16_t version = reader.readU16();
    if (reader.ok() && version > kCheckpointVersion)
        return util::Status::Error(
            "checkpoint format version " + std::to_string(version) +
            " is newer than this reader (" +
            std::to_string(kCheckpointVersion) + ")");
    kind = reader.readString();
    return reader.status();
}

void
writeMetaSection(util::StateWriter &writer, const CheckpointMeta &meta)
{
    writer.beginSection("meta");
    writer.writeString(meta.predictor);
    writer.writeString(meta.profile);
    writer.writeString(meta.fingerprint);
    writer.writeU64(meta.cursor);
    writer.endSection();
}

void
readMetaSection(util::StateReader &payload, CheckpointMeta &meta)
{
    meta.predictor = payload.readString();
    meta.profile = payload.readString();
    meta.fingerprint = payload.readString();
    meta.cursor = payload.readU64();
}

/** Byte blob as a string field (varint length + raw bytes). */
void
writeBlob(util::StateWriter &writer, std::string_view blob)
{
    writer.writeString(blob);
}

std::string
writerString(const util::StateWriter &writer)
{
    return std::string(
        reinterpret_cast<const char *>(writer.bytes().data()),
        writer.size());
}

/**
 * Finish decoding one architectural sub-payload: the writer and reader
 * must agree byte for byte, so both an error and leftover bytes mean
 * the blob does not belong to this configuration.
 */
util::Status
closePayload(const util::StateReader &payload, const char *what)
{
    if (!payload.ok())
        return util::Status::Error(std::string(what) + " section: " +
                                   payload.status().message());
    if (!payload.atEnd())
        return util::Status::Error(
            std::string(what) +
            " section has trailing bytes (configuration mismatch?)");
    return util::Status::Ok();
}

} // namespace

std::vector<std::uint8_t>
encodeSimCheckpoint(const CheckpointMeta &meta,
                    const pred::IndirectPredictor &predictor,
                    const ReplaySession &session,
                    const workload::Program *walker)
{
    util::StateWriter writer;
    writeHeader(writer, kCheckpointKindSim);
    writeMetaSection(writer, meta);

    writer.beginSection("predictor");
    predictor.saveState(writer);
    writer.endSection();

    writer.beginSection("engine");
    session.saveState(writer);
    writer.endSection();

    writer.beginSection("probes");
    predictor.saveProbes(writer);
    session.saveProbes(writer);
    writer.endSection();

    if (walker) {
        writer.beginSection("walker");
        walker->saveState(writer);
        writer.endSection();
    }
    return writer.bytes();
}

util::Status
walkSimCheckpoint(const std::vector<std::uint8_t> &bytes,
                  CheckpointMeta &meta,
                  std::vector<CheckpointSection> &sections)
{
    util::StateReader reader(bytes);
    std::string kind;
    if (util::Status status = readHeader(reader, kind); !status.ok())
        return status;
    if (kind != kCheckpointKindSim)
        return util::Status::Error(
            "not a simulation checkpoint (kind \"" + kind + "\")");
    sections.clear();
    std::string name;
    util::StateReader payload;
    while (reader.nextSection(name, payload)) {
        CheckpointSection section{name,
                                  std::string(payload.size(), '\0')};
        util::StateReader(payload).readBytes(section.payload.data(),
                                             section.payload.size());
        if (name == "meta") {
            readMetaSection(payload, meta);
            if (!payload.ok())
                return payload.status();
        }
        sections.push_back(std::move(section));
    }
    if (!reader.ok())
        return reader.status();
    for (const char *required :
         {"meta", "predictor", "engine", "probes"})
        if (std::none_of(sections.begin(), sections.end(),
                         [&](const CheckpointSection &section) {
                             return section.name == required;
                         }))
            return util::Status::Error(
                std::string("checkpoint has no ") + required +
                " section");
    return util::Status::Ok();
}

util::Status
restoreSimCheckpoint(const std::vector<std::uint8_t> &bytes,
                     CheckpointMeta &meta,
                     pred::IndirectPredictor &predictor,
                     ReplaySession &session, workload::Program *walker)
{
    util::StateReader reader(bytes);
    std::string kind;
    if (util::Status status = readHeader(reader, kind); !status.ok())
        return status;
    if (kind != kCheckpointKindSim)
        return util::Status::Error("not a simulation checkpoint (kind \"" +
                                   kind + "\")");

    bool saw_meta = false;
    bool saw_predictor = false;
    bool saw_engine = false;
    bool saw_probes = false;
    std::string name;
    util::StateReader payload;
    while (reader.nextSection(name, payload)) {
        if (name == "meta") {
            readMetaSection(payload, meta);
            saw_meta = true;
            if (util::Status status = closePayload(payload, "meta");
                !status.ok())
                return status;
        } else if (name == "predictor") {
            predictor.loadState(payload);
            saw_predictor = true;
            if (util::Status status = closePayload(payload, "predictor");
                !status.ok())
                return status;
        } else if (name == "engine") {
            session.loadState(payload);
            saw_engine = true;
            if (util::Status status = closePayload(payload, "engine");
                !status.ok())
                return status;
        } else if (name == "probes") {
            predictor.loadProbes(payload);
            session.loadProbes(payload);
            saw_probes = true;
            if (util::Status status = closePayload(payload, "probes");
                !status.ok())
                return status;
        } else if (name == "walker" && walker) {
            walker->loadState(payload);
            if (util::Status status = closePayload(payload, "walker");
                !status.ok())
                return status;
        }
        // Unknown sections (and a walker nobody asked for) skip
        // wholesale — that is what the length-prefixed framing buys.
    }
    if (!reader.ok())
        return reader.status();
    if (!saw_meta || !saw_predictor || !saw_engine || !saw_probes)
        return util::Status::Error(
            "checkpoint is missing a required section");
    return util::Status::Ok();
}

PartialCell
capturePartialCell(std::string row, std::string col,
                   std::uint64_t cursor,
                   const pred::IndirectPredictor &predictor,
                   const ReplaySession &session)
{
    PartialCell partial;
    partial.valid = true;
    partial.row = std::move(row);
    partial.col = std::move(col);
    partial.cursor = cursor;

    util::StateWriter predictor_writer;
    predictor.saveState(predictor_writer);
    partial.predictorState = writerString(predictor_writer);

    util::StateWriter engine_writer;
    session.saveState(engine_writer);
    partial.engineState = writerString(engine_writer);

    util::StateWriter probe_writer;
    predictor.saveProbes(probe_writer);
    session.saveProbes(probe_writer);
    partial.probeState = writerString(probe_writer);
    return partial;
}

bool
restorePartialCell(const PartialCell &partial,
                   pred::IndirectPredictor &predictor,
                   ReplaySession &session)
{
    if (!partial.valid)
        return false;
    const auto restore = [](const std::string &blob, auto &&load) {
        util::StateReader reader(
            reinterpret_cast<const std::uint8_t *>(blob.data()),
            blob.size());
        load(reader);
        return reader.ok() && reader.atEnd();
    };
    if (!restore(partial.predictorState, [&](util::StateReader &r) {
            predictor.loadState(r);
        }))
        return false;
    if (!restore(partial.engineState, [&](util::StateReader &r) {
            session.loadState(r);
        }))
        return false;
    return restore(partial.probeState, [&](util::StateReader &r) {
        predictor.loadProbes(r);
        session.loadProbes(r);
    });
}

const CompletedCell *
SuiteProgress::find(const std::string &row, const std::string &col) const
{
    for (const auto &cell : cells)
        if (cell.row == row && cell.col == col)
            return &cell;
    return nullptr;
}

std::string
suiteFingerprint(const std::vector<workload::BenchmarkProfile> &profiles,
                 const std::vector<std::string> &predictor_names,
                 const SuiteOptions &options)
{
    // %a round-trips doubles exactly, so nearby scales never alias.
    char scale[32];
    char size[32];
    std::snprintf(scale, sizeof(scale), "%a", options.traceScale);
    std::snprintf(size, sizeof(size), "%a", options.factory.sizeScale);
    // The engine's RAS is fixed at 16 entries; "ras=1:16" keeps the
    // text of files written while it was configurable, so they resume.
    std::ostringstream out;
    out << "v" << kCheckpointVersion << "|scale=" << scale
        << "|size=" << size << "|ras=1:16"
        << "|persite=" << (options.engine.perSiteStats ? 1 : 0)
        << "|timeline=" << options.engine.timeline.interval << ":"
        << (options.engine.timeline.sampleProbes ? 1 : 0);
    for (const auto &profile : profiles)
        out << "|row=" << profile.fullName() << ":"
            << profile.program.seed << ":" << profile.records;
    for (const auto &name : predictor_names)
        out << "|col=" << name;
    return out.str();
}

std::vector<std::uint8_t>
encodeSuiteProgress(const SuiteProgress &progress)
{
    util::StateWriter writer;
    writeHeader(writer, kCheckpointKindSuite);

    writer.beginSection("meta");
    writer.writeString(progress.fingerprint);
    writer.endSection();

    for (const auto &cell : progress.cells) {
        writer.beginSection("cell");
        writer.writeString(cell.row);
        writer.writeString(cell.col);
        writer.writeDouble(cell.cell.missPercent);
        writer.writeDouble(cell.cell.noPredictionPercent);
        writer.writeU64(cell.cell.predictions);
        writer.writeDouble(cell.cell.wallSeconds);
        writer.writeDouble(cell.cell.cpuSeconds);
        cell.probes.saveState(writer);
        cell.timeline.saveState(writer);
        writer.endSection();
    }

    // Each section is a self-contained cell snapshot, so a reader that
    // keeps only one of them still resumes that cell correctly.
    auto write_partial = [&writer](const PartialCell &partial) {
        writer.beginSection("partial");
        writer.writeString(partial.row);
        writer.writeString(partial.col);
        writer.writeU64(partial.cursor);
        writeBlob(writer, partial.predictorState);
        writeBlob(writer, partial.engineState);
        writeBlob(writer, partial.probeState);
        writer.endSection();
    };
    for (const auto &partial : progress.partials)
        if (partial.valid)
            write_partial(partial);
    if (progress.partial.valid)
        write_partial(progress.partial);
    return writer.bytes();
}

util::Status
decodeSuiteProgress(const std::vector<std::uint8_t> &bytes,
                    SuiteProgress &progress)
{
    progress = SuiteProgress{};
    util::StateReader reader(bytes);
    std::string kind;
    if (util::Status status = readHeader(reader, kind); !status.ok())
        return status;
    if (kind != kCheckpointKindSuite)
        return util::Status::Error("not a suite progress file (kind \"" +
                                   kind + "\")");

    bool saw_meta = false;
    std::string name;
    util::StateReader payload;
    while (reader.nextSection(name, payload)) {
        if (name == "meta") {
            progress.fingerprint = payload.readString();
            saw_meta = true;
            if (util::Status status = closePayload(payload, "meta");
                !status.ok())
                return status;
        } else if (name == "cell") {
            CompletedCell cell;
            cell.row = payload.readString();
            cell.col = payload.readString();
            cell.cell.missPercent = payload.readDouble();
            cell.cell.noPredictionPercent = payload.readDouble();
            cell.cell.predictions = payload.readU64();
            cell.cell.wallSeconds = payload.readDouble();
            cell.cell.cpuSeconds = payload.readDouble();
            cell.probes.loadState(payload);
            cell.timeline.loadState(payload);
            if (util::Status status = closePayload(payload, "cell");
                !status.ok())
                return status;
            progress.cells.push_back(std::move(cell));
        } else if (name == "partial") {
            PartialCell partial;
            partial.row = payload.readString();
            partial.col = payload.readString();
            partial.cursor = payload.readU64();
            partial.predictorState = payload.readString();
            partial.engineState = payload.readString();
            partial.probeState = payload.readString();
            if (util::Status status = closePayload(payload, "partial");
                !status.ok())
                return status;
            partial.valid = true;
            progress.partials.push_back(std::move(partial));
        }
    }
    if (!reader.ok())
        return reader.status();
    if (!saw_meta)
        return util::Status::Error(
            "suite progress file has no meta section");
    return util::Status::Ok();
}

util::Status
checkpointKind(const std::vector<std::uint8_t> &bytes, std::string &kind)
{
    util::StateReader reader(bytes);
    return readHeader(reader, kind);
}

util::Status
writeCheckpointFile(const std::string &path,
                    const std::vector<std::uint8_t> &bytes)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return util::Status::Error("cannot open " + tmp +
                                       " for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            return util::Status::Error("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return util::Status::Error("cannot rename " + tmp + " over " +
                                   path);
    }
    return util::Status::Ok();
}

util::Status
readCheckpointFile(const std::string &path,
                   std::vector<std::uint8_t> &bytes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return util::Status::Error("cannot open " + path);
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < 0)
        return util::Status::Error("cannot size " + path);
    in.seekg(0, std::ios::beg);
    bytes.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    if (in.gcount() != size)
        return util::Status::Error("short read from " + path);
    return util::Status::Ok();
}

void
embedCheckpoint(trace::TraceWriter &writer,
                const std::vector<std::uint8_t> &bytes)
{
    writer.writeChunk(
        trace::kChunkCheckpoint,
        std::string_view(reinterpret_cast<const char *>(bytes.data()),
                         bytes.size()));
}

} // namespace ibp::sim
