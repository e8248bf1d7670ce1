/**
 * @file
 * Checkpoint containers: whole-simulation snapshots and resumable
 * suite progress, in one versioned on-disk format ("IBPC").
 *
 * Two blob kinds share the header (magic, version, kind string):
 *
 *  - "sim": one full simulation snapshot — predictor tables, engine
 *    state (metrics + RAS), probe counters, replay cursor, and
 *    optionally the synthetic workload walker.  Restoring it into
 *    freshly built objects of the same configuration reproduces every
 *    future prediction bit-exactly (tests/test_checkpoint_equivalence
 *    is the proof).
 *
 *  - "suite": a suite runner's progress file — the fingerprint of the
 *    exact matrix being computed, every completed cell (results plus
 *    its probe registry), and a mid-replay snapshot of every in-flight
 *    cell.  An interrupted bench run restarted with resume=true skips
 *    completed cells and continues the partial ones, producing a
 *    report identical (up to timing) to an uninterrupted run.
 *
 * Checkpoint files are untrusted input: every decode path returns a
 * util::Status instead of crashing, and the suite runner downgrades a
 * corrupt or mismatched resume file to a warn() + fresh run.
 */

#ifndef IBP_SIM_CHECKPOINT_HH_
#define IBP_SIM_CHECKPOINT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "trace/trace_io.hh"
#include "obs/registry.hh"
#include "workload/profiles.hh"
#include "workload/program.hh"
#include "predictors/predictor.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"

namespace ibp::sim {

/** Magic number opening every checkpoint blob ("IBPC", little-endian). */
inline constexpr std::uint32_t kCheckpointMagic = 0x43504249;

/** Current checkpoint format version. */
inline constexpr std::uint16_t kCheckpointVersion = 1;

/** Blob kind strings stored right after the version. */
inline constexpr const char *kCheckpointKindSim = "sim";
inline constexpr const char *kCheckpointKindSuite = "suite";

/**
 * Identification carried by a "sim" snapshot so a restore can verify
 * it is feeding the bytes to compatibly configured objects before any
 * state is touched.
 */
struct CheckpointMeta
{
    std::string predictor;   ///< factory name ("PPM-hyb", ...)
    std::string profile;     ///< profile full name ("" when traceless)
    std::string fingerprint; ///< free-form configuration fingerprint
    std::uint64_t cursor = 0; ///< records consumed when snapshotted
};

/**
 * Encode one full simulation snapshot.  The probes section uses only
 * fixed-width writes (see IndirectPredictor::saveProbes), so the blob
 * layout — including every section length — is identical across
 * instrumented and probe-free builds.
 * @param walker when non-null, the synthetic workload walker's state
 *        is embedded too (for checkpointing generation mid-stream)
 */
std::vector<std::uint8_t>
encodeSimCheckpoint(const CheckpointMeta &meta,
                    const pred::IndirectPredictor &predictor,
                    const ReplaySession &session,
                    const workload::Program *walker = nullptr);

/**
 * Decode just the header and meta section of a "sim" blob (cheap;
 * nothing else is touched).  Callers check the meta against their own
 * configuration before committing to a full restore.
 */
util::Status decodeSimCheckpointMeta(const std::uint8_t *data,
                                     std::size_t size,
                                     CheckpointMeta &meta);

inline util::Status
decodeSimCheckpointMeta(const std::vector<std::uint8_t> &bytes,
                        CheckpointMeta &meta)
{
    return decodeSimCheckpointMeta(bytes.data(), bytes.size(), meta);
}

/**
 * Restore a "sim" snapshot into same-configured objects.  On error the
 * targets are partially written and must be discarded (rebuild from
 * the factory); on success every future prediction matches the
 * snapshotted run bit for bit.
 * @param walker must be non-null iff the blob has a walker section
 *        the caller wants restored; a present section with a null
 *        walker is skipped
 */
util::Status
restoreSimCheckpoint(const std::vector<std::uint8_t> &bytes,
                     CheckpointMeta &meta,
                     pred::IndirectPredictor &predictor,
                     ReplaySession &session,
                     workload::Program *walker = nullptr);

/** One finished (row, column) cell recorded in a suite progress file. */
struct CompletedCell
{
    std::string row; ///< benchmark full name
    std::string col; ///< predictor name
    CellResult cell;
    obs::ProbeRegistry probes;
    /** The cell's sampled timeline (empty when sampling was off), so
     *  a resumed run reproduces the uninterrupted run's timeline
     *  section byte for byte. */
    obs::Timeline timeline;
};

/**
 * A mid-replay snapshot of one cell in flight when the progress file
 * was last written.  The three state blobs are opaque here; the runner
 * feeds them back through loadState / loadProbes on objects it builds
 * itself.
 */
struct PartialCell
{
    bool valid = false;
    std::string row;
    std::string col;
    std::uint64_t cursor = 0;    ///< trace records already replayed
    std::string predictorState;  ///< IndirectPredictor::saveState bytes
    std::string engineState;     ///< ReplaySession::saveState bytes
    std::string probeState;      ///< saveProbes bytes (predictor+RAS)
};

/** Snapshot an in-flight cell into a PartialCell. */
PartialCell capturePartialCell(std::string row, std::string col,
                               std::uint64_t cursor,
                               const pred::IndirectPredictor &predictor,
                               const ReplaySession &session);

/**
 * Feed a PartialCell's blobs back into freshly built objects.
 * @retval false the blobs are corrupt or belong to a different
 *         configuration; the targets must be rebuilt and the cell
 *         replayed from the start
 */
bool restorePartialCell(const PartialCell &partial,
                        pred::IndirectPredictor &predictor,
                        ReplaySession &session);

/** Everything a suite progress file holds. */
struct SuiteProgress
{
    std::string fingerprint; ///< must match suiteFingerprint() to resume
    std::vector<CompletedCell> cells;
    /** Every in-flight cell's latest snapshot, one "partial" section
     *  each; the decoder collects every such section here. */
    std::vector<PartialCell> partials;
    /**
     * Encode-only compatibility slot for writers that hold a single
     * in-flight cell: written as one more "partial" section when
     * valid, decoded into partials like the rest (never back here).
     */
    PartialCell partial;

    /** Completed-cell lookup; nullptr when (row, col) isn't recorded. */
    const CompletedCell *find(const std::string &row,
                              const std::string &col) const;
};

/**
 * Canonical fingerprint of a suite computation: everything that can
 * change a matrix number — profiles (name, seed, record count),
 * predictor line-up, trace scale, factory and engine configuration.
 * Checkpoint options themselves are excluded (they only change when
 * results are written, never what they are).
 */
std::string
suiteFingerprint(const std::vector<workload::BenchmarkProfile> &profiles,
                 const std::vector<std::string> &predictor_names,
                 const SuiteOptions &options);

/** Encode a progress file blob. */
std::vector<std::uint8_t>
encodeSuiteProgress(const SuiteProgress &progress);

/** Decode a progress file blob; @p progress is cleared first. */
util::Status decodeSuiteProgress(const std::vector<std::uint8_t> &bytes,
                                 SuiteProgress &progress);

/** Read a blob's kind string ("sim" / "suite") from its header. */
util::Status checkpointKind(const std::vector<std::uint8_t> &bytes,
                            std::string &kind);

/**
 * Write @p bytes to @p path atomically: the bytes land in a ".tmp"
 * sibling first and are renamed over the target, so a crash mid-write
 * can never leave a half-written checkpoint under the real name.
 */
util::Status writeCheckpointFile(const std::string &path,
                                 const std::vector<std::uint8_t> &bytes);

/** Read a whole checkpoint file. */
util::Status readCheckpointFile(const std::string &path,
                                std::vector<std::uint8_t> &bytes);

/**
 * Embed a checkpoint blob into a binary trace as a kChunkCheckpoint
 * chunk, so a trace file can carry the simulation state that produced
 * its suffix.  Extract with TraceReader::onChunk.
 */
void embedCheckpoint(trace::TraceWriter &writer,
                     const std::vector<std::uint8_t> &bytes);

} // namespace ibp::sim

#endif // IBP_SIM_CHECKPOINT_HH_
