/**
 * @file
 * The common indirect-branch predictor interface and the shared
 * target-entry update policy.
 *
 * Per-record protocol: for every multi-target indirect branch a replay
 * calls predict(pc), then update(pc, actual); for *every* retired
 * branch (including that one) it then calls observe(record).  update()
 * therefore always sees the same history state as the predict() it
 * follows, and history registers advance in observe() — which
 * matches the paper's protocol where "the update
 * step starts by shifting the actual target into the PHR" *after* the
 * tables were trained with the pre-shift indices.
 *
 * Engine contract (see sim/engine.cc): the replay engine runs that
 * protocol at the predicted records only, and calls observe() there
 * and nowhere else (not at all when wantsObserve() is false).  A
 * predictor whose history reads other records takes history lanes
 * instead: it lists its registers in historyRegisters(), predicts on
 * the lanes' words in predictAndUpdateOn(), and is on the engine's
 * devirtualized type list, where a replay row folds each register
 * once per chunk (sim::ReplayRow).  The Target Cache, the PPM family,
 * Filtered-PPM and the perceptron do so.
 */

#ifndef IBP_PREDICTORS_PREDICTOR_HH_
#define IBP_PREDICTORS_PREDICTOR_HH_

#include <cstdint>
#include <string>

#include "util/sat_counter.hh"
#include "util/serde.hh"
#include "trace/branch_record.hh"
#include "obs/registry.hh"

namespace ibp::pred {

/** Result of a target lookup. */
struct Prediction
{
    bool valid = false;       ///< false: the predictor abstains
    trace::Addr target = 0;

    bool
    hit(trace::Addr actual) const
    {
        return valid && target == actual;
    }
};

/** Serialize a Prediction (hybrids checkpoint their last component
 *  results, which feed the selector update). */
inline void
savePrediction(util::StateWriter &writer, const Prediction &prediction)
{
    writer.writeBool(prediction.valid);
    writer.writeU64(prediction.target);
}

/** Restore a Prediction saved by savePrediction(). */
inline void
loadPrediction(util::StateReader &reader, Prediction &prediction)
{
    prediction.valid = reader.readBool();
    prediction.target = reader.readU64();
}

/** Abstract indirect-branch target predictor. */
class IndirectPredictor
{
  public:
    virtual ~IndirectPredictor() = default;

    /** Short display name ("BTB2b", "PPM-hyb", ...). */
    virtual std::string name() const = 0;

    /** Look up the predicted target of the MT indirect branch @p pc. */
    virtual Prediction predict(trace::Addr pc) = 0;

    /**
     * Train with the resolved target of the branch just predicted.
     * Always called immediately after predict() for the same branch.
     */
    virtual void update(trace::Addr pc, trace::Addr target) = 0;

    /**
     * predict() immediately followed by update(), fused into one
     * virtual call.  The replay engine always predicts and trains the
     * same branch back to back, so this is the call it actually makes;
     * the default shim makes it exactly equivalent to the two-call
     * protocol.  Every type on the engine's devirtualized list
     * (sim/engine.cc) overrides it so a predicted branch costs one
     * direct call, and most also skip work update() would redo: the
     * BTB family, GAp and the Target Cache resolve their table slot
     * once; Dpath, Cascade and Filtered-PPM consume the slots
     * predict() cached; ITTAGE trains on one lookup's per-component
     * (index, tag) slots and the perceptron on one scoring pass's
     * feature hashes.  An override must leave state and probe
     * counters byte-identical to the split calls (checked by
     * tests/test_one_pass_suite.cc and the lineup property tests).
     */
    virtual Prediction
    predictAndUpdate(trace::Addr pc, trace::Addr target)
    {
        const Prediction prediction = predict(pc);
        update(pc, target);
        return prediction;
    }

    /**
     * Observe a retired branch (advances path histories).  The
     * per-record protocol calls it for every record; the replay engine
     * only for the predicted ones (see the engine contract above).
     */
    virtual void observe(const trace::BranchRecord &record) = 0;

    /**
     * False iff observe() is a no-op for this predictor (BTB-family
     * predictors keep no path state).  The engine hoists this out of
     * its replay loop and skips the per-record virtual observe()
     * call; overriding it never changes any prediction.
     */
    virtual bool wantsObserve() const { return true; }

    /**
     * Copy this predictor's probe values into @p registry under
     * stable slash-separated names ("ppm/order_depth", ...).  Called
     * once per engine run, off the hot path; the default contributes
     * nothing.  In probes-off builds gated values read as zero but the
     * names still appear, keeping report schemas stable.
     */
    virtual void snapshotProbes(obs::ProbeRegistry &registry) const
    {
        (void)registry;
    }

    /** Storage cost in bits, for hardware-budget accounting. */
    virtual std::uint64_t storageBits() const = 0;

    /** Clear all state (tables, histories, counters). */
    virtual void reset() = 0;

    /**
     * Serialize every piece of architectural state — tables, history
     * registers, hysteresis counters, selection state — such that
     * loadState() into a freshly constructed predictor of the same
     * configuration reproduces future predictions bit-exactly.
     * Gated probe values are explicitly excluded (see saveProbes());
     * the default writes nothing, which is correct for stateless
     * predictors and keeps test doubles compiling.
     */
    virtual void saveState(util::StateWriter &writer) const
    {
        (void)writer;
    }

    /**
     * Restore state written by saveState() on a same-configured
     * predictor.  Decode failures — truncation, corruption, geometry
     * mismatch — latch on @p reader (never crash); callers check
     * reader.status() afterwards and must discard the predictor on
     * error, since a failed load leaves it partially written.
     */
    virtual void loadState(util::StateReader &reader) { (void)reader; }

    /**
     * Serialize instrumentation probe values (the gated counters that
     * feed snapshotProbes()).  Kept separate from saveState() so the
     * architectural stream is bit-identical across instrumented and
     * probe-free builds; implementations use fixed-width writes only,
     * so even this stream's *length* is build-invariant.
     */
    virtual void saveProbes(util::StateWriter &writer) const
    {
        (void)writer;
    }

    /** Restore probe values; a no-op (after consuming the fixed-width
     *  payload) in probe-free builds. */
    virtual void loadProbes(util::StateReader &reader) { (void)reader; }
};

/**
 * A BTB-like prediction entry: most-recent target plus the 2-bit
 * up/down counter the paper uses to gate target replacement ("the
 * target is updated on two consecutive misses").
 */
struct TargetEntry
{
    // Declaration order packs the entry into 16 bytes (target, then
    // the 6-byte counter, then the flag) — table footprint is replay
    // bandwidth, so entry size is a measured quantity, not taste.
    trace::Addr target = 0;
    util::SatCounter counter{2, 1};
    bool valid = false;

    /** Train with the resolved target under the hysteresis policy.
     *
     *  Written as selects rather than an if-chain: which arm runs
     *  depends on hash-indexed table contents, so the host CPU cannot
     *  predict it — the branchy form costs a mispredict on a large
     *  fraction of trains in every table-heavy predictor's hot loop.
     */
    void
    train(trace::Addr actual)
    {
        const unsigned cur = counter.value();
        const bool match = valid && target == actual;
        // Replace the target when the entry is empty or its hysteresis
        // has decayed to zero ("updated on two consecutive misses").
        const bool replace = !valid || (!match && cur == 0);
        const unsigned bumped = cur == counter.max() ? cur : cur + 1;
        // On the mismatch-decrement arm cur > 0, so cur - 1 is safe.
        counter.set(replace ? 1u : match ? bumped : cur - 1);
        target = replace ? actual : target;
        valid = true;
    }

    /** Storage cost of one entry in bits (target field width 64). */
    static constexpr std::uint64_t
    bits()
    {
        return 1 + 64 + 2;
    }
};

/** Serialize one TargetEntry — the shared codec for every table of
 *  them (BTB2b, GAp, Dpath, Cascade, Markov arenas). */
inline void
saveTargetEntry(util::StateWriter &writer, const TargetEntry &entry)
{
    writer.writeBool(entry.valid);
    writer.writeU64(entry.target);
    writer.writeU8(static_cast<std::uint8_t>(entry.counter.value()));
}

/** Restore one TargetEntry; counter values beyond the 2-bit range are
 *  corruption. */
inline void
loadTargetEntry(util::StateReader &reader, TargetEntry &entry)
{
    entry.valid = reader.readBool();
    entry.target = reader.readU64();
    const std::uint8_t count = reader.readU8();
    if (reader.ok() && count > entry.counter.max()) {
        reader.fail("saturating counter value out of range");
        return;
    }
    entry.counter.set(count);
}

} // namespace ibp::pred

#endif // IBP_PREDICTORS_PREDICTOR_HH_
