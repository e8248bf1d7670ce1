/**
 * @file
 * Target-selection behaviours for synthetic branch sites.
 *
 * The paper's benchmarks differ in *how* each indirect branch's target
 * depends on recent control-flow history: some branches are
 * monomorphic, some have low entropy (the target changes rarely), and
 * the interesting ones correlate with either the all-branch path (PB)
 * or the indirect-branch-only path (PIB) at some order k
 * (Kalamatianos & Kaeli's companion TR, ref [12]).  Each behaviour
 * below realizes one of these statistical classes with explicit knobs,
 * which is what lets the synthetic suite reproduce the paper's
 * predictor ranking without the original Alpha traces.
 */

#ifndef IBP_WORKLOAD_BEHAVIOR_HH_
#define IBP_WORKLOAD_BEHAVIOR_HH_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/serde.hh"

namespace ibp::workload {

/** Which global path stream a correlated behaviour reads. */
enum class StreamKind : std::uint8_t
{
    AllBranches, ///< every branch contributes a symbol (PB)
    MtIndirect,  ///< only multi-target indirect branches (PIB)
};

/**
 * The walker-maintained ground-truth path state behaviours may read.
 * Symbols are the low bits of each branch's resolved next address,
 * which is exactly the information hardware path-history registers
 * capture.
 *
 * Each stream is a fixed kCapacity-slot ring (head index + length), so
 * a push is one store and two index updates with no allocation.
 */
class PathState
{
  public:
    /** Most symbols a stream can retain; depth may not exceed it. */
    static constexpr std::size_t kCapacity = 64;

    explicit PathState(std::size_t depth = 32) : depth_(depth)
    {
        fatal_if(depth > kCapacity, "path depth ", depth,
                 " exceeds the ring capacity ", kCapacity);
    }

    /** Append one symbol to the stream (oldest falls off). */
    void
    push(StreamKind stream, std::uint64_t symbol)
    {
        Ring &ring = rings_[index(stream)];
        ring.head = (ring.head + 1) & kMask;
        ring.slots[ring.head] = symbol;
        if (ring.length < depth_)
            ++ring.length;
    }

    /**
     * The @p i-th most recent symbol of a stream (0 = most recent).
     * Returns 0 when the stream is shorter than i+1 (cold start).
     */
    std::uint64_t
    recent(StreamKind stream, std::size_t i) const
    {
        const Ring &ring = rings_[index(stream)];
        if (i >= ring.length)
            return 0;
        return ring.slots[(ring.head - i) & kMask];
    }

    std::size_t length(StreamKind stream) const
    {
        return rings_[index(stream)].length;
    }

    /** Serialize both streams: PB then PIB, each length + oldest-first. */
    void
    saveState(util::StateWriter &writer) const
    {
        for (StreamKind stream :
             {StreamKind::AllBranches, StreamKind::MtIndirect}) {
            const std::size_t n = length(stream);
            writer.writeVarint(n);
            for (std::size_t i = n; i-- > 0;)
                writer.writeU64(recent(stream, i));
        }
    }

    /** Restore saved streams; lengths must fit this state's depth. */
    void
    loadState(util::StateReader &reader)
    {
        for (StreamKind stream :
             {StreamKind::AllBranches, StreamKind::MtIndirect}) {
            rings_[index(stream)] = Ring{};
            const std::uint64_t length = reader.readVarint();
            if (reader.ok() && length > depth_) {
                reader.fail("path stream longer than its depth");
                return;
            }
            for (std::uint64_t i = 0; i < length && reader.ok(); ++i)
                push(stream, reader.readU64());
        }
    }

  private:
    static constexpr std::size_t kMask = kCapacity - 1;
    static_assert((kCapacity & kMask) == 0,
                  "ring capacity must be a power of two");

    struct Ring
    {
        std::array<std::uint64_t, kCapacity> slots{};
        std::size_t head = kMask; ///< slot of the newest symbol
        std::size_t length = 0;
    };

    static std::size_t
    index(StreamKind stream)
    {
        return static_cast<std::size_t>(stream);
    }

    std::size_t depth_;
    std::array<Ring, 2> rings_; ///< indexed by StreamKind
};

/**
 * Abstract target-selection process.  Given the current path state and
 * the site's target count, yields the index of the next target.
 */
class Behavior
{
  public:
    virtual ~Behavior() = default;

    /**
     * Choose the next target index.
     * @param path  ground-truth path state
     * @param num_targets the site's target-set size (>= 1)
     * @param rng   the walker's RNG (for noise draws)
     */
    virtual std::size_t nextTarget(const PathState &path,
                                   std::size_t num_targets,
                                   util::Rng &rng) = 0;

    /** Behaviour class name, for debug dumps. */
    virtual std::string name() const = 0;

    /**
     * Serialize mutable behaviour state.  Most behaviours are pure
     * functions of (path, rng) and write nothing; the stateful ones
     * (phased dwell position, self-correlation ring) override.
     */
    virtual void saveState(util::StateWriter &writer) const
    {
        (void)writer;
    }

    /** Restore state written by saveState(). */
    virtual void loadState(util::StateReader &reader) { (void)reader; }
};

/** Always target 0, with a small noise probability of straying. */
class MonomorphicBehavior : public Behavior
{
  public:
    explicit MonomorphicBehavior(double noise = 0.0) : noise_(noise) {}

    std::size_t nextTarget(const PathState &path, std::size_t num_targets,
                           util::Rng &rng) override;
    std::string name() const override { return "monomorphic"; }

  private:
    double noise_;
};

/**
 * Low-entropy behaviour: the target stays fixed for a geometrically
 * distributed dwell, then moves to a fresh random target.  These are
 * the branches a plain BTB (and the Cascade filter) predicts well.
 */
class PhasedBehavior : public Behavior
{
  public:
    /** @param mean_dwell expected executions between target changes */
    explicit PhasedBehavior(double mean_dwell)
        : switchProb(mean_dwell > 1 ? 1.0 / mean_dwell : 1.0)
    {}

    std::size_t nextTarget(const PathState &path, std::size_t num_targets,
                           util::Rng &rng) override;
    std::string name() const override { return "phased"; }

    void saveState(util::StateWriter &writer) const override
    {
        writer.writeVarint(current_);
    }

    void loadState(util::StateReader &reader) override
    {
        current_ = static_cast<std::size_t>(reader.readVarint());
    }

  private:
    double switchProb;
    std::size_t current_ = 0;
};

/**
 * Path-correlated behaviour: the target is a fixed (site-keyed) hash
 * of @c order symbols of one stream starting @c offset symbols back,
 * quantized to @c symbolBits bits each, with probability @c noise of
 * a uniform draw instead.  An order-k PIB behaviour is exactly an
 * order-k Markov source over the indirect-target alphabet — the
 * structure PPM is designed to capture.  A non-zero offset creates
 * *long-range* correlation (the informative targets sit deep in the
 * path), which separates predictors by history reach: a site with
 * offset 7 is invisible to a 5-target history but learnable by the
 * paper's order-10 PPM.
 */
class PathCorrelatedBehavior : public Behavior
{
  public:
    PathCorrelatedBehavior(StreamKind stream, unsigned order,
                           unsigned symbol_bits, double noise,
                           std::uint64_t site_key, unsigned offset = 0);

    std::size_t nextTarget(const PathState &path, std::size_t num_targets,
                           util::Rng &rng) override;
    std::string name() const override;

    StreamKind stream() const { return stream_; }
    unsigned order() const { return order_; }
    unsigned offset() const { return offset_; }

  private:
    StreamKind stream_;
    unsigned order_;
    unsigned symbolBits;
    double noise_;
    std::uint64_t siteKey;
    unsigned offset_;
};

/**
 * Sparsely path-correlated behaviour: the target depends on an
 * explicit *set* of path positions (taps) rather than a contiguous
 * window.  This is the Zouzias et al. sparse long-range correlation
 * shape: only a few informative branches, scattered deep in the path,
 * carry the signal, and everything between them is noise.  Predictors
 * that hash a contiguous history window of depth d capture a tap only
 * when d exceeds the tap position, so sites with spread-out taps are
 * exactly where context-depth-limited predictors diverge — the
 * adversarial fuzzer's richest hunting ground for ranking inversions.
 */
class SparseCorrelatedBehavior : public Behavior
{
  public:
    SparseCorrelatedBehavior(StreamKind stream,
                             std::vector<unsigned> taps,
                             unsigned symbol_bits, double noise,
                             std::uint64_t site_key);

    std::size_t nextTarget(const PathState &path, std::size_t num_targets,
                           util::Rng &rng) override;
    std::string name() const override;

    const std::vector<unsigned> &taps() const { return taps_; }

  private:
    StreamKind stream_;
    std::vector<unsigned> taps_;
    unsigned symbolBits;
    double noise_;
    std::uint64_t siteKey;
};

/**
 * Matcher-derived behaviour: replays the automaton-state sequence of a
 * Morris-Pratt / KMP run (see kmp.hh) as an indirect-target stream —
 * a threaded-code dispatch on the matcher state.  The state cycle is
 * precomputed at construction and walked deterministically, so the
 * satCounterMisses()/analytic*() closed forms in kmp.hh are exact
 * oracles for the resulting trace.  Noise-free and rng-free.
 */
class MatcherBehavior : public Behavior
{
  public:
    /** @param pattern non-empty pattern; @param text searched text;
     *  @param kmp strong (KMP) vs weak (MP) failure function. */
    MatcherBehavior(const std::string &pattern, const std::string &text,
                    bool kmp);

    std::size_t nextTarget(const PathState &path, std::size_t num_targets,
                           util::Rng &rng) override;
    std::string name() const override;

    /** Length of the precomputed state cycle. */
    std::size_t cycleLength() const { return states_.size(); }

    void saveState(util::StateWriter &writer) const override
    {
        writer.writeVarint(pos_);
    }

    void loadState(util::StateReader &reader) override
    {
        const std::uint64_t pos = reader.readVarint();
        if (reader.ok() && pos >= states_.size()) {
            reader.fail("matcher cursor beyond its state cycle");
            return;
        }
        pos_ = static_cast<std::size_t>(pos);
    }

  private:
    bool kmp_;
    std::vector<std::size_t> states_;
    std::size_t pos_ = 0;
};

/**
 * Self-correlated behaviour: the next target depends on the site's own
 * last @c order target indices (a per-branch Markov chain, e.g. a
 * state machine driven switch).  Global-history predictors capture it
 * indirectly when the site is hot.
 */
class SelfCorrelatedBehavior : public Behavior
{
  public:
    SelfCorrelatedBehavior(unsigned order, double noise,
                           std::uint64_t site_key);

    std::size_t nextTarget(const PathState &path, std::size_t num_targets,
                           util::Rng &rng) override;
    std::string name() const override { return "self"; }

    void saveState(util::StateWriter &writer) const override
    {
        writer.writeVarint(own_.size());
        for (std::size_t index : own_)
            writer.writeVarint(index);
    }

    void loadState(util::StateReader &reader) override
    {
        own_.clear();
        const std::uint64_t length = reader.readVarint();
        if (reader.ok() && length > order_) {
            reader.fail("self-correlation ring longer than its order");
            return;
        }
        for (std::uint64_t i = 0; i < length && reader.ok(); ++i)
            own_.push_back(
                static_cast<std::size_t>(reader.readVarint()));
    }

  private:
    unsigned order_;
    double noise_;
    std::uint64_t siteKey;
    std::deque<std::size_t> own_;
};

/** Uniformly random target: the unpredictable-entropy floor. */
class UniformBehavior : public Behavior
{
  public:
    std::size_t nextTarget(const PathState &path, std::size_t num_targets,
                           util::Rng &rng) override;
    std::string name() const override { return "uniform"; }
};

/** Mixing function used by the correlated behaviours (splittable). */
std::uint64_t mixHash(std::uint64_t key, std::uint64_t value);

} // namespace ibp::workload

#endif // IBP_WORKLOAD_BEHAVIOR_HH_
