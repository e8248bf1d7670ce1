/**
 * @file
 * Table templates shared by the predictors.
 *
 * DirectTable<Entry> models a tagless, direct-mapped prediction table
 * (BTB, PHT, Markov table).  AssocTable<Entry> models a tagged,
 * set-associative table with true-LRU replacement (the Cascade
 * predictor's PHTs and the tagged PPM variant).
 *
 * Index reduction: callers hand reduce() an arbitrary hash and get a
 * valid slot back — a single AND on power-of-two geometries, a modulo
 * otherwise (the two are identical for power-of-two sizes, so the
 * fast path changes no simulated number).  Per-access bounds checks
 * are compiled in only when IBP_CHECKED_TABLES is defined (the CMake
 * option of the same name; on by default outside Release builds and
 * in the sanitizer CI jobs) — geometry validation in constructors is
 * unconditional.
 */

#ifndef IBP_UTIL_TABLE_HH_
#define IBP_UTIL_TABLE_HH_

#include <cstdint>
#include <vector>

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/probe.hh"
#include "util/serde.hh"

#ifdef IBP_CHECKED_TABLES
/** Hot-path table assertion: active only in checked builds. */
#define ibp_table_check(cond, ...) panic_if(cond, __VA_ARGS__)
#else
#define ibp_table_check(cond, ...)                                        \
    do {                                                                  \
    } while (0)
#endif

namespace ibp::util {

/**
 * Tagless direct-mapped table.  The caller supplies a pre-computed
 * index (usually via reduce()); entries are default-constructed.
 */
template <typename Entry>
class DirectTable
{
  public:
    explicit DirectTable(std::size_t entries)
        : entries_(entries),
          mask_(isPowerOf2(entries) ? entries - 1 : 0)
    {
        panic_if(entries == 0, "DirectTable needs at least one entry");
    }

    std::size_t size() const { return entries_.size(); }

    /** Reduce an arbitrary hash to a valid index: masked when the
     *  size is a power of two, modulo otherwise. */
    std::uint64_t
    reduce(std::uint64_t hash) const
    {
        return mask_ ? (hash & mask_) : (hash % entries_.size());
    }

    Entry &
    at(std::uint64_t index)
    {
        ibp_table_check(index >= entries_.size(), "DirectTable index ",
                        index, " out of range (size ", entries_.size(),
                        ")");
        return entries_[index];
    }

    const Entry &
    at(std::uint64_t index) const
    {
        ibp_table_check(index >= entries_.size(), "DirectTable index ",
                        index, " out of range (size ", entries_.size(),
                        ")");
        return entries_[index];
    }

    void
    reset()
    {
        for (auto &e : entries_)
            e = Entry{};
    }

    /** Serialize every entry via the @p save codec (checkpointing).
     *  The entry count is written so loadState() can reject a
     *  geometry mismatch. */
    template <typename SaveEntry>
    void
    saveState(StateWriter &writer, SaveEntry &&save) const
    {
        writer.writeVarint(entries_.size());
        for (const Entry &e : entries_)
            save(writer, e);
    }

    /** Restore entries saved with a matching codec. */
    template <typename LoadEntry>
    void
    loadState(StateReader &reader, LoadEntry &&load)
    {
        const std::uint64_t entries = reader.readVarint();
        if (reader.ok() && entries != entries_.size()) {
            reader.fail("DirectTable entry count mismatch");
            return;
        }
        for (Entry &e : entries_)
            load(reader, e);
    }

  private:
    std::vector<Entry> entries_;
    std::uint64_t mask_;
};

/**
 * An AssocTable address, (set, tag), and the way a probe resolved for
 * it.  A predictor keeps its slot from predict to update so the update
 * skips the second tag scan.
 */
struct Slot
{
    /** The way of a tag miss. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    std::uint64_t set = 0;
    std::uint64_t tag = 0;
    std::size_t way = kNoWay;
    bool resolved = false; ///< way is current for (set, tag)
};

/**
 * Tagged, set-associative table with true-LRU replacement.
 *
 * Any positive set count is allowed (callers reduce their hash via
 * reduce(), which degrades to modulo off powers of two), which lets
 * budget-constrained geometries like the Cascade predictor's 240-set
 * PHTs be modelled exactly.  Lookup/insert use a (set index, tag) pair
 * computed by the caller so different predictors can use different
 * index/tag hash functions.
 *
 * Storage is a structure-of-arrays arena: the valid bits, tags, LRU
 * stamps and payload entries live in four contiguous planes rather
 * than one array-of-structs line vector.  A way scan then walks a
 * handful of adjacent tag words (branch-free select over the set's
 * slice) instead of striding over interleaved payload bytes.  The
 * serialized byte stream interleaves the planes per line, exactly
 * matching the historical array-of-structs layout, so checkpoints are
 * unaffected.
 *
 * Slot protocol, the one way callers reach a line:
 *  - probe(set, tag) finds the way, promotes it to MRU or records the
 *    conflict-miss probe, and returns a resolved Slot;
 *  - revisit(slot) is the update side: it reuses a resolved slot's way
 *    or rescans an unresolved one, promotes it or records the miss
 *    again, unresolves the slot and returns the entry (null on a miss);
 *  - insert(slot, entry) fills the LRU victim of the slot's set.
 * lookup() is probe() + at().  Reusing a resolved way is exact as long
 * as nothing is inserted into the table between the probe and the
 * revisit, which every predict/update pair guarantees; a slot that is
 * unresolved (fresh, after a checkpoint restore, or already revisited)
 * is rescanned, so both paths touch, note and evict identically.
 */
template <typename Entry>
class AssocTable
{
  public:
    AssocTable(std::size_t sets, std::size_t ways)
        : numSets(sets), numWays(ways),
          setMask_(isPowerOf2(sets) ? sets - 1 : 0),
          valid_(sets * ways, 0), tags_(sets * ways, 0),
          lastUse_(sets * ways, 0), entries_(sets * ways)
    {
        panic_if(sets == 0 || ways == 0, "AssocTable: empty geometry");
    }

    std::size_t sets() const { return numSets; }
    std::size_t ways() const { return numWays; }
    std::size_t size() const { return entries_.size(); }

    /** Reduce an arbitrary hash to a valid set index: masked when the
     *  set count is a power of two, modulo otherwise. */
    std::uint64_t
    reduce(std::uint64_t hash) const
    {
        return setMask_ ? (hash & setMask_) : (hash % numSets);
    }

    /** Find @p tag in @p set, promote a hit to MRU or record the miss,
     *  and return the resolved slot. */
    Slot
    probe(std::uint64_t set, std::uint64_t tag)
    {
        Slot slot{set, tag, findWay(set, tag), true};
        visit(slot);
        return slot;
    }

    /**
     * The update-side visit of @p slot: reuse its way when resolved,
     * rescan (set, tag) otherwise, then promote or record the miss as
     * probe() does.  Leaves the slot unresolved.
     * @return the slot's entry, or nullptr on a tag miss.
     */
    Entry *
    revisit(Slot &slot)
    {
        if (!slot.resolved)
            slot.way = findWay(slot.set, slot.tag);
        slot.resolved = false;
        visit(slot);
        return at(slot);
    }

    /** Payload of the line @p slot points at, or nullptr on a miss. */
    Entry *
    at(const Slot &slot)
    {
        return slot.way == Slot::kNoWay
                   ? nullptr
                   : &entries_[line(slot.set, slot.way)];
    }

    /** Payload of a specific (set, way) line, for callers that scan a
     *  whole set (valid or not) without touching it. */
    const Entry &
    wayEntry(std::uint64_t set, std::size_t way) const
    {
        return entries_[line(set, way)];
    }

    /**
     * Find the entry with @p tag in @p set and promote it to MRU.
     * @return pointer to the entry, or nullptr on miss.
     */
    Entry *
    lookup(std::uint64_t set, std::uint64_t tag)
    {
        return at(probe(set, tag));
    }

    /** Find without updating LRU state (for probes/tests). */
    const Entry *
    peek(std::uint64_t set, std::uint64_t tag) const
    {
        const std::size_t way = findWay(set, tag);
        return way == Slot::kNoWay ? nullptr : &entries_[line(set, way)];
    }

    /**
     * Insert @p entry under the slot's tag into the slot's set,
     * evicting the LRU way if the set is full.  The inserted line
     * becomes MRU.
     * @return reference to the stored entry.
     */
    Entry &
    insert(const Slot &slot, Entry entry)
    {
        ibp_table_check(slot.set >= numSets, "AssocTable set out of range");
        const std::size_t base = slot.set * numWays;
        std::size_t victim = 0;
        std::uint64_t oldest = 0;
        bool first = true;
        for (std::size_t w = 0; w < numWays; ++w) {
            if (!valid_[base + w]) {
                victim = w;
                break;
            }
            if (first || lastUse_[base + w] < oldest) {
                oldest = lastUse_[base + w];
                victim = w;
                first = false;
            }
        }
        IBP_PROBE(if (valid_[base + victim]) evictions_.bump();)
        valid_[base + victim] = 1;
        tags_[base + victim] = slot.tag;
        entries_[base + victim] = std::move(entry);
        lastUse_[base + victim] = ++clock_;
        return entries_[base + victim];
    }

    /** Inserts that displaced a live line (0 when probes are off). */
    std::uint64_t evictions() const { return evictions_.value(); }

    /** Lookup misses in sets holding valid lines (0 when probes off). */
    std::uint64_t conflictMisses() const
    {
        return conflictMisses_.value();
    }

    /** Number of valid lines in one set. */
    std::size_t
    setOccupancy(std::uint64_t set) const
    {
        ibp_table_check(set >= numSets, "AssocTable set out of range");
        std::size_t n = 0;
        for (std::size_t w = 0; w < numWays; ++w)
            if (valid_[set * numWays + w])
                ++n;
        return n;
    }

    /** Number of valid lines across the whole table. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const std::uint8_t v : valid_)
            if (v)
                ++n;
        return n;
    }

    void
    reset()
    {
        std::fill(valid_.begin(), valid_.end(), std::uint8_t{0});
        std::fill(tags_.begin(), tags_.end(), std::uint64_t{0});
        std::fill(lastUse_.begin(), lastUse_.end(), std::uint64_t{0});
        for (auto &entry : entries_)
            entry = Entry{};
        clock_ = 0;
        evictions_.reset();
        conflictMisses_.reset();
    }

    /** Serialize geometry, LRU clock and every line (tags and LRU
     *  stamps included: restored lookup/eviction order must be
     *  bit-identical).  Planes are interleaved per line, preserving
     *  the pre-SoA stream byte for byte. */
    template <typename SaveEntry>
    void
    saveState(StateWriter &writer, SaveEntry &&save) const
    {
        writer.writeVarint(numSets);
        writer.writeVarint(numWays);
        writer.writeU64(clock_);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            writer.writeBool(valid_[i] != 0);
            writer.writeU64(tags_[i]);
            writer.writeU64(lastUse_[i]);
            save(writer, entries_[i]);
        }
    }

    /** Restore a table saved with a matching codec; the geometry must
     *  match this table's. */
    template <typename LoadEntry>
    void
    loadState(StateReader &reader, LoadEntry &&load)
    {
        const std::uint64_t sets = reader.readVarint();
        const std::uint64_t ways = reader.readVarint();
        if (reader.ok() && (sets != numSets || ways != numWays)) {
            reader.fail("AssocTable geometry mismatch");
            return;
        }
        clock_ = reader.readU64();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            valid_[i] = reader.readBool() ? 1 : 0;
            tags_[i] = reader.readU64();
            lastUse_[i] = reader.readU64();
            load(reader, entries_[i]);
        }
    }

    /** Probe counters; fixed-width writes so the payload length is
     *  identical in instrumented and probe-free builds. */
    void
    saveProbes(StateWriter &writer) const
    {
        writer.writeU64(evictions_.value());
        writer.writeU64(conflictMisses_.value());
    }

    void
    loadProbes(StateReader &reader)
    {
        evictions_.set(reader.readU64());
        conflictMisses_.set(reader.readU64());
    }

  private:
    /** Flat index of a (set, way) line. */
    std::size_t
    line(std::uint64_t set, std::size_t way) const
    {
        ibp_table_check(set >= numSets || way >= numWays,
                        "AssocTable slot out of range");
        return set * numWays + way;
    }

    /**
     * Locate @p tag in @p set without touching LRU state or probes.
     * The scan is branch-free over the set's contiguous tag slice
     * (no early exit), selecting the lowest matching way — the same
     * way a first-match scan would report.
     * @return the way index, or Slot::kNoWay on a tag miss.
     */
    std::size_t
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        ibp_table_check(set >= numSets, "AssocTable set out of range");
        const std::size_t base = set * numWays;
        std::size_t found = Slot::kNoWay;
        for (std::size_t w = numWays; w-- > 0;) {
            const bool match =
                valid_[base + w] != 0 && tags_[base + w] == tag;
            found = match ? w : found;
        }
        return found;
    }

    /**
     * The LRU and probe side of a visit: a hit becomes MRU; a miss in a
     * set that already holds valid lines is a (capacity or tag)
     * conflict — the branch's state may have been evicted by a
     * competitor.  Occupancy is only scanned in instrumented builds.
     */
    void
    visit(const Slot &slot)
    {
        if (slot.way != Slot::kNoWay) {
            lastUse_[line(slot.set, slot.way)] = ++clock_;
            return;
        }
        IBP_PROBE(if (setOccupancy(slot.set) > 0) conflictMisses_.bump();)
    }

    std::size_t numSets;
    std::size_t numWays;
    std::uint64_t setMask_;
    // The four SoA planes, each sets*ways long, indexed set*ways+way.
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0;
    Counter evictions_;
    Counter conflictMisses_;
};

} // namespace ibp::util

#endif // IBP_UTIL_TABLE_HH_
