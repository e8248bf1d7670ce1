/**
 * @file
 * Path-history registers.
 *
 * Every two-level predictor in the paper records a few low-order bits
 * of the targets of some *stream* of branches.  Which stream is the
 * defining knob: the Target Cache work (Chang et al.) showed that
 * per-benchmark predictability depends strongly on whether the history
 * holds all branches (PB), indirect branches only (PIB), or
 * calls/returns; the paper's PPM-hyb selects between PB and PIB
 * dynamically per branch.
 *
 * Two register flavours are provided:
 *  - ShiftHistory: a packed shift register of totalBits (GAp, TC,
 *    Dpath, Cascade) — new symbols shift in at the low end;
 *  - SymbolHistory: the last N symbols kept whole (the PPM predictor's
 *    PHR, whose SFSXS hash needs per-target symbols).
 */

#ifndef IBP_PREDICTORS_PATH_HISTORY_HH_
#define IBP_PREDICTORS_PATH_HISTORY_HH_

#include <cstdint>
#include <vector>

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/serde.hh"
#include "util/table.hh"
#include "trace/branch_record.hh"

namespace ibp::pred {

/** Which branches contribute symbols to a history register. */
enum class StreamSel : std::uint8_t
{
    AllBranches,  ///< every branch (PB path)
    AllIndirect,  ///< jmp + jsr + ret
    MtIndirect,   ///< multi-target jmp + jsr (PIB path)
};

/** Printable stream name. */
const char *streamName(StreamSel stream);

/**
 * True iff @p record belongs to @p stream.  Inline: every history
 * register asks this once per retired branch.
 */
constexpr bool
inStream(StreamSel stream, const trace::BranchRecord &record)
{
    switch (stream) {
      case StreamSel::AllBranches:
        return true;
      case StreamSel::AllIndirect:
        return trace::isIndirect(record.kind);
      case StreamSel::MtIndirect:
        return record.isPredictedIndirect();
    }
    return false;
}

/**
 * The path symbol a record contributes: low bits of the resolved next
 * address, above the 2 alignment bits.  For a conditional branch the
 * resolved address encodes the direction, which is the information a
 * hardware PHR captures.
 */
constexpr std::uint64_t
pathSymbol(const trace::BranchRecord &record, unsigned bits)
{
    return util::selectLow(record.nextPc() >> 2, bits);
}

/**
 * The values of a predictor's PB (all-branch) and PIB (indirect-only)
 * path registers at one record: what the PPM family's and the
 * perceptron's predict() read of them, from their own registers or
 * from a replay row's history lanes (sim::ReplayPlan).
 */
struct PathWords
{
    std::uint64_t pb = 0;
    std::uint64_t pib = 0;
};

/** Packed shift-register path history. */
class ShiftHistory
{
  public:
    /**
     * @param total_bits register width (e.g. 10 for the paper's GAp)
     * @param bits_per_target symbol width shifted in per branch
     * @param stream which branches contribute
     */
    ShiftHistory(unsigned total_bits, unsigned bits_per_target,
                 StreamSel stream)
        : totalBits(total_bits), symbolBits(bits_per_target),
          stream_(stream)
    {
        panic_if(total_bits == 0 || total_bits > 64,
                 "ShiftHistory width out of range: ", total_bits);
        panic_if(bits_per_target == 0 || bits_per_target > total_bits,
                 "ShiftHistory symbol width out of range");
    }

    /** Advance on a retired branch (no-op outside the stream). */
    void
    observe(const trace::BranchRecord &record)
    {
        if (inStream(stream_, record))
            push(record);
    }

    /** Shift in @p record's symbol; the stream check is the caller's. */
    void
    push(const trace::BranchRecord &record)
    {
        value_ = ((value_ << symbolBits) |
                  pathSymbol(record, symbolBits)) &
                 util::maskLow(totalBits);
    }

    /** The packed register contents. */
    std::uint64_t value() const { return value_; }

    unsigned bits() const { return totalBits; }
    StreamSel stream() const { return stream_; }

    /** True iff both registers record the same symbols of the same
     *  stream into the same width: fed the same records, they hold
     *  the same value. */
    bool
    sameGeometry(const ShiftHistory &other) const
    {
        return totalBits == other.totalBits &&
               symbolBits == other.symbolBits && stream_ == other.stream_;
    }

    /** Same geometry and contents. */
    bool
    operator==(const ShiftHistory &other) const
    {
        return sameGeometry(other) && value_ == other.value_;
    }

    void reset() { value_ = 0; }

    /** Serialize the register contents. */
    void
    saveState(util::StateWriter &writer) const
    {
        writer.writeU64(value_);
    }

    /** Restore saved contents; bits beyond the register width are
     *  corruption. */
    void
    loadState(util::StateReader &reader)
    {
        const std::uint64_t value = reader.readU64();
        if (reader.ok() && (value & ~util::maskLow(totalBits)) != 0) {
            reader.fail("ShiftHistory value wider than the register");
            return;
        }
        value_ = value;
    }

  private:
    unsigned totalBits;
    unsigned symbolBits;
    StreamSel stream_;
    std::uint64_t value_ = 0;
};

/** Whole-symbol path history (the PPM predictor's PHR). */
class SymbolHistory
{
  public:
    /**
     * @param length number of targets retained (the PPM order m)
     * @param bits_per_symbol low-order bits kept per target
     * @param stream which branches contribute
     */
    SymbolHistory(unsigned length, unsigned bits_per_symbol,
                  StreamSel stream)
        : symbolBits(bits_per_symbol), stream_(stream),
          symbols_(length, 0)
    {
        panic_if(length == 0, "SymbolHistory needs length >= 1");
        panic_if(bits_per_symbol == 0 || bits_per_symbol > 32,
                 "SymbolHistory symbol width out of range");
    }

    /**
     * Advance on a retired branch (no-op outside the stream).
     * @retval true a symbol was inserted — callers keeping derived
     *         state in lock-step (the PPM predictor's incremental
     *         SFSXS word) advance theirs exactly when this returns
     *         true.
     */
    bool
    observe(const trace::BranchRecord &record)
    {
        if (!inStream(stream_, record))
            return false;
        push(static_cast<std::uint32_t>(
            pathSymbol(record, symbolBits)));
        return true;
    }

    /**
     * Insert an already-computed symbol (the stream check and
     * pathSymbol() are the caller's).  Lets a caller feeding several
     * registers from one record compute the symbol once.
     */
    void
    push(std::uint32_t symbol)
    {
        // Ring insert: head_ walks backwards so symbol(0) is always
        // the most recent target.  Equivalent to (but much cheaper
        // than) shifting every slot per retired branch.
        head_ = head_ == 0 ? symbols_.size() - 1 : head_ - 1;
        symbols_[head_] = symbol;
    }

    /** The @p i-th most recent symbol (0 = most recent). */
    std::uint32_t
    symbol(std::size_t i) const
    {
        ibp_table_check(i >= symbols_.size(),
                        "SymbolHistory index out of range");
        std::size_t slot = head_ + i;
        if (slot >= symbols_.size())
            slot -= symbols_.size();
        return symbols_[slot];
    }

    unsigned length() const
    {
        return static_cast<unsigned>(symbols_.size());
    }
    StreamSel stream() const { return stream_; }

    /** Total register cost in bits. */
    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(symbols_.size()) * symbolBits;
    }

    void
    reset()
    {
        for (auto &s : symbols_)
            s = 0;
        head_ = 0;
    }

    /** Serialize the ring (slots + head), so a restore reproduces the
     *  exact rotation state. */
    void
    saveState(util::StateWriter &writer) const
    {
        writer.writeVarint(symbols_.size());
        for (std::uint32_t s : symbols_)
            writer.writeU32(s);
        writer.writeVarint(head_);
    }

    /** Restore a saved ring; length must match this register's. */
    void
    loadState(util::StateReader &reader)
    {
        const std::uint64_t length = reader.readVarint();
        if (reader.ok() && length != symbols_.size()) {
            reader.fail("SymbolHistory length mismatch");
            return;
        }
        for (auto &s : symbols_)
            s = reader.readU32();
        const std::uint64_t head = reader.readVarint();
        if (reader.ok() && head >= symbols_.size()) {
            reader.fail("SymbolHistory head out of range");
            return;
        }
        head_ = static_cast<std::size_t>(head);
    }

  private:
    unsigned symbolBits;
    StreamSel stream_;
    std::vector<std::uint32_t> symbols_; ///< ring; head_ = most recent
    std::size_t head_ = 0;
};

} // namespace ibp::pred

#endif // IBP_PREDICTORS_PATH_HISTORY_HH_
