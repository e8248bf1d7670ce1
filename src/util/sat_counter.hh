/**
 * @file
 * N-bit up/down saturating counter.
 *
 * Used throughout the paper: 2-bit target-update hysteresis in BTB2b
 * and in each Markov-table entry, 2-bit PHT counters in GAp/TC/Dpath,
 * and the 2-bit correlation-selection counters in the BIU.
 */

#ifndef IBP_UTIL_SAT_COUNTER_HH_
#define IBP_UTIL_SAT_COUNTER_HH_

#include <cstdint>

#include "util/logging.hh"

namespace ibp::util {

/**
 * An up/down saturating counter of a run-time configurable width.
 *
 * The counter saturates at 0 and 2^bits - 1.  The most significant bit
 * is conventionally the "prediction" bit (weak/strong taken analogue).
 */
class SatCounter
{
  public:
    /** @param bits counter width in bits (1..16)
     *  @param initial initial value (clamped to the representable range)
     */
    explicit SatCounter(unsigned bits = 2, unsigned initial = 0)
        : numBits(static_cast<std::uint8_t>(bits)),
          maxValue(static_cast<std::uint16_t>((1u << bits) - 1)),
          count(static_cast<std::uint16_t>(
              initial > maxValue ? maxValue : initial))
    {
        panic_if(bits == 0 || bits > 16, "SatCounter width out of range: ",
                 bits);
    }

    /** Increment, saturating at the top. @return true if it moved. */
    bool
    increment()
    {
        if (count == maxValue)
            return false;
        ++count;
        return true;
    }

    /** Decrement, saturating at zero. @return true if it moved. */
    bool
    decrement()
    {
        if (count == 0)
            return false;
        --count;
        return true;
    }

    /** Raw counter value. */
    unsigned value() const { return count; }

    /** Largest representable value. */
    unsigned max() const { return maxValue; }

    /** Counter width in bits. */
    unsigned bits() const { return numBits; }

    /** True iff the MSB is set (the "high half" of the range). */
    bool high() const { return count > maxValue / 2; }

    /** True iff saturated at the top. */
    bool saturatedHigh() const { return count == maxValue; }

    /** True iff saturated at zero. */
    bool saturatedLow() const { return count == 0; }

    /** Force a specific value (clamped). */
    void
    set(unsigned new_value)
    {
        count = static_cast<std::uint16_t>(
            new_value > maxValue ? maxValue : new_value);
    }

    /** Reset to zero. */
    void reset() { count = 0; }

    bool operator==(const SatCounter &other) const = default;

  private:
    // Narrow members, chosen to keep the whole counter in 6 bytes (a
    // byte of width, a pad byte, then two 2-byte fields): counters sit
    // inside every table entry of every predictor, so each byte here
    // is a byte per entry of hot replay footprint (TargetEntry dropped
    // 32 -> 16 bytes when these stopped being three `unsigned`s).
    // bits <= 16 bounds both fields.
    std::uint8_t numBits;
    std::uint16_t maxValue;
    std::uint16_t count;
};

static_assert(sizeof(SatCounter) == 6,
              "SatCounter's size is table-entry footprint");

} // namespace ibp::util

#endif // IBP_UTIL_SAT_COUNTER_HH_
