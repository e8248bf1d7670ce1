/**
 * @file
 * Bit-manipulation primitives shared by all indexing/hashing schemes.
 *
 * Every predictor in the paper forms table indices by selecting a few
 * low-order bits from branch targets, folding them down, shifting and
 * XOR-ing (gshare, reverse interleaving, SFSXS).  These helpers keep
 * that arithmetic in one audited place.
 */

#ifndef IBP_UTIL_BITOPS_HH_
#define IBP_UTIL_BITOPS_HH_

#include <cstdint>

#include "util/logging.hh"

namespace ibp::util {

/** A mask with the low @p n bits set; n may be 0..64. */
constexpr std::uint64_t
maskLow(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/** Extract bits [lo, lo+n) of @p value (n <= 64). */
constexpr std::uint64_t
bitsRange(std::uint64_t value, unsigned lo, unsigned n)
{
    return (value >> lo) & maskLow(n);
}

/** Select the low @p n bits of @p value. */
constexpr std::uint64_t
selectLow(std::uint64_t value, unsigned n)
{
    return value & maskLow(n);
}

/**
 * Fold @p value (treated as @p width bits wide) down to @p out_bits by
 * XOR-ing successive @p out_bits-wide chunks together.  This is the
 * "Fold" step of the Select-Fold-Shift-XOR family of hash functions
 * (Sazeides & Smith).  Folding to zero bits yields zero.
 */
constexpr std::uint64_t
foldXor(std::uint64_t value, unsigned width, unsigned out_bits)
{
    if (out_bits == 0)
        return 0;
    value &= maskLow(width);
    std::uint64_t folded = 0;
    for (unsigned lo = 0; lo < width; lo += out_bits)
        folded ^= bitsRange(value, lo, out_bits);
    return folded & maskLow(out_bits);
}

/**
 * Rotate the low @p width bits of @p value left by @p amount.
 * Bits above @p width are discarded.
 */
constexpr std::uint64_t
rotateLeft(std::uint64_t value, unsigned width, unsigned amount)
{
    if (width == 0)
        return 0;
    value &= maskLow(width);
    amount %= width;
    if (amount == 0)
        return value;
    return ((value << amount) | (value >> (width - amount))) &
           maskLow(width);
}

/** A rotation by @p amount of a @p width-bit word, reduced to the
 *  equivalent amount in [0, width); width 0 yields 0.  Lets hot loops
 *  whose rotation is fixed by their geometry reduce it once. */
constexpr unsigned
reduceRotation(unsigned amount, unsigned width)
{
    return width == 0 ? 0 : amount % width;
}

/**
 * Reverse the order of the low @p width bits of @p value.  Used by the
 * Dpath predictor's reverse-interleaving index (Driesen & Holzle).
 */
constexpr std::uint64_t
reverseBits(std::uint64_t value, unsigned width)
{
    std::uint64_t out = 0;
    for (unsigned i = 0; i < width; ++i)
        if (value & (std::uint64_t{1} << i))
            out |= std::uint64_t{1} << (width - 1 - i);
    return out;
}

/**
 * Spread the low 32 bits of @p value so bit i lands at position 2*i
 * (the Morton-code "part1by1" step; even positions of an interleave).
 */
constexpr std::uint64_t
spreadBits32(std::uint64_t value)
{
    value &= 0xFFFFFFFFull;
    value = (value | (value << 16)) & 0x0000FFFF0000FFFFull;
    value = (value | (value << 8)) & 0x00FF00FF00FF00FFull;
    value = (value | (value << 4)) & 0x0F0F0F0F0F0F0F0Full;
    value = (value | (value << 2)) & 0x3333333333333333ull;
    value = (value | (value << 1)) & 0x5555555555555555ull;
    return value;
}

/**
 * Interleave the bits of @p a and @p b (a provides even positions).
 * Both inputs are treated as @p width bits wide; the result is
 * 2*width bits wide (width <= 32).  Constant-time: two Morton spreads
 * instead of a bit-at-a-time loop — this sits on the index path of
 * every Dpath/Cascade table access.
 */
constexpr std::uint64_t
interleaveBits(std::uint64_t a, std::uint64_t b, unsigned width)
{
    const std::uint64_t mask = maskLow(width);
    return spreadBits32(a & mask) | (spreadBits32(b & mask) << 1);
}

/** Ceiling of log2; log2Ceil(0) and log2Ceil(1) are 0. */
constexpr unsigned
log2Ceil(std::uint64_t value)
{
    unsigned bits = 0;
    while ((std::uint64_t{1} << bits) < value && bits < 64)
        ++bits;
    return bits;
}

/** True iff @p value is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/**
 * Reduce an arbitrary hash to a valid index in [0, @p count): a single
 * AND on power-of-two counts, a modulo otherwise.  The two agree for
 * powers of two, so callers switching to this helper change no
 * simulated number.  This is the sanctioned reduction for indexing off
 * counts that have no Table object (ibp_lint rule table-modulo bans
 * raw `%` indexing in the predictor layers).  @p mask is
 * indexMask(count), precomputed by callers that reduce over one count.
 */
constexpr std::uint64_t
reduceIndex(std::uint64_t hash, std::uint64_t count, std::uint64_t mask)
{
    // ibp-lint: allow(table-modulo) -- this is the sanctioned fallback
    return mask ? (hash & mask) : (hash % count);
}

/** The mask reduceIndex() takes for @p count: count - 1 on a power of
 *  two, 0 (reduce by modulo) otherwise.  Tables and kernels that reduce
 *  many hashes over one fixed count compute it once. */
constexpr std::uint64_t
indexMask(std::uint64_t count)
{
    return isPowerOf2(count) ? count - 1 : 0;
}

/** reduceIndex() for a one-off count. */
constexpr std::uint64_t
reduceIndex(std::uint64_t hash, std::uint64_t count)
{
    return reduceIndex(hash, count, indexMask(count));
}

/**
 * gshare index: XOR a history value with a PC, keeping @p index_bits.
 * The PC is pre-shifted right by 2 (branch addresses are word aligned
 * on the Alpha-like machines the paper models).
 */
constexpr std::uint64_t
gshareIndex(std::uint64_t pc, std::uint64_t history, unsigned index_bits)
{
    return ((pc >> 2) ^ history) & maskLow(index_bits);
}

} // namespace ibp::util

#endif // IBP_UTIL_BITOPS_HH_
