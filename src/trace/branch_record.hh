/**
 * @file
 * The dynamic branch record — the unit of every trace in this project.
 *
 * Models the branch-relevant slice of the Alpha AXP ISA the paper
 * traces with ATOM: conditional direct branches, unconditional direct
 * branches/calls, and the indirect branches jmp / jsr / ret.  The
 * static single-target/multi-target (ST/MT) classification the paper
 * obtains from a compiler/linker annotation bit is carried per record.
 */

#ifndef IBP_TRACE_BRANCH_RECORD_HH_
#define IBP_TRACE_BRANCH_RECORD_HH_

#include <cstdint>
#include <string>

namespace ibp::trace {

/** Address type: the paper targets 32/64-bit machines; we use 64. */
using Addr = std::uint64_t;

/** Branch classes relevant to indirect-target prediction. */
enum class BranchKind : std::uint8_t
{
    CondDirect,   ///< conditional direct branch (beq, bne, ...)
    UncondDirect, ///< unconditional direct branch or call (br, bsr)
    IndirectJmp,  ///< unconditional indirect jump (Alpha jmp)
    IndirectCall, ///< unconditional indirect call (Alpha jsr)
    Return,       ///< subroutine return (Alpha ret)
};

/** Printable name for a BranchKind. */
const char *branchKindName(BranchKind kind);

/** True for the register-indirect classes (jmp, jsr, ret). */
constexpr bool
isIndirect(BranchKind kind)
{
    return kind == BranchKind::IndirectJmp ||
           kind == BranchKind::IndirectCall ||
           kind == BranchKind::Return;
}

/**
 * One executed branch.
 *
 * For conditional branches @c taken records the resolved direction and
 * @c target the taken-path target (the fall-through address is
 * pc + 4).  Unconditional branches always have taken == true.
 * @c multiTarget carries the static MT annotation bit: true iff the
 * *site* has more than one possible target (switch jmp, pointer call).
 */
struct BranchRecord
{
    Addr pc = 0;
    Addr target = 0;
    BranchKind kind = BranchKind::CondDirect;
    bool taken = true;
    bool multiTarget = false;
    /** Pushes a return address (jsr, or a direct bsr-style call). */
    bool call = false;

    /**
     * The address the machine actually continues from.  Every
     * path-history register reads this per record, and a conditional
     * branch's direction is as hard for the host to predict as it is
     * for the simulated machine, so the direction selects by a
     * multiply: compilers turn a ternary, and even a mask select,
     * back into a host branch.
     */
    constexpr Addr
    nextPc() const
    {
        const Addr fall_through = pc + 4;
        return fall_through + (target - fall_through) * Addr{taken};
    }

    /**
     * True iff this record is in the predicted class of the paper:
     * a multi-target jmp or jsr.  Returns are excluded (handled by a
     * RAS) and single-target sites are excluded (GOT/DLL stubs the
     * paper removes via link-time optimization arguments).
     */
    bool
    isPredictedIndirect() const
    {
        return multiTarget && (kind == BranchKind::IndirectJmp ||
                               kind == BranchKind::IndirectCall);
    }

    bool operator==(const BranchRecord &other) const = default;
};

/** Human-readable one-line rendering (for the text trace format). */
std::string toString(const BranchRecord &record);

} // namespace ibp::trace

#endif // IBP_TRACE_BRANCH_RECORD_HH_
