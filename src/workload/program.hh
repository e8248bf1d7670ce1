/**
 * @file
 * The synthetic program substrate: a block-structured control-flow
 * graph plus a stochastic walker that executes it, maintaining real
 * path state (PB and PIB symbol streams and a call stack) and emitting
 * a branch trace.
 *
 * Why a CFG and not a flat random site sampler: history-based target
 * predictors only work because program paths *recur* — the window of
 * the last k branch targets takes relatively few distinct values in a
 * loopy program.  A memoryless sampler would produce almost-never-
 * repeating windows and unfairly starve every path-based predictor.
 * The model here is a dispatch loop (gates + hot indirect sites +
 * per-case block chains) calling helper functions, which is exactly
 * the shape of the paper's interpreter/front-end benchmarks.
 *
 * This substitutes for the paper's ATOM-traced Alpha binaries; see
 * DESIGN.md section 1.
 */

#ifndef IBP_WORKLOAD_PROGRAM_HH_
#define IBP_WORKLOAD_PROGRAM_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/random.hh"
#include "trace/branch_record.hh"
#include "trace/trace_buffer.hh"
#include "workload/behavior.hh"

namespace ibp::workload {

/** How a basic block ends. */
enum class ExitKind : std::uint8_t
{
    Jump,   ///< unconditional direct branch
    Cond,   ///< conditional direct branch
    Switch, ///< multi-way indirect jump (jmp)
    ICall,  ///< indirect call (jsr)
    DCall,  ///< direct call (bsr)
    Ret,    ///< subroutine return
};

/** Behaviour classes selectable per indirect site. */
enum class BehaviorClass : std::uint8_t
{
    Monomorphic,
    Phased,
    PbCorrelated,
    PibCorrelated,
    SelfCorrelated,
    Uniform,
    SparsePib,  ///< sparse tap-set PIB correlation (Zouzias et al.)
    SparsePb,   ///< sparse tap-set PB correlation
    Matcher,    ///< MP/KMP automaton-state stream (Nicaud et al.)
};

/**
 * The terminating branch of a basic block.
 *
 * Successor conventions (indices into the program's block vector):
 *  - Jump / DCall: succs[0] is the next (resp. resume) block
 *  - Cond: succs[0] = fall-through, succs[1] = taken
 *  - Switch: succs[i] is the case block for target i
 *  - ICall: succs[0] is the resume block; callees[i] is the function
 *    entered for target i
 *  - Ret: no successors (the stack decides)
 */
struct Exit
{
    ExitKind kind = ExitKind::Jump;
    trace::Addr pc = 0;     ///< address of the branch instruction
    double bias = 0.5;      ///< Cond: probability of taken
    std::vector<std::size_t> succs;
    std::vector<std::size_t> callees;
    std::unique_ptr<Behavior> behavior; ///< Switch/ICall target choice
};

/** One basic block: an entry address and a terminating branch. */
struct Block
{
    trace::Addr entryPc = 0;
    Exit exit;
};

/** A function: its entry block index. */
struct Function
{
    std::size_t entryBlock = 0;
};

/**
 * An executable synthetic program.  Deterministic given its seed: two
 * programs with identical structure and seed emit identical traces.
 * Function 0 is "main"; a return with an empty stack restarts it.
 */
class Program
{
  public:
    Program(std::vector<Block> blocks, std::vector<Function> functions,
            std::uint64_t seed);

    Program(Program &&) = default;
    Program &operator=(Program &&) = default;

    /** Emit @p n branch records into @p sink. */
    void run(std::uint64_t n, trace::BranchSink &sink);

    /**
     * Write the next @p n branch records to @p out, exactly as @p n
     * step() calls would.  The bulk generation path: suite rows stream
     * their trace through it one replay chunk at a time.
     */
    void fill(trace::BranchRecord *out, std::size_t n);

    /** Convenience: fill() a fresh in-memory trace. */
    trace::TraceBuffer collect(std::uint64_t n);

    std::size_t blockCount() const { return blocks_.size(); }
    std::size_t functionCount() const { return functions_.size(); }
    const Block &block(std::size_t i) const { return blocks_[i]; }

    /** Current call-stack depth (observable for tests). */
    std::size_t stackDepth() const { return stack_.size(); }

    /** Emit exactly one branch record and advance. */
    trace::BranchRecord step();

    /**
     * Serialize the walker state: RNG stream, path streams, current
     * block, call stack, and every stateful site behaviour (in block
     * order).  The program *structure* is not serialized — a restore
     * target must be built from the same SynthesisParams.
     */
    void saveState(util::StateWriter &writer) const;

    /** Restore walker state saved from a structurally identical
     *  program. */
    void loadState(util::StateReader &reader);

  private:
    void observe(const trace::BranchRecord &record);

    std::vector<Block> blocks_;
    std::vector<Function> functions_;
    util::Rng rng_;
    PathState path_;
    std::size_t cur_ = 0;

    struct Frame
    {
        std::size_t resumeBlock;
        trace::Addr returnAddr;
    };
    std::vector<Frame> stack_;
    static constexpr std::size_t kMaxStack = 64;
};

/**
 * One hot (or cold) indirect site to plant in the dispatch loop.
 * Specs with count > 1 are expanded into that many independent sites.
 */
struct HotSiteSpec
{
    BehaviorClass behavior = BehaviorClass::PibCorrelated;
    bool call = false;          ///< jsr targeting functions vs switch jmp
    std::size_t count = 1;      ///< clones of this spec
    std::size_t numTargets = 4; ///< target-set size (1 => ST site)
    unsigned order = 2;         ///< correlation order k
    unsigned offset = 0;        ///< correlation depth (symbols back)
    unsigned symbolBits = 2;    ///< path-symbol quantization
    double noise = 0.05;        ///< uniform-draw probability
    double meanDwell = 1000.0;  ///< phased behaviour dwell
    double heat = 1.0;          ///< per-loop-pass execution probability

    /** Sparse* classes: explicit path tap positions (symbols back). */
    std::vector<unsigned> taps;
    /** Matcher class: the (pattern, text) pair and MP/KMP choice. */
    std::string pattern;
    std::string text;
    bool kmp = false;
};

/** Whole-program synthesis parameters (one per benchmark profile). */
struct SynthesisParams
{
    std::uint64_t seed = 1;
    std::vector<HotSiteSpec> sites;

    std::size_t helperFunctions = 8; ///< callee pool for jsr sites
    unsigned helperBlocks = 3;       ///< blocks per helper function
    double helperCondBias = 0.6;     ///< helper conditional taken bias

    unsigned caseChainLen = 2;  ///< blocks per switch-case chain
    double caseCondBias = 0.5;  ///< case-chain conditional taken bias
};

/** Build a program realizing @p params (seeded, deterministic). */
Program synthesize(const SynthesisParams &params);

} // namespace ibp::workload

#endif // IBP_WORKLOAD_PROGRAM_HH_
