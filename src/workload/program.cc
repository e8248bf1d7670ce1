#include "workload/program.hh"

#include <algorithm>
#include <numeric>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ibp::workload {

using trace::Addr;
using trace::BranchKind;
using trace::BranchRecord;

namespace {

/// Base of the synthetic code segment (Alpha user-text-like).
constexpr Addr kCodeBase = 0x120000000ULL;

/// Sentinel successor meaning "patched to the next station later".
constexpr std::size_t kPatchNext = static_cast<std::size_t>(-1);

std::unique_ptr<Behavior>
makeBehavior(const HotSiteSpec &spec, std::uint64_t site_key)
{
    switch (spec.behavior) {
      case BehaviorClass::Monomorphic:
        return std::make_unique<MonomorphicBehavior>(spec.noise);
      case BehaviorClass::Phased:
        return std::make_unique<PhasedBehavior>(spec.meanDwell);
      case BehaviorClass::PbCorrelated:
        return std::make_unique<PathCorrelatedBehavior>(
            StreamKind::AllBranches, spec.order, spec.symbolBits,
            spec.noise, site_key, spec.offset);
      case BehaviorClass::PibCorrelated:
        return std::make_unique<PathCorrelatedBehavior>(
            StreamKind::MtIndirect, spec.order, spec.symbolBits,
            spec.noise, site_key, spec.offset);
      case BehaviorClass::SelfCorrelated:
        return std::make_unique<SelfCorrelatedBehavior>(
            spec.order, spec.noise, site_key);
      case BehaviorClass::Uniform:
        return std::make_unique<UniformBehavior>();
      case BehaviorClass::SparsePib:
        return std::make_unique<SparseCorrelatedBehavior>(
            StreamKind::MtIndirect, spec.taps, spec.symbolBits,
            spec.noise, site_key);
      case BehaviorClass::SparsePb:
        return std::make_unique<SparseCorrelatedBehavior>(
            StreamKind::AllBranches, spec.taps, spec.symbolBits,
            spec.noise, site_key);
      case BehaviorClass::Matcher:
        return std::make_unique<MatcherBehavior>(spec.pattern, spec.text,
                                                 spec.kmp);
    }
    panic("unknown behaviour class");
}

} // namespace

Program::Program(std::vector<Block> blocks, std::vector<Function> functions,
                 std::uint64_t seed)
    : blocks_(std::move(blocks)), functions_(std::move(functions)),
      rng_(seed), path_(64)
{
    fatal_if(blocks_.empty(), "program has no blocks");
    fatal_if(functions_.empty(), "program has no functions");
    for (const auto &fn : functions_)
        fatal_if(fn.entryBlock >= blocks_.size(),
                 "function entry block out of range");
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const Exit &exit = blocks_[i].exit;
        for (std::size_t s : exit.succs)
            fatal_if(s >= blocks_.size(), "block ", i,
                     " has successor out of range");
        for (std::size_t c : exit.callees)
            fatal_if(c >= functions_.size(), "block ", i,
                     " has callee out of range");
        switch (exit.kind) {
          case ExitKind::Jump:
            fatal_if(exit.succs.size() != 1, "Jump needs 1 successor");
            break;
          case ExitKind::Cond:
            fatal_if(exit.succs.size() != 2, "Cond needs 2 successors");
            break;
          case ExitKind::Switch:
            fatal_if(exit.succs.empty(), "Switch needs >= 1 successor");
            fatal_if(!exit.behavior, "Switch needs a behaviour");
            break;
          case ExitKind::ICall:
            fatal_if(exit.succs.size() != 1,
                     "ICall needs a resume successor");
            fatal_if(exit.callees.empty(), "ICall needs >= 1 callee");
            fatal_if(!exit.behavior, "ICall needs a behaviour");
            break;
          case ExitKind::DCall:
            fatal_if(exit.succs.size() != 1,
                     "DCall needs a resume successor");
            fatal_if(exit.callees.size() != 1, "DCall needs 1 callee");
            break;
          case ExitKind::Ret:
            break;
        }
    }
    cur_ = functions_[0].entryBlock;
}

void
Program::observe(const BranchRecord &record)
{
    path_.push(StreamKind::AllBranches, record.nextPc());
    if (record.multiTarget && (record.kind == BranchKind::IndirectJmp ||
                               record.kind == BranchKind::IndirectCall))
        path_.push(StreamKind::MtIndirect, record.target);
}

BranchRecord
Program::step()
{
    Block &block = blocks_[cur_];
    Exit &exit = block.exit;
    BranchRecord record;
    record.pc = exit.pc;
    record.taken = true;

    switch (exit.kind) {
      case ExitKind::Jump: {
        record.kind = BranchKind::UncondDirect;
        record.target = blocks_[exit.succs[0]].entryPc;
        cur_ = exit.succs[0];
        break;
      }
      case ExitKind::Cond: {
        record.kind = BranchKind::CondDirect;
        record.taken = rng_.chance(exit.bias);
        record.target = blocks_[exit.succs[1]].entryPc;
        cur_ = record.taken ? exit.succs[1] : exit.succs[0];
        break;
      }
      case ExitKind::Switch: {
        record.kind = BranchKind::IndirectJmp;
        const std::size_t idx =
            exit.behavior->nextTarget(path_, exit.succs.size(), rng_);
        record.target = blocks_[exit.succs[idx]].entryPc;
        record.multiTarget = exit.succs.size() > 1;
        cur_ = exit.succs[idx];
        break;
      }
      case ExitKind::ICall: {
        record.kind = BranchKind::IndirectCall;
        const std::size_t idx =
            exit.behavior->nextTarget(path_, exit.callees.size(), rng_);
        const Function &callee = functions_[exit.callees[idx]];
        record.target = blocks_[callee.entryBlock].entryPc;
        record.multiTarget = exit.callees.size() > 1;
        record.call = true;
        if (stack_.size() >= kMaxStack)
            stack_.erase(stack_.begin());
        stack_.push_back({exit.succs[0], exit.pc + 4});
        cur_ = callee.entryBlock;
        break;
      }
      case ExitKind::DCall: {
        record.kind = BranchKind::UncondDirect;
        record.call = true;
        const Function &callee = functions_[exit.callees[0]];
        record.target = blocks_[callee.entryBlock].entryPc;
        if (stack_.size() >= kMaxStack)
            stack_.erase(stack_.begin());
        stack_.push_back({exit.succs[0], exit.pc + 4});
        cur_ = callee.entryBlock;
        break;
      }
      case ExitKind::Ret: {
        record.kind = BranchKind::Return;
        if (stack_.empty()) {
            // Process-level loop: restart main.
            cur_ = functions_[0].entryBlock;
            record.target = blocks_[cur_].entryPc;
        } else {
            const Frame frame = stack_.back();
            stack_.pop_back();
            record.target = frame.returnAddr;
            cur_ = frame.resumeBlock;
        }
        break;
      }
    }

    observe(record);
    return record;
}

void
Program::run(std::uint64_t n, trace::BranchSink &sink)
{
    for (std::uint64_t i = 0; i < n; ++i)
        sink.push(step());
}

void
Program::fill(BranchRecord *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = step();
}

trace::TraceBuffer
Program::collect(std::uint64_t n)
{
    std::vector<BranchRecord> records(static_cast<std::size_t>(n));
    fill(records.data(), records.size());
    return trace::TraceBuffer(std::move(records));
}

void
Program::saveState(util::StateWriter &writer) const
{
    rng_.saveState(writer);
    path_.saveState(writer);
    writer.writeVarint(cur_);
    writer.writeVarint(stack_.size());
    for (const Frame &frame : stack_) {
        writer.writeVarint(frame.resumeBlock);
        writer.writeU64(frame.returnAddr);
    }
    // Stateful site behaviours, in block order (the structure is
    // deterministic given the synthesis parameters, so block order is
    // a stable enumeration).
    for (const Block &block : blocks_)
        if (block.exit.behavior)
            block.exit.behavior->saveState(writer);
}

void
Program::loadState(util::StateReader &reader)
{
    rng_.loadState(reader);
    path_.loadState(reader);
    const std::uint64_t cur = reader.readVarint();
    if (reader.ok() && cur >= blocks_.size()) {
        reader.fail("walker block index out of range");
        return;
    }
    cur_ = static_cast<std::size_t>(cur);
    stack_.clear();
    const std::uint64_t depth = reader.readVarint();
    if (reader.ok() && depth > kMaxStack) {
        reader.fail("walker call stack deeper than the limit");
        return;
    }
    for (std::uint64_t i = 0; i < depth && reader.ok(); ++i) {
        Frame frame;
        const std::uint64_t resume = reader.readVarint();
        frame.returnAddr = reader.readU64();
        if (reader.ok() && resume >= blocks_.size()) {
            reader.fail("walker resume block out of range");
            return;
        }
        frame.resumeBlock = static_cast<std::size_t>(resume);
        stack_.push_back(frame);
    }
    for (const Block &block : blocks_)
        if (block.exit.behavior)
            block.exit.behavior->loadState(reader);
}

/**
 * The synthesizer lays out:
 *
 *   main:   [gate_0] site_0 [cases...] [gate_1] site_1 ... loop-close
 *   helper_k: cond chain ending in ret
 *
 * Gates are conditional blocks that skip a site with probability
 * 1 - heat, so per-site execution frequencies are directly dialable.
 * Switch case chains re-converge on the next station; their
 * conditionals inject the path entropy PB-correlated sites consume.
 */
Program
synthesize(const SynthesisParams &params)
{
    fatal_if(params.sites.empty(), "synthesize: no sites specified");
    fatal_if(params.caseChainLen == 0, "caseChainLen must be >= 1");
    fatal_if(params.helperBlocks == 0, "helperBlocks must be >= 1");

    util::Rng rng(params.seed ^ 0xc0ffee);

    std::vector<Block> blocks;
    std::vector<Function> functions;
    functions.push_back({0}); // main, entry patched below

    auto new_block = [&blocks]() {
        blocks.emplace_back();
        return blocks.size() - 1;
    };

    // --- helper functions -------------------------------------------------
    std::size_t max_call_targets = 0;
    for (const auto &spec : params.sites)
        if (spec.call)
            max_call_targets = std::max(max_call_targets, spec.numTargets);
    const std::size_t num_helpers =
        std::max(params.helperFunctions, max_call_targets);

    std::vector<std::size_t> helper_fn_ids;
    for (std::size_t h = 0; h < num_helpers; ++h) {
        const std::size_t first = new_block();
        for (unsigned j = 1; j < params.helperBlocks; ++j)
            new_block();
        const std::size_t last = first + params.helperBlocks - 1;
        for (std::size_t b = first; b < last; ++b) {
            Exit &exit = blocks[b].exit;
            exit.kind = ExitKind::Cond;
            exit.bias = params.helperCondBias;
            exit.succs = {b + 1, std::min(b + 2, last)};
        }
        blocks[last].exit.kind = ExitKind::Ret;
        functions.push_back({first});
        helper_fn_ids.push_back(functions.size() - 1);
    }

    // --- main dispatch loop -----------------------------------------------
    struct PendingPatch
    {
        std::size_t block;
        std::size_t slot;
    };
    struct Station
    {
        std::size_t firstBlock;
        std::vector<PendingPatch> patches;
    };
    std::vector<Station> stations;

    std::size_t site_index = 0;
    for (const auto &spec : params.sites) {
        fatal_if(spec.numTargets == 0, "site with zero targets");
        fatal_if(spec.count == 0, "site spec with count 0");
        for (std::size_t clone = 0; clone < spec.count; ++clone) {
            Station station;

            std::uint64_t key_state = params.seed ^
                (0x5851f42d4c957f2dULL * (site_index + 1));
            const std::uint64_t site_key = util::splitMix64(key_state);

            const bool gated = spec.heat < 1.0;
            std::size_t gate = kPatchNext;
            if (gated)
                gate = new_block();
            const std::size_t site_block = new_block();
            station.firstBlock = gated ? gate : site_block;

            if (gated) {
                Exit &gx = blocks[gate].exit;
                gx.kind = ExitKind::Cond;
                gx.bias = spec.heat; // taken executes the site
                gx.succs = {kPatchNext, site_block};
                station.patches.push_back({gate, 0});
            }

            // NOTE: never hold an Exit reference across new_block()
            // calls — the block vector may reallocate.
            if (spec.call) {
                std::vector<std::size_t> callees;
                // Sample distinct callees from the helper pool.
                std::vector<std::size_t> pool = helper_fn_ids;
                for (std::size_t t = 0; t < spec.numTargets; ++t) {
                    const std::size_t pick =
                        t + rng.below(pool.size() - t);
                    std::swap(pool[t], pool[pick]);
                    callees.push_back(pool[t]);
                }
                Exit &sx = blocks[site_block].exit;
                sx.kind = ExitKind::ICall;
                sx.succs = {kPatchNext};
                sx.callees = std::move(callees);
                sx.behavior = makeBehavior(spec, site_key);
                station.patches.push_back({site_block, 0});
            } else {
                // One case chain per target, re-converging on the next
                // station.
                std::vector<std::size_t> case_entries;
                for (std::size_t t = 0; t < spec.numTargets; ++t) {
                    const std::size_t first = new_block();
                    for (unsigned j = 1; j < params.caseChainLen; ++j)
                        new_block();
                    const std::size_t last =
                        first + params.caseChainLen - 1;
                    for (std::size_t b = first; b <= last; ++b) {
                        Exit &cx = blocks[b].exit;
                        if (b < last) {
                            cx.kind = ExitKind::Cond;
                            cx.bias = params.caseCondBias;
                            cx.succs = {b + 1, kPatchNext};
                            station.patches.push_back({b, 1});
                        } else {
                            cx.kind = ExitKind::Jump;
                            cx.succs = {kPatchNext};
                            station.patches.push_back({b, 0});
                        }
                    }
                    case_entries.push_back(first);
                }
                Exit &sx = blocks[site_block].exit;
                sx.kind = ExitKind::Switch;
                sx.succs = std::move(case_entries);
                sx.behavior = makeBehavior(spec, site_key);
            }

            stations.push_back(std::move(station));
            ++site_index;
        }
    }

    // Loop-close block jumping back to the first station.
    const std::size_t loop_close = new_block();
    blocks[loop_close].exit.kind = ExitKind::Jump;
    blocks[loop_close].exit.succs = {stations.front().firstBlock};

    // Patch "next station" sentinels.
    for (std::size_t s = 0; s < stations.size(); ++s) {
        const std::size_t next = s + 1 < stations.size()
                                     ? stations[s + 1].firstBlock
                                     : loop_close;
        for (const auto &patch : stations[s].patches)
            blocks[patch.block].exit.succs[patch.slot] = next;
    }

    functions[0].entryBlock = stations.front().firstBlock;

    // Assign addresses: variable-length blocks so entry addresses have
    // diverse low-order bits (path symbols must carry information).
    Addr pc = kCodeBase;
    for (auto &block : blocks) {
        block.entryPc = pc;
        const Addr body = 4 * (1 + rng.below(12));
        block.exit.pc = pc + body;
        pc += body + 4;
    }

    return Program(std::move(blocks), std::move(functions), params.seed);
}

} // namespace ibp::workload
