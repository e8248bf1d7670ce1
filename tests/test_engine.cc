/**
 * @file
 * Tests for the trace-driven engine: which branches get predicted,
 * RAS handling, metric accounting, and the predict/update/observe
 * protocol ordering.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hh"

namespace {

using namespace ibp::sim;
using ibp::pred::IndirectPredictor;
using ibp::pred::Prediction;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;
using ibp::trace::TraceBuffer;

/** A scripted predictor that logs the engine's calls. */
class ProbePredictor : public IndirectPredictor
{
  public:
    enum class Call { Predict, Update, Observe };

    std::string name() const override { return "probe"; }

    Prediction
    predict(ibp::trace::Addr pc) override
    {
        calls.push_back(Call::Predict);
        predictPcs.push_back(pc);
        return fixed;
    }

    void
    update(ibp::trace::Addr pc, ibp::trace::Addr target) override
    {
        calls.push_back(Call::Update);
        (void)pc;
        lastTarget = target;
    }

    void
    observe(const BranchRecord &record) override
    {
        calls.push_back(Call::Observe);
        observed.push_back(record);
    }

    std::uint64_t storageBits() const override { return 0; }
    void reset() override { calls.clear(); }

    Prediction fixed;
    std::vector<Call> calls;
    std::vector<ibp::trace::Addr> predictPcs;
    std::vector<BranchRecord> observed;
    ibp::trace::Addr lastTarget = 0;
};

BranchRecord
make(BranchKind kind, ibp::trace::Addr pc, ibp::trace::Addr target,
     bool mt = false, bool call = false)
{
    BranchRecord r;
    r.kind = kind;
    r.pc = pc;
    r.target = target;
    r.multiTarget = mt;
    r.call = call;
    return r;
}

TEST(Engine, OnlyMtIndirectIsPredicted)
{
    TraceBuffer buf;
    buf.push(make(BranchKind::CondDirect, 0x10, 0x20));
    buf.push(make(BranchKind::IndirectJmp, 0x14, 0x30, true));
    buf.push(make(BranchKind::IndirectJmp, 0x18, 0x40, false)); // ST
    buf.push(make(BranchKind::IndirectCall, 0x1c, 0x50, true, true));
    buf.push(make(BranchKind::Return, 0x20, 0x20, false));

    ProbePredictor probe;
    Engine engine;
    const RunMetrics metrics = engine.run(buf, probe);

    EXPECT_EQ(metrics.branches, 5u);
    EXPECT_EQ(metrics.mtIndirect, 2u);
    ASSERT_EQ(probe.predictPcs.size(), 2u);
    EXPECT_EQ(probe.predictPcs[0], 0x14u);
    EXPECT_EQ(probe.predictPcs[1], 0x1cu);
    // The replay observes the predicted records only: a history that
    // reads the others takes a lane (see ReplayRow).
    ASSERT_EQ(probe.observed.size(), 2u);
    EXPECT_EQ(probe.observed[0].pc, 0x14u);
    EXPECT_EQ(probe.observed[1].pc, 0x1cu);
}

TEST(Engine, ProtocolOrderIsPredictUpdateObserve)
{
    TraceBuffer buf;
    buf.push(make(BranchKind::IndirectJmp, 0x14, 0x30, true));

    ProbePredictor probe;
    Engine engine;
    engine.run(buf, probe);

    ASSERT_EQ(probe.calls.size(), 3u);
    EXPECT_EQ(probe.calls[0], ProbePredictor::Call::Predict);
    EXPECT_EQ(probe.calls[1], ProbePredictor::Call::Update);
    EXPECT_EQ(probe.calls[2], ProbePredictor::Call::Observe);
    EXPECT_EQ(probe.lastTarget, 0x30u);
}

TEST(Engine, MissAccounting)
{
    TraceBuffer buf;
    for (int i = 0; i < 4; ++i)
        buf.push(make(BranchKind::IndirectJmp, 0x14, 0x30, true));

    ProbePredictor probe;
    probe.fixed = {true, 0x30}; // always right
    Engine engine;
    RunMetrics metrics = engine.run(buf, probe);
    EXPECT_EQ(metrics.indirectMisses.events(), 0u);
    EXPECT_EQ(metrics.indirectMisses.total(), 4u);
    EXPECT_DOUBLE_EQ(metrics.missPercent(), 0.0);

    buf.rewind();
    probe.fixed = {true, 0x99}; // always wrong
    metrics = engine.run(buf, probe);
    EXPECT_EQ(metrics.indirectMisses.events(), 4u);
    EXPECT_DOUBLE_EQ(metrics.missPercent(), 100.0);
    EXPECT_EQ(metrics.noPrediction.events(), 0u);

    buf.rewind();
    probe.fixed = {}; // abstains
    metrics = engine.run(buf, probe);
    EXPECT_EQ(metrics.indirectMisses.events(), 4u);
    EXPECT_EQ(metrics.noPrediction.events(), 4u);
}

TEST(Engine, RasPredictsBalancedReturns)
{
    TraceBuffer buf;
    // call A (ret addr 0x104), call B (0x204), ret B, ret A.
    buf.push(make(BranchKind::IndirectCall, 0x100, 0x1000, true, true));
    buf.push(make(BranchKind::UncondDirect, 0x200, 0x2000, false,
                  true));
    buf.push(make(BranchKind::Return, 0x300, 0x204));
    buf.push(make(BranchKind::Return, 0x304, 0x104));

    ProbePredictor probe;
    Engine engine;
    const RunMetrics metrics = engine.run(buf, probe);
    EXPECT_EQ(metrics.returnMisses.total(), 2u);
    EXPECT_EQ(metrics.returnMisses.events(), 0u);
}

TEST(Engine, RasMissOnUnbalancedReturn)
{
    TraceBuffer buf;
    buf.push(make(BranchKind::Return, 0x300, 0x204)); // empty stack
    ProbePredictor probe;
    Engine engine;
    const RunMetrics metrics = engine.run(buf, probe);
    EXPECT_EQ(metrics.returnMisses.events(), 1u);
}

TEST(Engine, PerSiteStats)
{
    TraceBuffer buf;
    buf.push(make(BranchKind::IndirectJmp, 0x14, 0x30, true));
    buf.push(make(BranchKind::IndirectJmp, 0x14, 0x30, true));
    buf.push(make(BranchKind::IndirectJmp, 0x18, 0x40, true));

    ProbePredictor probe;
    probe.fixed = {true, 0x30};
    EngineConfig config;
    config.perSiteStats = true;
    Engine engine(config);
    const RunMetrics metrics = engine.run(buf, probe);

    ASSERT_EQ(metrics.perSite.size(), 2u);
    EXPECT_EQ(metrics.perSite.at(0x14).misses.events(), 0u);
    EXPECT_EQ(metrics.perSite.at(0x18).misses.events(), 1u);

    const auto worst = metrics.worstSites(1);
    ASSERT_EQ(worst.size(), 1u);
    EXPECT_EQ(worst[0].first, 0x18u);
    EXPECT_EQ(worst[0].second, 1u);
}

TEST(Engine, PerSiteStatsOffByDefault)
{
    TraceBuffer buf;
    buf.push(make(BranchKind::IndirectJmp, 0x14, 0x30, true));
    ProbePredictor probe;
    Engine engine;
    const RunMetrics metrics = engine.run(buf, probe);
    EXPECT_TRUE(metrics.perSite.empty());
    EXPECT_TRUE(metrics.worstSites(3).empty());
}

TEST(Engine, EmptyTrace)
{
    TraceBuffer buf;
    ProbePredictor probe;
    Engine engine;
    const RunMetrics metrics = engine.run(buf, probe);
    EXPECT_EQ(metrics.branches, 0u);
    EXPECT_EQ(metrics.missPercent(), 0.0);
}

} // namespace
