/**
 * @file
 * Tests for the ratio/summary/frequency statistics helpers.
 */

#include <gtest/gtest.h>

#include "util/stats.hh"

namespace {

using namespace ibp::util;

TEST(Ratio, EmptyIsZero)
{
    Ratio r;
    EXPECT_EQ(r.events(), 0u);
    EXPECT_EQ(r.total(), 0u);
    EXPECT_EQ(r.value(), 0.0);
    EXPECT_EQ(r.percent(), 0.0);
}

TEST(Ratio, CountsEvents)
{
    Ratio r;
    r.sample(true);
    r.sample(false);
    r.sample(true);
    r.sample(false);
    EXPECT_EQ(r.events(), 2u);
    EXPECT_EQ(r.total(), 4u);
    EXPECT_DOUBLE_EQ(r.value(), 0.5);
    EXPECT_DOUBLE_EQ(r.percent(), 50.0);
}

TEST(Ratio, AddMatchesSamples)
{
    Ratio counted;
    counted.add(2, 5);
    Ratio sampled;
    for (bool event : {true, false, true, false, false})
        sampled.sample(event);
    EXPECT_EQ(counted.events(), sampled.events());
    EXPECT_EQ(counted.total(), sampled.total());
}

TEST(Ratio, MergeAddsBoth)
{
    Ratio a;
    Ratio b;
    a.sample(true);
    a.sample(false);
    b.sample(true);
    a.merge(b);
    EXPECT_EQ(a.events(), 2u);
    EXPECT_EQ(a.total(), 3u);
}

TEST(Ratio, ResetClears)
{
    Ratio r;
    r.sample(true);
    r.reset();
    EXPECT_EQ(r.total(), 0u);
    EXPECT_EQ(r.value(), 0.0);
}

TEST(Summary, TracksMoments)
{
    Summary s;
    s.sample(1.0);
    s.sample(3.0);
    s.sample(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(Summary, SingleNegativeSample)
{
    Summary s;
    s.sample(-5.5);
    EXPECT_DOUBLE_EQ(s.min(), -5.5);
    EXPECT_DOUBLE_EQ(s.max(), -5.5);
    EXPECT_DOUBLE_EQ(s.mean(), -5.5);
}

TEST(FrequencyMap, CountsAndArity)
{
    FrequencyMap f;
    f.sample(10);
    f.sample(10);
    f.sample(20);
    EXPECT_EQ(f.total(), 3u);
    EXPECT_EQ(f.arity(), 2u);
    EXPECT_EQ(f.count(10), 2u);
    EXPECT_EQ(f.count(20), 1u);
    EXPECT_EQ(f.count(99), 0u);
}

TEST(FrequencyMap, Mode)
{
    FrequencyMap f;
    f.sample(5);
    f.sample(7);
    f.sample(7);
    EXPECT_EQ(f.mode(), 7u);
    EXPECT_DOUBLE_EQ(f.modeFraction(), 2.0 / 3.0);
}

TEST(FrequencyMap, EntropyOfUniformPair)
{
    FrequencyMap f;
    f.sample(1);
    f.sample(2);
    EXPECT_NEAR(f.entropyBits(), 1.0, 1e-12);
}

TEST(FrequencyMap, EntropyOfSingleton)
{
    FrequencyMap f;
    f.sample(1);
    f.sample(1);
    EXPECT_NEAR(f.entropyBits(), 0.0, 1e-12);
}

TEST(FrequencyMap, EntropyOfUniformFour)
{
    FrequencyMap f;
    for (std::uint64_t k = 0; k < 4; ++k)
        for (int i = 0; i < 10; ++i)
            f.sample(k);
    EXPECT_NEAR(f.entropyBits(), 2.0, 1e-12);
}

TEST(FrequencyMap, EmptyIsZero)
{
    FrequencyMap f;
    EXPECT_EQ(f.total(), 0u);
    EXPECT_EQ(f.mode(), 0u);
    EXPECT_EQ(f.modeFraction(), 0.0);
    EXPECT_EQ(f.entropyBits(), 0.0);
}

TEST(FormatFixed, Rounds)
{
    EXPECT_EQ(formatFixed(9.474, 2), "9.47");
    EXPECT_EQ(formatFixed(9.476, 2), "9.48");
    EXPECT_EQ(formatFixed(11.0, 1), "11.0");
}

} // namespace
