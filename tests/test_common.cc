/**
 * @file
 * Unit tests for common utilities: RNG, statistics helpers, saturating
 * counters, EWMA, the basic address helpers, and checked number
 * parsing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace svr
{
namespace
{

TEST(Types, LineAlign)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(130), 128u);
}

TEST(Types, PageAlign)
{
    EXPECT_EQ(pageAlign(0), 0u);
    EXPECT_EQ(pageAlign(4095), 0u);
    EXPECT_EQ(pageAlign(4096), 4096u);
    EXPECT_EQ(pageAlign(8191), 4096u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++) {
        if (a.next() == b.next())
            same++;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; i++)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; i++) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, PowerLawBoundsAndSkew)
{
    Rng rng(11);
    std::uint64_t small = 0, large = 0;
    for (int i = 0; i < 10000; i++) {
        const std::uint64_t v = rng.nextPowerLaw(1000, 2.2);
        ASSERT_GE(v, 1u);
        ASSERT_LE(v, 1000u);
        if (v <= 4)
            small++;
        if (v >= 500)
            large++;
    }
    // A power law is dominated by small values.
    EXPECT_GT(small, 6000u);
    EXPECT_LT(large, 200u);
}

TEST(Stats, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
}

TEST(Stats, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

TEST(Stats, GeometricMean)
{
    EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, HarmonicLeqGeometricLeqArithmetic)
{
    const std::vector<double> v = {0.5, 1.5, 3.0, 7.0};
    EXPECT_LE(harmonicMean(v), geometricMean(v) + 1e-12);
    EXPECT_LE(geometricMean(v), arithmeticMean(v) + 1e-12);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(4, 10);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(1000); // clamps into the last bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
}

TEST(Histogram, Mean)
{
    Histogram h(4, 10);
    h.sample(10);
    h.sample(20);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Ewma, FirstSampleInitializes)
{
    Ewma e(3);
    EXPECT_FALSE(e.trained());
    e.update(100);
    EXPECT_TRUE(e.trained());
    EXPECT_EQ(e.value(), 100u);
}

TEST(Ewma, PaperUpdateRule)
{
    // new = 7*old/8 + sample/8 (shift 3)
    Ewma e(3);
    e.update(80);
    e.update(160);
    // 80 - 80/8 + 160/8 = 80 - 10 + 20 = 90
    EXPECT_EQ(e.value(), 90u);
}

TEST(Ewma, ConvergesTowardConstant)
{
    Ewma e(3);
    e.update(0);
    for (int i = 0; i < 100; i++)
        e.update(64);
    EXPECT_NEAR(static_cast<double>(e.value()), 64.0, 8.0);
}

TEST(Ewma, Reset)
{
    Ewma e;
    e.update(42);
    e.reset();
    EXPECT_FALSE(e.trained());
    EXPECT_EQ(e.value(), 0u);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2);
    for (int i = 0; i < 10; i++)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isMax());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 1);
    c.decrement();
    c.decrement();
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, MsbSemantics)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.isSet());
    c.increment();
    EXPECT_TRUE(c.isSet()); // value 2, MSB set
}

TEST(SatCounter, SetClamps)
{
    SatCounter c(2);
    c.set(100);
    EXPECT_EQ(c.value(), 3u);
}

TEST(ParseNumber, AcceptsPlainDecimals)
{
    const ScopedErrorCapture capture;
    EXPECT_EQ(parseNumber<unsigned>("--jobs", "0"), 0u);
    EXPECT_EQ(parseNumber<unsigned>("--jobs", "4294967295"), 4294967295u);
    EXPECT_EQ(parseNumber<std::uint64_t>("--window", "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(parseNumber<double>("--bw", "12.5"), 12.5);
    EXPECT_EQ(parseNumber<double>("--bw", "1e3"), 1000.0);
}

TEST(ParseNumber, RejectsMalformedValuesAsConfigInvalid)
{
    const ScopedErrorCapture capture;
    const char *bad[] = {"", "abc", "-5", "+5", " 5", "5 ", "5x", "0x10"};
    for (const char *text : bad) {
        SCOPED_TRACE(text);
        try {
            parseNumber<std::uint64_t>("--window", text);
            ADD_FAILURE() << "accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
            EXPECT_NE(e.message().find("--window"), std::string::npos);
        }
    }
    EXPECT_THROW(parseNumber<double>("--bw", "-1.5"), SimError);
    EXPECT_THROW(parseNumber<double>("--bw", "inf"), SimError);
    EXPECT_THROW(parseNumber<double>("--bw", "nan"), SimError);
}

TEST(ParseNumber, RejectsOverflow)
{
    const ScopedErrorCapture capture;
    EXPECT_THROW(parseNumber<unsigned>("--jobs", "4294967296"), SimError);
    EXPECT_THROW(
        parseNumber<std::uint64_t>("--window", "18446744073709551616"),
        SimError);
    EXPECT_THROW(parseNumber<double>("--bw", "1e999"), SimError);
}

} // namespace
} // namespace svr
