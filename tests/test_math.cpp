/**
 * @file
 * Tests for util math helpers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/simd_dispatch.hpp"
#include "util/math.hpp"

namespace um = ising::util;

namespace {

/** The repo's one float sigmoid, the kernel-table entry, on one value. */
float
floatSigmoid(float x)
{
    ising::linalg::simd::activeTable().sigmoid(&x, 1);
    return x;
}

} // namespace

TEST(Sigmoid, KnownValues)
{
    EXPECT_DOUBLE_EQ(um::sigmoid(0.0), 0.5);
    EXPECT_NEAR(um::sigmoid(1.0), 1.0 / (1.0 + std::exp(-1.0)), 1e-12);
}

TEST(Sigmoid, SymmetryProperty)
{
    for (double x = -20.0; x <= 20.0; x += 0.37)
        EXPECT_NEAR(um::sigmoid(x) + um::sigmoid(-x), 1.0, 1e-12) << x;
}

TEST(Sigmoid, SaturatesWithoutNan)
{
    EXPECT_NEAR(um::sigmoid(1000.0), 1.0, 1e-12);
    EXPECT_NEAR(um::sigmoid(-1000.0), 0.0, 1e-12);
    EXPECT_FALSE(std::isnan(um::sigmoid(-1e8)));
}

TEST(Sigmoid, FloatEntryMatchesDouble)
{
    for (float x = -8.0f; x <= 8.0f; x += 0.5f)
        EXPECT_NEAR(floatSigmoid(x), um::sigmoid(x), 1e-6) << x;
}

TEST(Sigmoid, FloatEntryPinsValuesIndependentOfLibm)
{
    EXPECT_EQ(floatSigmoid(0.0f), 0.5f);
    EXPECT_EQ(floatSigmoid(-0.0f), 0.5f);
    EXPECT_EQ(floatSigmoid(INFINITY), 1.0f);
    EXPECT_EQ(floatSigmoid(-INFINITY), 0.0f);
    EXPECT_TRUE(std::isnan(floatSigmoid(NAN)));
    // e^x fused as glibc's FMA expf fuses it; an unfused evaluation of
    // the same polynomial rounds to 0x1.f45324p-92.
    EXPECT_EQ(floatSigmoid(-0x1.f8cbb2p+5f), 0x1.f45326p-92f);
}

TEST(Softplus, MatchesDefinitionMidRange)
{
    for (double x = -20.0; x <= 20.0; x += 0.7)
        EXPECT_NEAR(um::softplus(x), std::log1p(std::exp(x)), 1e-9) << x;
}

TEST(Softplus, LinearForLargeX)
{
    EXPECT_NEAR(um::softplus(100.0), 100.0, 1e-9);
    EXPECT_NEAR(um::softplus(-100.0), 0.0, 1e-9);
}

TEST(Softplus, DerivativeIsSigmoid)
{
    const double h = 1e-6;
    for (double x = -5.0; x <= 5.0; x += 0.9) {
        const double d = (um::softplus(x + h) - um::softplus(x - h)) /
                         (2.0 * h);
        EXPECT_NEAR(d, um::sigmoid(x), 1e-5) << x;
    }
}

TEST(LogSumExp, MatchesNaive)
{
    std::vector<double> v = {0.1, -2.0, 3.5, 1.0};
    double naive = 0.0;
    for (double x : v)
        naive += std::exp(x);
    EXPECT_NEAR(um::logSumExp(v), std::log(naive), 1e-12);
}

TEST(LogSumExp, StableForLargeMagnitudes)
{
    std::vector<double> v = {1000.0, 1000.0};
    EXPECT_NEAR(um::logSumExp(v), 1000.0 + std::log(2.0), 1e-9);
    std::vector<double> w = {-1000.0, -1000.0};
    EXPECT_NEAR(um::logSumExp(w), -1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExp, EmptyIsNegInfinity)
{
    EXPECT_EQ(um::logSumExp(nullptr, 0),
              -std::numeric_limits<double>::infinity());
}

TEST(LogSumExp, SingleElement)
{
    std::vector<double> v = {3.25};
    EXPECT_DOUBLE_EQ(um::logSumExp(v), 3.25);
}

TEST(GeometricMean, KnownValues)
{
    EXPECT_NEAR(um::geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(um::geometricMean({5.0}), 5.0, 1e-12);
    EXPECT_NEAR(um::geometricMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(SpinBit, RoundTrip)
{
    EXPECT_EQ(um::bitToSpin(0), -1);
    EXPECT_EQ(um::bitToSpin(1), 1);
    EXPECT_EQ(um::spinToBit(-1), 0);
    EXPECT_EQ(um::spinToBit(1), 1);
    for (int b = 0; b <= 1; ++b)
        EXPECT_EQ(um::spinToBit(um::bitToSpin(b)), b);
}

TEST(ClampTo, HandlesReversedBounds)
{
    EXPECT_DOUBLE_EQ(um::clampTo(5.0, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(um::clampTo(5.0, 1.0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(um::clampTo(0.5, 0.0, 1.0), 0.5);
}
