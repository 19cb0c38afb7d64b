/**
 * @file
 * Tests for the dense kernels and statistics helpers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "linalg/stats.hpp"
#include "util/rng.hpp"

using namespace ising::linalg;
using ising::util::Rng;

namespace {

Matrix
randomMatrix(std::size_t r, std::size_t c, Rng &rng)
{
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.gaussian());
    return m;
}

Vector
randomVector(std::size_t n, Rng &rng)
{
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<float>(rng.gaussian());
    return v;
}

/** a * b rounded to float before any addition sees it: the volatile
 *  store keeps the compiler from fusing the product into the caller's
 *  add, whatever the build's contraction setting. */
float
roundedProduct(float a, float b)
{
    volatile float p = a * b;
    return p;
}

Matrix
transposed(const Matrix &m)
{
    Matrix t;
    transposeInto(m, t);
    return t;
}

} // namespace

TEST(Matrix, ConstructionAndIndexing)
{
    Matrix m(3, 4, 1.5f);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.size(), 12u);
    EXPECT_FLOAT_EQ(m(2, 3), 1.5f);
    m(1, 2) = -2.0f;
    EXPECT_FLOAT_EQ(m.row(1)[2], -2.0f);
}

TEST(Matrix, TransposeInvolution)
{
    Rng rng(1);
    const Matrix m = randomMatrix(7, 5, rng);
    const Matrix tt = transposed(transposed(m));
    EXPECT_EQ(maxAbsDiff(m, tt), 0.0);
}

TEST(Matrix, TransposeEntries)
{
    Rng rng(2);
    const Matrix m = randomMatrix(6, 9, rng);
    const Matrix t = transposed(m);
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            ASSERT_FLOAT_EQ(t(c, r), m(r, c));
}

TEST(Ops, GemvTMatchesNaive)
{
    Rng rng(3);
    const Matrix w = randomMatrix(11, 7, rng);
    const Vector x = randomVector(11, rng);
    const Vector b = randomVector(7, rng);
    Vector y;
    gemvT(w, x, b, y);
    for (std::size_t j = 0; j < 7; ++j) {
        double acc = b[j];
        for (std::size_t i = 0; i < 11; ++i)
            acc += static_cast<double>(x[i]) * w(i, j);
        EXPECT_NEAR(y[j], acc, 1e-4) << j;
    }
}

TEST(Ops, GemvMatchesNaive)
{
    Rng rng(4);
    const Matrix w = randomMatrix(9, 13, rng);
    const Vector h = randomVector(13, rng);
    const Vector b = randomVector(9, rng);
    Vector y;
    gemv(w, h, b, y);
    for (std::size_t i = 0; i < 9; ++i) {
        double acc = b[i];
        for (std::size_t j = 0; j < 13; ++j)
            acc += static_cast<double>(w(i, j)) * h[j];
        EXPECT_NEAR(y[i], acc, 1e-4) << i;
    }
}

TEST(Ops, GemvOrientationsAgreeViaTranspose)
{
    Rng rng(5);
    const Matrix w = randomMatrix(8, 6, rng);
    const Vector x = randomVector(8, rng);
    const Vector zero6(6, 0.0f);
    Vector viaT, viaPlain;
    gemvT(w, x, zero6, viaT);
    const Vector zero8v(8, 0.0f);
    gemv(transposed(w), x, zero6, viaPlain);
    for (std::size_t j = 0; j < 6; ++j)
        EXPECT_NEAR(viaT[j], viaPlain[j], 1e-4);
}

TEST(Ops, SumMatrixAndVector)
{
    Matrix m(2, 3, 2.0f);
    EXPECT_NEAR(sum(m), 12.0, 1e-9);
    Vector v(4, 0.25f);
    EXPECT_NEAR(sum(v), 1.0, 1e-9);
}

TEST(Ops, AxpyBehaves)
{
    Vector x(3, 1.0f), y(3, 2.0f);
    axpy(3.0f, x, y);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(y[i], 5.0f);
}

TEST(Ops, ApplyTransformsEveryEntry)
{
    Matrix m(2, 2, 3.0f);
    apply(m, [](float x) { return x * x; });
    EXPECT_FLOAT_EQ(m(1, 1), 9.0f);
}

TEST(Stats, RunningStatsMatchesClosedForm)
{
    RunningStats s;
    for (int i = 1; i <= 5; ++i)
        s.push(i);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_NEAR(s.mean(), 3.0, 1e-12);
    EXPECT_NEAR(s.variance(), 2.5, 1e-12);
    EXPECT_NEAR(s.min(), 1.0, 1e-12);
    EXPECT_NEAR(s.max(), 5.0, 1e-12);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> v = {1, 2, 3, 4, 5};
    EXPECT_NEAR(percentile(v, 0), 1.0, 1e-12);
    EXPECT_NEAR(percentile(v, 50), 3.0, 1e-12);
    EXPECT_NEAR(percentile(v, 100), 5.0, 1e-12);
    EXPECT_NEAR(percentile(v, 25), 2.0, 1e-12);
}

TEST(Stats, MovingAverageWindow)
{
    std::vector<double> v = {1, 1, 1, 5, 5, 5};
    const auto ma = movingAverage(v, 3);
    EXPECT_NEAR(ma[0], 1.0, 1e-12);
    EXPECT_NEAR(ma[2], 1.0, 1e-12);
    EXPECT_NEAR(ma[5], 5.0, 1e-12);
    EXPECT_NEAR(ma[3], (1 + 1 + 5) / 3.0, 1e-12);
}

TEST(Stats, EmpiricalCdfEndsAtOne)
{
    const auto cdf = empiricalCdf({3.0, 1.0, 2.0});
    ASSERT_EQ(cdf.size(), 3u);
    EXPECT_NEAR(cdf.front().first, 1.0, 1e-12);
    EXPECT_NEAR(cdf.back().first, 3.0, 1e-12);
    EXPECT_NEAR(cdf.back().second, 1.0, 1e-12);
}

TEST(Stats, CorrelationSignAndScale)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(correlation(x, y), 1.0, 1e-9);
    std::vector<double> z = {10, 8, 6, 4, 2};
    EXPECT_NEAR(correlation(x, z), -1.0, 1e-9);
}

/** Property sweep: gemv and gemvT agree with double accumulation over
 *  a range of shapes. */
class GemvShapeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(GemvShapeSweep, BothOrientationsMatchNaive)
{
    const auto [m, n] = GetParam();
    Rng rng(m * 31 + n);
    const Matrix w = randomMatrix(m, n, rng);
    const Vector x = randomVector(m, rng);
    const Vector h = randomVector(n, rng);
    const Vector bm(m, 0.1f), bn(n, -0.2f);
    Vector up, down;
    gemvT(w, x, bn, up);
    gemv(w, h, bm, down);
    ASSERT_EQ(up.size(), n);
    ASSERT_EQ(down.size(), m);
    for (std::size_t j = 0; j < n; ++j) {
        double acc = bn[j];
        for (std::size_t i = 0; i < m; ++i)
            acc += static_cast<double>(x[i]) * w(i, j);
        ASSERT_NEAR(up[j], acc, 1e-3);
    }
    for (std::size_t i = 0; i < m; ++i) {
        double acc = bm[i];
        for (std::size_t j = 0; j < n; ++j)
            acc += static_cast<double>(w(i, j)) * h[j];
        ASSERT_NEAR(down[i], acc, 1e-3);
    }
}

/**
 * The float kernels round each product before adding it, so their
 * bits do not depend on whether the build can fuse a multiply-add (a
 * native build has FMA, a portable one does not): bitwise against
 * unfused sums in each kernel's own order, on non-binary inputs.
 */
TEST_P(GemvShapeSweep, BothOrientationsRoundEachProductBeforeAdding)
{
    const auto [m, n] = GetParam();
    Rng rng(m * 37 + n);
    const Matrix w = randomMatrix(m, n, rng);
    const Vector x = randomVector(m, rng);
    const Vector h = randomVector(n, rng);
    const Vector bm = randomVector(m, rng), bn = randomVector(n, rng);
    Vector up, down;
    gemvT(w, x, bn, up);
    gemv(w, h, bm, down);
    for (std::size_t j = 0; j < n; ++j) {
        float acc = bn[j];
        for (std::size_t i = 0; i < m; ++i)
            if (x[i] != 0.0f)
                acc = acc + roundedProduct(x[i], w(i, j));
        ASSERT_EQ(std::bit_cast<std::uint32_t>(acc),
                  std::bit_cast<std::uint32_t>(up[j]))
            << "gemvT " << m << "x" << n << " @" << j;
    }
    for (std::size_t i = 0; i < m; ++i) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < n; ++j)
            acc = acc + roundedProduct(w(i, j), h[j]);
        acc = acc + bm[i];
        ASSERT_EQ(std::bit_cast<std::uint32_t>(acc),
                  std::bit_cast<std::uint32_t>(down[i]))
            << "gemv " << m << "x" << n << " @" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvShapeSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 17},
                      std::pair<std::size_t, std::size_t>{17, 1},
                      std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{100, 33},
                      std::pair<std::size_t, std::size_t>{33, 100},
                      std::pair<std::size_t, std::size_t>{97, 53}));
