/**
 * @file
 * Equivalence suite for the bit-packed kernels: every packed path must
 * agree *bit-for-bit* with the float path on binary states, including
 * ragged sizes not divisible by the 64-bit word width, because the
 * sampling backends select between the two representations freely.
 * A single chain is a one-row batch, so the one-row cases below are
 * the single-chain sweep.  Kernels run this process's tier
 * (simd::activeTable()); test_simd_kernels compares the tiers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "linalg/bitops.hpp"
#include "linalg/ops.hpp"
#include "rbm/rbm.hpp"

using namespace ising;
using linalg::BitMatrix;
using linalg::Matrix;
using linalg::Vector;
using util::Rng;

namespace {

/** Random weights and biases of the given shape. */
struct Model
{
    Matrix w;
    Vector b;

    Model(std::size_t p, std::size_t q, Rng &rng)
        : w(p, q), b(q)
    {
        for (std::size_t i = 0; i < w.size(); ++i)
            w.data()[i] = static_cast<float>(rng.gaussian(0.0, 0.8));
        for (std::size_t j = 0; j < q; ++j)
            b[j] = static_cast<float>(rng.gaussian(0.0, 0.5));
    }
};

Vector
randomBinary(std::size_t n, Rng &rng, double pOne = 0.5)
{
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = rng.bernoulli(pOne) ? 1.0f : 0.0f;
    return v;
}

/** Shapes chosen to exercise word-aligned and ragged bit counts. */
const std::vector<std::pair<std::size_t, std::size_t>> kShapes = {
    {1, 1}, {63, 17}, {64, 64}, {65, 128}, {100, 35}, {130, 70},
};

/** Set bits over a packed store (pad bits are kept zero). */
std::size_t
popcount(const std::uint64_t *words, std::size_t n)
{
    return linalg::simd::activeTable().popcountWords(words, n);
}

} // namespace

TEST(BitMatrix, OneRowPackUnpackRoundTripsRaggedSizes)
{
    Rng rng(11);
    for (const std::size_t n : {1u, 63u, 64u, 65u, 100u, 130u, 257u}) {
        const Vector v = randomBinary(n, rng);
        BitMatrix bits(1, n);
        bits.packRowFrom(0, v.data());
        ASSERT_EQ(bits.cols(), n);
        ASSERT_EQ(bits.wordsPerRow(), linalg::bitWords(n));
        Vector back(n);
        bits.unpackRowTo(0, back.data());
        EXPECT_TRUE(back == v) << "n=" << n;
        std::size_t ones = 0;
        for (std::size_t i = 0; i < n; ++i)
            ones += v[i] != 0.0f;
        EXPECT_EQ(popcount(bits.row(0), bits.wordsPerRow()), ones)
            << "n=" << n;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(bits.test(0, i), v[i] != 0.0f);
    }
}

TEST(BitMatrix, RowPackingKeepsPadBitsZero)
{
    Rng rng(12);
    BitMatrix bm(3, 70);
    Vector row = randomBinary(70, rng);
    bm.packRowFrom(1, row.data());
    // Repack with a denser row: stale bits must not survive.
    Vector dense(70, 1.0f);
    bm.packRowFrom(1, dense.data());
    bm.packRowFrom(1, row.data());
    Vector back(70);
    bm.unpackRowTo(1, back.data());
    EXPECT_TRUE(back == row);
    // Pad bits beyond column 70 stay zero (whole-word iteration relies
    // on this).
    EXPECT_EQ(bm.row(1)[1] >> 6, 0ull);
}

TEST(BitOps, OneRowBatchTileMatchesFloatGemvT)
{
    const linalg::simd::KernelTable &kt = linalg::simd::activeTable();
    Rng rng(21);
    for (const auto &[p, q] : kShapes) {
        const Model model(p, q, rng);
        for (int trial = 0; trial < 8; ++trial) {
            // Empty, 2%, half and fully active inputs.
            const double activity[] = {0.0, 0.02, 0.5, 1.0};
            const Vector x = randomBinary(p, rng, activity[trial % 4]);
            BitMatrix bits(1, p);
            bits.packRowFrom(0, x.data());

            Vector want;
            linalg::gemvT(model.w, x, model.b, want);
            Matrix got(1, q, -1.0f);
            linalg::accumulateBatchTile(kt, model.w, bits, model.b, got, 0,
                                        1, 0, q);
            ASSERT_EQ(want.size(), q);
            for (std::size_t j = 0; j < q; ++j)
                EXPECT_EQ(got(0, j), want[j])
                    << p << "x" << q << " unit " << j;
        }
    }
}

TEST(BitOps, OneRowSampleBatchMatchesFloatSigmoidThenSample)
{
    const linalg::simd::KernelTable &kt = linalg::simd::activeTable();
    Rng rng(22);
    for (const auto &[p, q] : kShapes) {
        const Model model(p, q, rng);
        const Vector x = randomBinary(p, rng);
        BitMatrix bits(1, p);
        bits.packRowFrom(0, x.data());

        // Float pipeline: affineSigmoid then Rbm::sampleBinary.
        Vector wantMeans, wantSample;
        Rng floatRng(777);
        linalg::affineSigmoid(model.w, x.data(), model.b, wantMeans);
        rbm::Rbm::sampleBinary(wantMeans, wantSample, floatRng);

        // Packed one-row half-sweep on an identical stream.
        BitMatrix outBits;
        Matrix gotMeans;
        Rng packedRng(777);
        linalg::sampleBatch(kt, model.w, bits, model.b, outBits, gotMeans,
                            &packedRng);

        ASSERT_EQ(gotMeans.rows(), 1u);
        ASSERT_EQ(gotMeans.cols(), q);
        for (std::size_t j = 0; j < q; ++j) {
            EXPECT_EQ(gotMeans(0, j), wantMeans[j])
                << p << "x" << q << " mean " << j;
            EXPECT_EQ(outBits.test(0, j), wantSample[j] != 0.0f)
                << p << "x" << q << " bit " << j;
        }
        // Identical consumption: both generators must be in the same
        // state afterwards.
        EXPECT_EQ(floatRng.next(), packedRng.next());
    }
}

TEST(BitOps, SampleBatchMatchesPerChainFloatPipeline)
{
    const linalg::simd::KernelTable &kt = linalg::simd::activeTable();
    Rng rng(23);
    for (const auto &[p, q] : kShapes) {
        const Model model(p, q, rng);
        const std::size_t batch = 7;

        BitMatrix in(batch, p);
        std::vector<Vector> inRows;
        for (std::size_t r = 0; r < batch; ++r) {
            inRows.push_back(randomBinary(p, rng));
            in.packRowFrom(r, inRows.back().data());
        }

        std::vector<Rng> batchRngs, chainRngs;
        for (std::size_t r = 0; r < batch; ++r) {
            batchRngs.push_back(Rng::stream(99, r));
            chainRngs.push_back(Rng::stream(99, r));
        }

        BitMatrix out;
        Matrix means;
        linalg::sampleBatch(kt, model.w, in, model.b, out, means,
                            batchRngs.data());
        ASSERT_EQ(means.rows(), batch);
        ASSERT_EQ(means.cols(), q);

        // Each chain against the float pipeline on its own stream.
        for (std::size_t r = 0; r < batch; ++r) {
            Vector wantMeans, wantSample;
            linalg::affineSigmoid(model.w, inRows[r].data(), model.b,
                                  wantMeans);
            rbm::Rbm::sampleBinary(wantMeans, wantSample, chainRngs[r]);
            for (std::size_t j = 0; j < q; ++j) {
                EXPECT_EQ(means.row(r)[j], wantMeans[j])
                    << p << "x" << q << " chain " << r << " mean " << j;
                EXPECT_EQ(out.test(r, j), wantSample[j] != 0.0f)
                    << p << "x" << q << " chain " << r << " bit " << j;
            }
            EXPECT_EQ(chainRngs[r].next(), batchRngs[r].next())
                << p << "x" << q << " chain " << r;
        }
    }
}

TEST(BitOps, AccumulateBatchTileCoversArbitrarySplits)
{
    // Column/row tiles must compose to the same result as one full
    // tile -- this is what lets the backend thread over units within
    // a sweep without changing a single bit -- and every chain of the
    // tile must equal the float gemv of its input, whichever of its
    // words are empty (the walk skips those).
    const linalg::simd::KernelTable &kt = linalg::simd::activeTable();
    Rng rng(24);
    const std::size_t p = 130, q = 70, batch = 5;
    const Model model(p, q, rng);
    // Input levels: half-active, empty, 2%, saturated, a single set
    // bit, and chains alternating all-zero with half-active ones.
    std::vector<std::vector<Vector>> levels;
    for (const double activity : {0.5, 0.0, 0.02, 1.0}) {
        levels.emplace_back();
        for (std::size_t r = 0; r < batch; ++r)
            levels.back().push_back(randomBinary(p, rng, activity));
    }
    levels.emplace_back(batch, Vector(p));
    levels.back()[batch / 2][p / 2] = 1.0f;
    levels.emplace_back();
    for (std::size_t r = 0; r < batch; ++r)
        levels.back().push_back(r % 2 ? randomBinary(p, rng) : Vector(p));

    for (const std::vector<Vector> &rows : levels) {
        BitMatrix in(batch, p);
        for (std::size_t r = 0; r < batch; ++r)
            in.packRowFrom(r, rows[r].data());

        Matrix whole(batch, q, -1.0f), split(batch, q);
        linalg::accumulateBatchTile(kt, model.w, in, model.b, whole, 0,
                                    batch, 0, q);
        for (std::size_t r = 0; r < batch; ++r) {
            Vector want;
            linalg::gemvT(model.w, rows[r], model.b, want);
            for (std::size_t j = 0; j < q; ++j)
                ASSERT_EQ(whole(r, j), want[j])
                    << "chain " << r << " unit " << j;
        }
        for (const std::size_t cut : {1u, 33u, 64u, 69u}) {
            split.fill(-1.0f);
            linalg::accumulateBatchTile(kt, model.w, in, model.b, split,
                                        0, 2, 0, cut);
            linalg::accumulateBatchTile(kt, model.w, in, model.b, split,
                                        0, 2, cut, q);
            linalg::accumulateBatchTile(kt, model.w, in, model.b, split,
                                        2, batch, 0, cut);
            linalg::accumulateBatchTile(kt, model.w, in, model.b, split,
                                        2, batch, cut, q);
            for (std::size_t r = 0; r < batch; ++r)
                for (std::size_t j = 0; j < q; ++j)
                    EXPECT_EQ(split(r, j), whole(r, j))
                        << "cut " << cut << " at (" << r << ", " << j
                        << ")";
        }
    }
}

TEST(BitOps, IsBinaryDetectsNonBinaryEntries)
{
    Matrix m(2, 3, 1.0f);
    EXPECT_TRUE(linalg::isBinary01(m));
    m(1, 2) = 0.0f;
    EXPECT_TRUE(linalg::isBinary01(m));
    m(0, 1) = 0.5f;
    EXPECT_FALSE(linalg::isBinary01(m));
}

TEST(BitOps, PackTransposedMirrorsTheFloatMatrix)
{
    // Row counts on both sides of the 64-bit word boundaries; entries
    // include 0.5f and -2.0f (nonzero, pack 1) and -0.0f (equal to
    // zero, packs 0).
    Rng rng(31);
    const float values[] = {0.0f, 1.0f, 0.5f, -0.0f, -2.0f};
    for (const std::size_t rows : {5u, 64u, 65u, 130u}) {
        Matrix src(rows, 70);
        for (std::size_t r = 0; r < src.rows(); ++r)
            for (std::size_t c = 0; c < src.cols(); ++c)
                src(r, c) = values[rng.uniformInt(std::size(values))];
        BitMatrix t;
        linalg::packTransposed(src, t);
        ASSERT_EQ(t.rows(), src.cols());
        ASSERT_EQ(t.cols(), src.rows());
        for (std::size_t r = 0; r < src.rows(); ++r)
            for (std::size_t c = 0; c < src.cols(); ++c)
                EXPECT_EQ(t.test(c, r), src(r, c) != 0.0f)
                    << rows << " rows (" << r << ", " << c << ")";
        // No bit is set past the last row: the pad bits stay zero.
        const std::size_t nonZero = static_cast<std::size_t>(
            std::count_if(src.data(), src.data() + src.size(),
                          [](float x) { return x != 0.0f; }));
        EXPECT_EQ(popcount(t.row(0), t.rows() * t.wordsPerRow()), nonZero)
            << rows << " rows";
    }
}

TEST(BitOps, OuterCountDiffEqualsFloatGradientReduce)
{
    // The popcount reduce must agree exactly with the float-MAC
    // gradient reduce on binary states for batch sizes across the
    // word-specialization tiers (1, 2, 4, 8 words and the fallback).
    const linalg::simd::KernelTable &kt = linalg::simd::activeTable();
    Rng rng(32);
    const std::size_t m = 37, n = 21;
    for (const std::size_t batch : {5u, 64u, 100u, 250u, 500u, 600u}) {
        Matrix vpos(batch, m), vneg(batch, m), hpos(batch, n),
            hneg(batch, n);
        auto fill = [&](Matrix &mat) {
            for (std::size_t r = 0; r < mat.rows(); ++r)
                for (std::size_t c = 0; c < mat.cols(); ++c)
                    mat(r, c) = rng.bernoulli(0.4) ? 1.0f : 0.0f;
        };
        fill(vpos);
        fill(vneg);
        fill(hpos);
        fill(hneg);

        // Float reference: dW = Vpos^T Hpos - Vneg^T Hneg.
        Matrix want(m, n, 0.0f);
        for (std::size_t pos = 0; pos < batch; ++pos)
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    want(i, j) += vpos(pos, i) * hpos(pos, j) -
                                  vneg(pos, i) * hneg(pos, j);

        BitMatrix posT, negT, hposT, hnegT;
        linalg::packTransposed(vpos, posT);
        linalg::packTransposed(vneg, negT);
        linalg::packTransposed(hpos, hposT);
        linalg::packTransposed(hneg, hnegT);
        Matrix got(m, n);
        linalg::outerCountDiff(kt, posT, hposT, negT, hnegT, got, 0, m);
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
                EXPECT_EQ(got(i, j), want(i, j))
                    << "batch " << batch << " (" << i << ", " << j << ")";

        // Bias rows: counts along the batch axis.
        std::vector<float> counts(m);
        linalg::rowCounts(kt, posT, counts.data());
        for (std::size_t i = 0; i < m; ++i) {
            float want_i = 0.0f;
            for (std::size_t pos = 0; pos < batch; ++pos)
                want_i += vpos(pos, i);
            EXPECT_EQ(counts[i], want_i) << "batch " << batch;
        }
    }
}
