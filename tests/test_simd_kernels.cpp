/**
 * @file
 * SIMD kernel tiers: every tier against the float reference and the
 * generic tier, and the CPUID/env dispatch rules.
 *
 *  - every tier this host can run (generic, AVX2, AVX-512) reproduces
 *    the float pre-activation of linalg::gemvT bit for bit on ragged
 *    shapes (column widths 1..129 crossing the column block of every
 *    build -- 32 on the SSE2 baseline, 128 with AVX -- and the vector
 *    tails), for single chains (one-row batches) as well as deep
 *    batches, and at every input activity from an empty batch to a
 *    saturated one.  All tiers compile one kernel source, so a bug in
 *    it would pass a tier-against-generic comparison; the float
 *    reference does not share that source;
 *  - the fused half-sweep and the gradient reduce of each SIMD tier
 *    match the generic tier (word counts 1..18 crossing every word
 *    group of the shared reduce body);
 *  - every tier's sigmoid entry reproduces, bit for bit, a scalar
 *    transcription of the formula written here (std::fma and plain
 *    branches, not the vectorized body) over a strided walk of all
 *    float bit patterns and the special values, at lengths 1..40;
 *  - the dispatcher's table() / detectedTier() / envTier() /
 *    defaultTier() invariants hold, including the ISINGRBM_ISA env
 *    override that a SoftwareGibbsBackend resolves at construction
 *    (and "scalar", which names no tier, resolving like any unknown
 *    name);
 *  - SoftwareGibbsBackend chains on every tier, each pinned through
 *    ISINGRBM_ISA, at worker counts 1 and 4, are byte-identical to
 *    the float chain-at-a-time reference (ScalarOnlyBackend);
 *  - CdTrainer weights are byte-identical across every tier at worker
 *    counts 1 and 4, on binary data (the popcount reduce) and on data
 *    with fractional entries (the float reduce).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "linalg/bitops.hpp"
#include "linalg/ops.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/sampling_backend.hpp"
#include "scalar_only_backend.hpp"

using namespace ising;
using util::Rng;
namespace simd = linalg::simd;

namespace {

/** Ragged-by-default model with strong structure. */
rbm::Rbm
testModel(std::size_t m, std::size_t n, std::uint64_t seed = 3)
{
    Rng rng(seed);
    rbm::Rbm model(m, n);
    model.initRandom(rng, 0.6f);
    return model;
}

/** Binary batch at a target activity level. */
linalg::Matrix
activityBatch(std::size_t rows, std::size_t cols, double activity,
              Rng &rng)
{
    linalg::Matrix out(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            out(r, c) = rng.bernoulli(activity) ? 1.0f : 0.0f;
    return out;
}

linalg::BitMatrix
packRows(const linalg::Matrix &m)
{
    linalg::BitMatrix out(m.rows(), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r)
        out.packRowFrom(r, m.row(r));
    return out;
}

std::vector<Rng>
streams(std::size_t rows, std::uint64_t seed)
{
    std::vector<Rng> rngs;
    for (std::size_t r = 0; r < rows; ++r)
        rngs.push_back(Rng::stream(seed, r));
    return rngs;
}

/** The SIMD tiers this host/build can actually run (never Generic). */
std::vector<const simd::KernelTable *>
simdTiers()
{
    std::vector<const simd::KernelTable *> tiers;
    for (const simd::IsaTier tier :
         {simd::IsaTier::Avx2, simd::IsaTier::Avx512})
        if (const simd::KernelTable *kt = simd::table(tier))
            tiers.push_back(kt);
    return tiers;
}

/** Save/restore one environment variable around a test body. */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name_(name)
    {
        const char *cur = std::getenv(name);
        had_ = cur != nullptr;
        if (had_)
            saved_ = cur;
    }
    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_, saved_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_;
    std::string saved_;
};

/** Column widths crossing every vector-tail case: sub-lane, one ymm
 *  lane, one zmm lane, odd tails on both, the SSE2 baseline's 32-wide
 *  column block with overhangs, and the 128-wide AVX block with a
 *  one-column overhang. */
const std::size_t kWidths[] = {1, 7, 8, 16, 37, 64, 70, 127, 128, 129};

/**
 * Input batches for the tiled walk, which skips a chain's zero words:
 * empty, a single set bit, 2% and 30% activity, chains alternating
 * all-zero with half-active ones, and saturated.
 */
std::vector<linalg::Matrix>
activityLevels(std::size_t rows, std::size_t cols, Rng &rng)
{
    std::vector<linalg::Matrix> levels;
    levels.emplace_back(rows, cols);
    levels.emplace_back(rows, cols);
    levels.back()(rows / 2, cols / 2) = 1.0f;
    levels.push_back(activityBatch(rows, cols, 0.02, rng));
    levels.push_back(activityBatch(rows, cols, 0.3, rng));
    levels.push_back(activityBatch(rows, cols, 0.5, rng));
    for (std::size_t r = 0; r < rows; r += 2)
        std::fill_n(levels.back().row(r), cols, 0.0f);
    levels.emplace_back(rows, cols, 1.0f);
    return levels;
}

/**
 * glibc's expf (sysdeps/ieee754/flt-32/e_expf.c) for the arguments the
 * sigmoid passes it (x <= 0, or a NaN), written out with plain
 * branches and std::fma where its FMA build fuses.
 */
float
referenceExpf(float x)
{
    static constexpr std::uint64_t kTable[32] = {
        0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
        0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
        0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
        0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
        0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
        0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
        0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
        0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
    };
    const double invLn2N = 0x1.71547652b82fep+0 * 32;
    const double shift = 0x1.8p+52;
    const double c0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
    const double c1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
    const double c2 = 0x1.62e42ff0c52d6p-1 / 32;

    if (std::isnan(x))
        return x + x;
    if (x < -0x1.9fe368p6f)  // -inf included
        return 0.0f;
    const double xd = x;
    double kd = std::fma(invLn2N, xd, shift);
    const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
    kd -= shift;
    const double r = std::fma(invLn2N, xd, -kd);
    const double s = std::bit_cast<double>(kTable[ki % 32] + (ki << 47));
    const double z = std::fma(c0, r, c1);
    const double r2 = r * r;
    double y = std::fma(c2, r, 1.0);
    y = std::fma(z, r2, y);
    y = y * s;
    return static_cast<float>(y);
}

/** The float sigmoid formula over referenceExpf. */
float
referenceSigmoid(float x)
{
    if (x >= 0.0f) {
        const float z = referenceExpf(-x);
        return 1.0f / (1.0f + z);
    }
    const float z = referenceExpf(x);
    return z / (1.0f + z);
}

float
floatFromBits(std::uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

/** Bit patterns of the sigmoid's special inputs. */
std::vector<std::uint32_t>
sigmoidSpecials()
{
    std::vector<std::uint32_t> bits = {
        0x00000000, 0x80000000,              // +-0
        0x7f800000, 0xff800000,              // +-inf
        0x7fc00000, 0xffc00000,              // quiet NaNs
        0x7fc12345, 0xffd54321,              //   with payloads
        0x7f800001, 0xff800001,              // signalling NaNs
        0x7fa00000, 0xffbfffff,
        0x00000001, 0x80000001, 0x00400000,  // subnormals
        0x807fffff, 0x007fffff,
        0x00800000, 0x80800000,              // smallest normals
        0x3f800000, 0xbf800000,              // +-1
        0x42b00000, 0xc2b00000,              // +-88
        0x7f7fffff, 0xff7fffff,              // +-FLT_MAX
        0xc27c65d9, 0x427c65d9,              // -+0x1.f8cbb2p+5
    };
    // -0x1.9fe368p6, the last argument whose e^x is not +0, and the
    // matching positive input, each with two neighbours either side.
    for (std::uint32_t b = 0x42cff1b2; b <= 0x42cff1b6; ++b) {
        bits.push_back(b);
        bits.push_back(b | 0x80000000u);
    }
    return bits;
}

/** Every tier's table this host can run, generic first. */
std::vector<const simd::KernelTable *>
allTiers()
{
    std::vector<const simd::KernelTable *> tiers = {
        simd::table(simd::IsaTier::Generic)};
    for (const simd::KernelTable *kt : simdTiers())
        tiers.push_back(kt);
    return tiers;
}

} // namespace

TEST(SimdKernels, SigmoidEntryMatchesScalarFormulaBitwise)
{
    const auto check = [](const simd::KernelTable &kt,
                          const std::vector<float> &in,
                          const std::vector<float> &got, std::size_t begin,
                          std::size_t len) {
        for (std::size_t i = begin; i < begin + len; ++i) {
            const std::uint32_t want =
                std::bit_cast<std::uint32_t>(referenceSigmoid(in[i]));
            ASSERT_EQ(want, std::bit_cast<std::uint32_t>(got[i]))
                << kt.name << " x bits 0x" << std::hex
                << std::bit_cast<std::uint32_t>(in[i]) << std::dec
                << " (length " << len << ", lane " << i - begin << ")";
        }
    };
    for (const simd::KernelTable *kt : allTiers()) {
        // A strided walk of all 2^32 float bit patterns (an odd stride,
        // so every low-bit pattern turns up), cut into consecutive calls
        // of lengths 1..40 at every alignment: each vector body, tail
        // and scalar remainder runs.
        std::vector<float> walk;
        for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4093)
            walk.push_back(floatFromBits(static_cast<std::uint32_t>(b)));
        std::vector<float> got = walk;
        for (std::size_t pos = 0, len = 1; pos < walk.size();
             len = len % 40 + 1) {
            const std::size_t n = std::min(len, walk.size() - pos);
            kt->sigmoid(got.data() + pos, n);
            check(*kt, walk, got, pos, n);
            pos += n;
        }

        // The special values at every length 1..40, each rotated through
        // every lane.
        const std::vector<std::uint32_t> specials = sigmoidSpecials();
        for (std::size_t len = 1; len <= 40; ++len) {
            for (std::size_t start = 0; start < specials.size(); ++start) {
                std::vector<float> in(len);
                for (std::size_t i = 0; i < len; ++i)
                    in[i] = floatFromBits(
                        specials[(start + i) % specials.size()]);
                std::vector<float> out = in;
                kt->sigmoid(out.data(), len);
                check(*kt, in, out, 0, len);
            }
        }
    }
}

TEST(SimdKernels, BatchTilesMatchFloatGemvTAcrossColumnRanges)
{
    const std::vector<const simd::KernelTable *> tiers = allTiers();
    Rng rng(13);
    // (input units, chains): a five-chain batch, and single chains --
    // a lone chain sweeps as a one-row batch -- over one word, a
    // ragged second word and a ragged third word of inputs.
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {70, 5}, {1, 1}, {67, 1}, {129, 1}};
    for (const auto &[m, batch] : shapes) {
        for (const std::size_t n : kWidths) {
            const rbm::Rbm model = testModel(m, n, 5 + m + n);
            // Column splits crossing the column block boundaries and
            // sub-block ranges.
            std::vector<std::pair<std::size_t, std::size_t>> ranges = {
                {0, n}};
            if (n > 2)
                ranges.push_back({n / 3, n - 1});
            if (n > 128)
                ranges.push_back({100, n});
            for (const linalg::Matrix &v : activityLevels(batch, m, rng)) {
                const linalg::BitMatrix bits = packRows(v);
                // The float reference: per chain, the bias plus the
                // weight rows of the set inputs in ascending order.
                std::vector<linalg::Vector> ref(batch);
                for (std::size_t r = 0; r < batch; ++r) {
                    linalg::Vector x(m);
                    std::copy_n(v.row(r), m, x.data());
                    linalg::gemvT(model.weights(), x, model.hiddenBias(),
                                  ref[r]);
                }
                for (const simd::KernelTable *kt : tiers) {
                    for (const auto &[cb, ce] : ranges) {
                        linalg::Matrix got(batch, n);
                        linalg::accumulateBatchTile(
                            *kt, model.weights(), bits, model.hiddenBias(),
                            got, 0, batch, cb, ce);
                        for (std::size_t r = 0; r < batch; ++r)
                            for (std::size_t c = cb; c < ce; ++c)
                                ASSERT_EQ(ref[r][c], got(r, c))
                                    << kt->name << " " << m << "x" << n
                                    << " batch " << batch << " [" << cb
                                    << "," << ce << ") @" << r << ","
                                    << c;
                    }
                }
            }
        }
    }
}

TEST(SimdKernels, FusedHalfSweepsMatchGenericWithIdenticalDraws)
{
    const simd::KernelTable &gen = *simd::table(simd::IsaTier::Generic);
    Rng rng(17);
    for (const simd::KernelTable *kt : simdTiers()) {
        for (const std::size_t n : {37u, 129u}) {
            const rbm::Rbm model = testModel(70, n, 7 + n);
            // One chain: the one-row batch a single-chain anneal sweeps.
            const linalg::BitMatrix in =
                packRows(activityBatch(1, 70, 0.4, rng));

            Rng refRng = Rng::stream(5, 0), gotRng = Rng::stream(5, 0);
            linalg::BitMatrix refOut, gotOut;
            linalg::Matrix refMeans, gotMeans;
            linalg::sampleBatch(gen, model.weights(), in,
                                model.hiddenBias(), refOut, refMeans,
                                &refRng);
            linalg::sampleBatch(*kt, model.weights(), in,
                                model.hiddenBias(), gotOut, gotMeans,
                                &gotRng);
            ASSERT_EQ(refMeans, gotMeans) << kt->name;
            for (std::size_t j = 0; j < n; ++j)
                ASSERT_EQ(refOut.test(0, j), gotOut.test(0, j))
                    << kt->name << " bit " << j;
            // Same draws consumed: the streams stay in lockstep.
            EXPECT_EQ(refRng.next(), gotRng.next()) << kt->name;
        }
    }
}

TEST(SimdKernels, GradientReduceMatchesGenericAcrossWordCounts)
{
    const simd::KernelTable &gen = *simd::table(simd::IsaTier::Generic);
    const std::size_t m = 67;
    Rng rng(19);
    // Batch sizes resolving to 1..18 packed words: every word group the
    // shared body splits a row into (8, 4, 2, 1) alone and combined,
    // and two eight-word groups.  Two hidden widths: 35, and 77 (past
    // 64 and not a multiple of 16), so the loop over hidden units runs
    // whole vectors and a ragged tail.
    for (const std::size_t n : {35u, 77u}) {
        for (const std::size_t batch : {1u, 63u, 65u, 128u, 129u, 255u,
                                        256u, 512u, 520u, 1024u, 1100u}) {
            const linalg::Matrix vpos = activityBatch(batch, m, 0.5, rng);
            const linalg::Matrix hpos = activityBatch(batch, n, 0.4, rng);
            const linalg::Matrix vneg = activityBatch(batch, m, 0.3, rng);
            const linalg::Matrix hneg = activityBatch(batch, n, 0.6, rng);
            linalg::BitMatrix posT, negT, hposT, hnegT;
            linalg::packTransposed(vpos, posT);
            linalg::packTransposed(vneg, negT);
            linalg::packTransposed(hpos, hposT);
            linalg::packTransposed(hneg, hnegT);

            linalg::Matrix ref(m, n, -7.0f);
            linalg::outerCountDiff(gen, posT, hposT, negT, hnegT, ref, 0,
                                   m);
            // The generic tier itself against a direct count.
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < n; ++j) {
                    int want = 0;
                    for (std::size_t k = 0; k < batch; ++k)
                        want += static_cast<int>(vpos(k, i) * hpos(k, j)) -
                                static_cast<int>(vneg(k, i) * hneg(k, j));
                    ASSERT_EQ(ref(i, j), static_cast<float>(want))
                        << "n " << n << " batch " << batch << " (" << i
                        << ", " << j << ")";
                }
            linalg::Vector refCounts(m);
            linalg::rowCounts(gen, posT, refCounts.data());
            const std::size_t storedWords = posT.rows() * posT.wordsPerRow();
            const std::size_t refOnes =
                gen.popcountWords(posT.row(0), storedWords);

            for (const simd::KernelTable *kt : simdTiers()) {
                // Stale contents the reduce must overwrite, not add to.
                linalg::Matrix got(m, n, -7.0f);
                // Two row chunks, exercising rowBegin/rowEnd slicing.
                linalg::outerCountDiff(*kt, posT, hposT, negT, hnegT, got,
                                       0, m / 3);
                linalg::outerCountDiff(*kt, posT, hposT, negT, hnegT, got,
                                       m / 3, m);
                ASSERT_EQ(ref, got)
                    << kt->name << " n " << n << " batch " << batch;

                linalg::Vector counts(m);
                linalg::rowCounts(*kt, posT, counts.data());
                ASSERT_EQ(refCounts, counts) << kt->name;
                ASSERT_EQ(refOnes,
                          kt->popcountWords(posT.row(0), storedWords))
                    << kt->name;
            }
        }
    }
}

TEST(SimdDispatch, TableAvailabilityInvariants)
{
    // Auto never names a kernel table; Generic always does.
    EXPECT_EQ(simd::table(simd::IsaTier::Auto), nullptr);
    const simd::KernelTable *gen = simd::table(simd::IsaTier::Generic);
    ASSERT_NE(gen, nullptr);
    EXPECT_EQ(gen->tier, simd::IsaTier::Generic);
    EXPECT_STREQ(gen->name, "generic");

    // Whatever CPUID detects must be runnable and self-describing.
    const simd::IsaTier detected = simd::detectedTier();
    EXPECT_TRUE(detected == simd::IsaTier::Generic ||
                detected == simd::IsaTier::Avx2 ||
                detected == simd::IsaTier::Avx512);
    const simd::KernelTable *kt = simd::table(detected);
    ASSERT_NE(kt, nullptr);
    EXPECT_EQ(kt->tier, detected);
    EXPECT_STREQ(kt->name, simd::tierName(detected));

    // Round-trip every tier name through the parser.
    for (const simd::IsaTier tier :
         {simd::IsaTier::Auto, simd::IsaTier::Generic, simd::IsaTier::Avx2,
          simd::IsaTier::Avx512}) {
        simd::IsaTier parsed;
        ASSERT_TRUE(simd::tierFromName(simd::tierName(tier), parsed));
        EXPECT_EQ(parsed, tier);
    }
    // "scalar" names no tier: binary states have one path, the packed
    // kernels of whichever table runs.
    for (const char *unknown : {"sse9", "scalar"}) {
        simd::IsaTier parsed = simd::IsaTier::Generic;
        EXPECT_FALSE(simd::tierFromName(unknown, parsed)) << unknown;
        EXPECT_EQ(parsed, simd::IsaTier::Generic) << unknown;
    }
}

TEST(SimdDispatch, EnvOverridePrecedence)
{
    EnvGuard guard("ISINGRBM_ISA");

    ::unsetenv("ISINGRBM_ISA");
    EXPECT_EQ(simd::envTier(), simd::IsaTier::Auto);
    EXPECT_EQ(simd::defaultTier(), simd::detectedTier());

    // Empty string means unset (the CI matrix passes ISINGRBM_ISA=""
    // on the auto leg).
    ::setenv("ISINGRBM_ISA", "", 1);
    EXPECT_EQ(simd::envTier(), simd::IsaTier::Auto);

    ::setenv("ISINGRBM_ISA", "generic", 1);
    EXPECT_EQ(simd::envTier(), simd::IsaTier::Generic);
    EXPECT_EQ(simd::defaultTier(), simd::IsaTier::Generic);
    EXPECT_EQ(simd::activeTable().tier, simd::IsaTier::Generic);

    // A backend resolves the tier when it is constructed.
    const rbm::Rbm model = testModel(16, 8);
    const rbm::SoftwareGibbsBackend genBackend(model);
    EXPECT_EQ(genBackend.kernelTable().tier, simd::IsaTier::Generic);

    ::unsetenv("ISINGRBM_ISA");
    const rbm::SoftwareGibbsBackend autoBackend(model);
    EXPECT_EQ(autoBackend.kernelTable().tier, simd::detectedTier());
    EXPECT_EQ(genBackend.kernelTable().tier, simd::IsaTier::Generic);

    // Unknown names warn (once) and fall back to auto-detection;
    // "scalar" is one of them, so a backend built under it carries the
    // CPUID table.
    for (const char *unknown : {"sse9", "scalar"}) {
        ::setenv("ISINGRBM_ISA", unknown, 1);
        EXPECT_EQ(simd::envTier(), simd::IsaTier::Auto) << unknown;
        EXPECT_EQ(simd::defaultTier(), simd::detectedTier()) << unknown;
        EXPECT_EQ(rbm::SoftwareGibbsBackend(model).kernelTable().tier,
                  simd::detectedTier())
            << unknown;
    }
}

TEST(SimdBackend, ChainsByteIdenticalAcrossTiersAndWorkers)
{
    EnvGuard guard("ISINGRBM_ISA");
    const rbm::Rbm model = testModel(70, 37);
    exec::ThreadPool serial(1), threaded(4);
    Rng rng(29);
    for (const double activity : {0.06, 0.5}) {
        const linalg::Matrix v = activityBatch(6, 70, activity, rng);
        const linalg::Matrix h0 = activityBatch(8, 37, activity, rng);

        // The float reference: the same calls through the float
        // chain-at-a-time path.
        const rbm::SoftwareGibbsBackend software(model);
        const ScalarOnlyBackend reference(software);
        auto refRngs = streams(6, 31);
        linalg::Matrix refH, refPh;
        reference.sampleHiddenBatch(v, refH, refPh, refRngs.data());
        linalg::Matrix refAh = h0, refAv, refPav, refPah;
        auto refAnnealRngs = streams(8, 41);
        reference.annealBatch(5, refAv, refAh, refPav, refPah,
                              refAnnealRngs.data());
        linalg::Vector refCv, refCh(37), refCpv, refCph;
        std::copy_n(h0.row(0), 37, refCh.data());
        Rng refChainRng = Rng::stream(43, 0);
        reference.anneal(5, refCv, refCh, refCpv, refCph, refChainRng);

        for (const simd::KernelTable *kt : allTiers()) {
            for (exec::ThreadPool *pool : {&serial, &threaded}) {
                ::setenv("ISINGRBM_ISA", kt->name, 1);
                const rbm::SoftwareGibbsBackend backend(model, pool);
                ASSERT_EQ(&backend.kernelTable(), kt);
                auto rngs = streams(6, 31);
                linalg::Matrix h, ph;
                backend.sampleHiddenBatch(v, h, ph, rngs.data());

                linalg::Matrix ah = h0, av, pav, pah;
                auto annealRngs = streams(8, 41);
                backend.annealBatch(5, av, ah, pav, pah, annealRngs.data());

                // A single chain: the one-row packed batch.
                linalg::Vector cv, ch(37), cpv, cph;
                std::copy_n(h0.row(0), 37, ch.data());
                Rng chainRng = Rng::stream(43, 0);
                backend.anneal(5, cv, ch, cpv, cph, chainRng);

                EXPECT_EQ(refH, h) << kt->name;
                EXPECT_EQ(refPh, ph) << kt->name;
                EXPECT_EQ(refAv, av) << kt->name;
                EXPECT_EQ(refAh, ah) << kt->name;
                EXPECT_EQ(refPav, pav) << kt->name;
                EXPECT_EQ(refPah, pah) << kt->name;
                EXPECT_EQ(refCv, cv) << kt->name;
                EXPECT_EQ(refCh, ch) << kt->name;
                EXPECT_EQ(refCpv, cpv) << kt->name;
                EXPECT_EQ(refCph, cph) << kt->name;
            }
        }
    }
}

TEST(SimdTrainer, CdTrainingBitIdenticalAcrossTiersAndWorkers)
{
    EnvGuard guard("ISINGRBM_ISA");
    Rng dataRng(47);
    // Binary data runs the popcount reduce; data with fractional
    // entries runs the float reduce, on every tier alike.
    data::Dataset binary;
    binary.name = "simd-cd";
    binary.samples = activityBatch(60, 67, 0.3, dataRng);
    data::Dataset fractional;
    fractional.name = "simd-cd-fractional";
    fractional.samples = activityBatch(60, 67, 0.3, dataRng);
    for (std::size_t i = 0; i < fractional.samples.size(); i += 3)
        fractional.samples.data()[i] = dataRng.uniformFloat();

    exec::ThreadPool serial(1), threaded(4);
    for (const data::Dataset *train : {&binary, &fractional}) {
        rbm::Rbm reference;
        bool first = true;
        for (const simd::KernelTable *kt : allTiers()) {
            for (exec::ThreadPool *pool : {&serial, &threaded}) {
                rbm::Rbm model = testModel(67, 35, 7);
                rbm::CdConfig cfg;
                cfg.batchSize = 20;
                cfg.k = 2;
                cfg.momentum = 0.5;
                cfg.pool = pool;
                // Each batch's backend resolves the pinned tier.
                ::setenv("ISINGRBM_ISA", kt->name, 1);
                Rng rng(51);
                rbm::CdTrainer trainer(model, cfg);
                trainer.trainEpoch(*train, rng);
                trainer.trainEpoch(*train, rng);
                if (first) {
                    reference = model;
                    first = false;
                } else {
                    EXPECT_EQ(reference.weights(), model.weights())
                        << train->name << " " << kt->name;
                    EXPECT_EQ(reference.visibleBias(), model.visibleBias())
                        << train->name << " " << kt->name;
                    EXPECT_EQ(reference.hiddenBias(), model.hiddenBias())
                        << train->name << " " << kt->name;
                }
            }
        }
    }
}
