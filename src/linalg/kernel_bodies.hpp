/**
 * @file
 * The packed kernels of every ISA tier (private to linalg/).
 *
 * simd_dispatch.cpp, kernels_avx2.cpp and kernels_avx512.cpp each
 * include these portable bodies in their KernelTable, so every tier
 * compiles the same source under its own -m flags and the compiler
 * picks the vector width and the popcount that tier has.  The tiers
 * differ only in those flags: there are no intrinsics.
 *
 *  - accumulateTileBody, the tiled walk behind both Gibbs half-sweeps,
 *    vectorizes across output columns only: per column the float adds
 *    run in ascending set-bit order, the reproducibility-contract
 *    sequence of linalg/bitops.hpp.  It needs no FMA, no horizontal
 *    add and no reassociation, so every tier gives the same bits.
 *  - outerCountDiffBody and popcountWordsBody count bits in integers,
 *    exact in any summation order: the baseline bit-hack, scalar
 *    POPCNT, or VPOPCNTQ auto-vectorized along the hidden axis.
 *  - sigmoidBody, the conditional mean of both half-sweeps and of the
 *    float pipeline, is branch-free so that it vectorizes across
 *    units.  Its e^x is glibc's table-driven expf with the FMAs
 *    spelled out where glibc's FMA build fuses, so every tier (and a
 *    baseline build, through libm's correctly rounded fma) gives the
 *    same bits.
 *
 * Everything here has internal linkage and calls builtins only, never
 * an inline library template: an inline function is a comdat in each
 * translation unit that emits it, and the linker keeps one copy --
 * possibly a wider tier's -- for all of them (see simd_dispatch.hpp).
 */

#ifndef ISINGRBM_LINALG_KERNEL_BODIES_HPP
#define ISINGRBM_LINALG_KERNEL_BODIES_HPP

#include <cstddef>
#include <cstdint>

namespace ising::linalg::simd {

namespace {

/**
 * Columns one block of the tiled walk covers.  A full block sums into
 * a local array that the compiler keeps in vector registers across
 * every set bit of an input word, as the add chain per column is
 * latency-bound: 128 floats are 8 zmm or 16 ymm registers where the
 * translation unit has AVX.  The SSE2 baseline, which only a portable
 * build's generic tier compiles, keeps 32 floats in 8 xmm; 128 there
 * go through memory.  The width comes from the translation unit's
 * flags and never changes a column's addition order.
 */
#if defined(__AVX__)
constexpr std::size_t kColBlock = 128;
#else
constexpr std::size_t kColBlock = 32;
#endif

/**
 * arow[0..kColBlock) += the tile rows of the set bits of @p word,
 * ascending (word != 0).  A one-bit word, the common case at 1-2%
 * activity, adds in place with no block to store back.  Otherwise the
 * block starts as arow plus the first set row, takes the other rows
 * in registers, and is stored once: no separate copy in.
 */
void
addWordFullBlock(const float *tile, std::size_t wStride,
                 std::uint64_t word, float *__restrict arow)
{
    const float *__restrict first =
        tile + static_cast<std::size_t>(__builtin_ctzll(word)) * wStride;
    word &= word - 1;  // clear lowest set bit: ascending order
    if (word == 0) {
        for (std::size_t j = 0; j < kColBlock; ++j)
            arow[j] += first[j];
        return;
    }
    float block[kColBlock];
    for (std::size_t j = 0; j < kColBlock; ++j)
        block[j] = arow[j] + first[j];
    do {
        const float *__restrict wrow =
            tile +
            static_cast<std::size_t>(__builtin_ctzll(word)) * wStride;
        word &= word - 1;
        for (std::size_t j = 0; j < kColBlock; ++j)
            block[j] += wrow[j];
    } while (word);
    for (std::size_t j = 0; j < kColBlock; ++j)
        arow[j] = block[j];
}

/** arow[0..len) += the tile rows of the set bits of @p word, ascending. */
void
addWordPartialBlock(const float *tile, std::size_t wStride,
                    std::uint64_t word, float *__restrict arow,
                    std::size_t len)
{
    while (word) {
        const float *__restrict wrow =
            tile +
            static_cast<std::size_t>(__builtin_ctzll(word)) * wStride;
        word &= word - 1;
        for (std::size_t j = 0; j < len; ++j)
            arow[j] += wrow[j];
    }
}

/**
 * KernelTable::accumulateTile.  Tiled (column block x one input word
 * x chains): the 64 x kColBlock W tile of a word stays L1-hot across
 * every chain, and a chain whose word is zero costs one test.  Per
 * (chain, column) the additions run in ascending input unit whatever
 * the tiling.
 */
void
accumulateTileBody(const float *w, std::size_t wStride,
                   const std::uint64_t *in, std::size_t inWords,
                   float *act, std::size_t actStride, std::size_t rowBegin,
                   std::size_t rowEnd, std::size_t colBegin,
                   std::size_t colEnd)
{
    for (std::size_t jb = colBegin; jb < colEnd; jb += kColBlock) {
        const std::size_t len =
            colEnd - jb < kColBlock ? colEnd - jb : kColBlock;
        for (std::size_t wi = 0; wi < inWords; ++wi) {
            const float *tile = w + wi * 64 * wStride + jb;
            for (std::size_t r = rowBegin; r < rowEnd; ++r) {
                const std::uint64_t word = in[r * inWords + wi];
                if (word == 0)
                    continue;
                float *arow = act + r * actStride + jb;
                if (len == kColBlock)
                    addWordFullBlock(tile, wStride, word, arow);
                else
                    addWordPartialBlock(tile, wStride, word, arow, len);
            }
        }
    }
}

/**
 * The counts of words [w, w + G) for hidden units [0, n): assigned to
 * orow for the first group of a row (w == 0), added to it after.  Each
 * unit sums its G words in an int, so the float row is touched once
 * per group (a float add per word cost the scalar-POPCNT AVX2 tier
 * 1.3-1.9x at 2-16 words); the loop over units is the one the compiler
 * vectorizes.  Assign and add are separate loops because a select
 * inside one loop kept GCC 12 from vectorizing the eight-word group.
 */
template <std::size_t G>
void
countWordGroup(const std::uint64_t *ai, const std::uint64_t *ci,
               const std::uint64_t *b, const std::uint64_t *d,
               std::size_t n, std::size_t w, float *orow)
{
    const std::uint64_t *bw = b + w * n;
    const std::uint64_t *dw = d + w * n;
    const auto count = [&](std::size_t j) {
        int sum = 0;
        for (std::size_t g = 0; g < G; ++g)
            sum += __builtin_popcountll(ai[w + g] & bw[g * n + j]) -
                   __builtin_popcountll(ci[w + g] & dw[g * n + j]);
        return static_cast<float>(sum);
    };
    if (w == 0)
        for (std::size_t j = 0; j < n; ++j)
            orow[j] = count(j);
    else
        for (std::size_t j = 0; j < n; ++j)
            orow[j] += count(j);
}

/**
 * KernelTable::outerCountDiff.  a/c are row-major (row i at
 * a + i * words), b/d word-major (word w of unit j at b[w * n + j]),
 * so the inner loop runs across hidden units against broadcast visible
 * words.  A row's words go in groups of eight, then one group each of
 * four, two and one as its count needs.  Every partial sum is a small
 * integer, so the float accumulation is exact.
 */
void
outerCountDiffBody(const std::uint64_t *a, const std::uint64_t *b,
                   const std::uint64_t *c, const std::uint64_t *d,
                   std::size_t words, std::size_t n, float *out,
                   std::size_t outStride, std::size_t rowBegin,
                   std::size_t rowEnd)
{
    for (std::size_t i = rowBegin; i < rowEnd; ++i) {
        const std::uint64_t *ai = a + i * words;
        const std::uint64_t *ci = c + i * words;
        float *orow = out + i * outStride;
        std::size_t w = 0;
        for (; words - w >= 8; w += 8)
            countWordGroup<8>(ai, ci, b, d, n, w, orow);
        if (words & 4) {
            countWordGroup<4>(ai, ci, b, d, n, w, orow);
            w += 4;
        }
        if (words & 2) {
            countWordGroup<2>(ai, ci, b, d, n, w, orow);
            w += 2;
        }
        if (words & 1)
            countWordGroup<1>(ai, ci, b, d, n, w, orow);
    }
}

/** KernelTable::popcountWords. */
std::size_t
popcountWordsBody(const std::uint64_t *words, std::size_t n)
{
    std::size_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<std::size_t>(__builtin_popcountll(words[i]));
    return acc;
}

/**
 * The constants of glibc's expf (sysdeps/ieee754/flt-32/e_expf.c,
 * from ARM's optimized-routines): e^x = 2^(k/32) * 2^(r/32) with k
 * the nearest integer to x * 32/ln2, 2^(k/32) from a 32-entry table
 * whose entry i holds the bits of 2^(i/32) minus i << 47 (so entry
 * k % 32 plus k << 47 is the bits of 2^(k/32)), and 2^(r/32) a cubic
 * in r.
 */
constexpr std::uint64_t kExp2Table[32] = {
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
constexpr double kInvLn2N = 0x1.71547652b82fep+5;  ///< 32 / ln 2
constexpr double kRoundShift = 0x1.8p+52;  ///< adding it rounds to int
constexpr double kExpC0 = 0x1.c6af84b912394p-20;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
/** |x| of the largest-magnitude argument whose e^-|x| is not +0. */
constexpr std::uint32_t kExpUnderflowBits = 0x42cff1b4;  // 0x1.9fe368p6f
constexpr std::uint32_t kInfBits = 0x7f800000;
constexpr std::uint32_t kOneBits = 0x3f800000;  // 1.0f

/**
 * KernelTable::sigmoid: a[i] = x >= 0 ? 1 / (1 + e^-x) : e^x / (1 + e^x)
 * in float, in place, with x = a[i].  Both arms take e^-|x|, computed
 * as glibc's expf computes it, fused where its FMA build fuses: +0
 * below -0x1.9fe368p6 (and at -inf), x + x for a NaN.  The argument is
 * clamped into range before the polynomial, every float operation
 * runs on every lane, and the special cases and the arm are masks on
 * the float's bits: a float select would let GCC sink the operations
 * it selects between into branches (it may not speculate an operation
 * that can trap), and a loop with branches does not vectorize.  A -0
 * takes the e^x arm, which gives 1 / (1 + 1) too.
 */
void
sigmoidBody(float *a, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float x = a[i];
        const std::uint32_t xbits = __builtin_bit_cast(std::uint32_t, x);
        const std::uint32_t abits = xbits & 0x7fffffffu;
        const std::uint32_t cbits =
            abits < kExpUnderflowBits ? abits : kExpUnderflowBits;
        const double xd =
            -static_cast<double>(__builtin_bit_cast(float, cbits));
        const double kd = __builtin_fma(kInvLn2N, xd, kRoundShift);
        const std::uint64_t ki = __builtin_bit_cast(std::uint64_t, kd);
        const double r = __builtin_fma(kInvLn2N, xd, -(kd - kRoundShift));
        const double s =
            __builtin_bit_cast(double, kExp2Table[ki % 32] + (ki << 47));
        const double y = __builtin_fma(__builtin_fma(kExpC0, r, kExpC1),
                                       r * r,
                                       __builtin_fma(kExpC2, r, 1.0));
        const std::uint32_t expBits =
            __builtin_bit_cast(std::uint32_t, static_cast<float>(y * s));
        const std::uint32_t nanBits =
            __builtin_bit_cast(std::uint32_t, x + x);
        // zeroMask: e^-|x| is +0 (|x| past the clamp, -inf and NaN
        // included); nanMask: x is a NaN, whose e^x is x + x.
        const std::uint32_t zeroMask =
            0u - static_cast<std::uint32_t>(abits > kExpUnderflowBits);
        const std::uint32_t nanMask =
            0u - static_cast<std::uint32_t>(abits > kInfBits);
        const float e = __builtin_bit_cast(
            float, (expBits & ~zeroMask) | (nanBits & nanMask));
        // posMask: x >= +0, the 1 / (1 + e^-x) arm.
        const std::uint32_t posMask =
            0u - static_cast<std::uint32_t>(xbits <= kInfBits);
        const float num = __builtin_bit_cast(
            float, (kOneBits & posMask) |
                       (__builtin_bit_cast(std::uint32_t, e) & ~posMask));
        a[i] = num / (1.0f + e);
    }
}

} // namespace

} // namespace ising::linalg::simd

#endif // ISINGRBM_LINALG_KERNEL_BODIES_HPP
