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

} // namespace

} // namespace ising::linalg::simd

#endif // ISINGRBM_LINALG_KERNEL_BODIES_HPP
