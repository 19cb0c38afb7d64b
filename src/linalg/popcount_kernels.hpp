/**
 * @file
 * The AND-popcount kernels of every ISA tier (private to linalg/).
 *
 * simd_dispatch.cpp, kernels_avx2.cpp and kernels_avx512.cpp each
 * include this one portable body in their KernelTable, so every tier
 * compiles the same source under its own -m flags and the compiler
 * picks the popcount that tier has: the baseline bit-hack, scalar
 * POPCNT, or VPOPCNTQ auto-vectorized along the hidden axis.  No
 * hand-written popcount kernel beat that by a measured margin.
 *
 * Everything here has internal linkage and calls builtins only, never
 * an inline library template: an inline function is a comdat in each
 * translation unit that emits it, and the linker keeps one copy --
 * possibly a wider tier's -- for all of them (see simd_dispatch.hpp).
 */

#ifndef ISINGRBM_LINALG_POPCOUNT_KERNELS_HPP
#define ISINGRBM_LINALG_POPCOUNT_KERNELS_HPP

#include <cstddef>
#include <cstdint>

namespace ising::linalg::simd {

namespace {

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

#endif // ISINGRBM_LINALG_POPCOUNT_KERNELS_HPP
