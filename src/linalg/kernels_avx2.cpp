/**
 * @file
 * AVX2 kernel tier.
 *
 * Compiled with -mavx2 -mbmi -mbmi2 -mpopcnt only when the compiler
 * supports those flags (CMake defines ISINGRBM_SIMD_AVX2); dispatched
 * only after the CPUID probe confirmed AVX2 (every AVX2 part also has
 * BMI1/2 and POPCNT).  Raw-pointer kernels only -- see
 * kernels_avx512.cpp for why no inline header code may be
 * instantiated here.
 *
 * The accumulate kernel vectorizes across output lanes with 8-wide
 * ymm adds (per lane the ascending set-bit addition order of the
 * generic tier, no FMA, no reassociation).  The gradient reduce and
 * popcount are the portable bodies of popcount_kernels.hpp compiled
 * here: AVX2 has no vector popcount, so this tier's gain over a
 * baseline build is the scalar POPCNT instruction in place of the
 * bit-hack expansion.
 */

#ifdef ISINGRBM_SIMD_AVX2

#include <bit>
#include <cstddef>
#include <cstdint>
#include <immintrin.h>

#include "linalg/popcount_kernels.hpp"
#include "linalg/simd_dispatch.hpp"

namespace ising::linalg::simd::detail {

namespace {

void
addMaskedRowsAvx2(const float *w, std::size_t stride,
                  const std::uint64_t *words, std::size_t wordBegin,
                  std::size_t wordEnd, float *acc, std::size_t colLen)
{
    if (colLen == 128) {
        // 128 lanes need sixteen ymm accumulators -- more than the
        // register file once row loads join.  Split into two 64-lane
        // halves, each register-resident across its own full set-bit
        // walk; per lane the addition order is unchanged (lanes are
        // independent), only the order *across* halves moves, which
        // bit-identity does not constrain.
        for (int half = 0; half < 2; ++half) {
            float *ah = acc + half * 64;
            const float *wh = w + half * 64;
            __m256 a0 = _mm256_loadu_ps(ah + 0);
            __m256 a1 = _mm256_loadu_ps(ah + 8);
            __m256 a2 = _mm256_loadu_ps(ah + 16);
            __m256 a3 = _mm256_loadu_ps(ah + 24);
            __m256 a4 = _mm256_loadu_ps(ah + 32);
            __m256 a5 = _mm256_loadu_ps(ah + 40);
            __m256 a6 = _mm256_loadu_ps(ah + 48);
            __m256 a7 = _mm256_loadu_ps(ah + 56);
            for (std::size_t wi = wordBegin; wi < wordEnd; ++wi) {
                std::uint64_t word = words[wi];
                const std::size_t base = wi * 64;
                while (word) {
                    const std::size_t i =
                        base +
                        static_cast<std::size_t>(std::countr_zero(word));
                    word &= word - 1;  // ascending set-bit order
                    const float *row = wh + i * stride;
                    a0 = _mm256_add_ps(a0, _mm256_loadu_ps(row + 0));
                    a1 = _mm256_add_ps(a1, _mm256_loadu_ps(row + 8));
                    a2 = _mm256_add_ps(a2, _mm256_loadu_ps(row + 16));
                    a3 = _mm256_add_ps(a3, _mm256_loadu_ps(row + 24));
                    a4 = _mm256_add_ps(a4, _mm256_loadu_ps(row + 32));
                    a5 = _mm256_add_ps(a5, _mm256_loadu_ps(row + 40));
                    a6 = _mm256_add_ps(a6, _mm256_loadu_ps(row + 48));
                    a7 = _mm256_add_ps(a7, _mm256_loadu_ps(row + 56));
                }
            }
            _mm256_storeu_ps(ah + 0, a0);
            _mm256_storeu_ps(ah + 8, a1);
            _mm256_storeu_ps(ah + 16, a2);
            _mm256_storeu_ps(ah + 24, a3);
            _mm256_storeu_ps(ah + 32, a4);
            _mm256_storeu_ps(ah + 40, a5);
            _mm256_storeu_ps(ah + 48, a6);
            _mm256_storeu_ps(ah + 56, a7);
        }
        return;
    }
    // Ragged tail block: 8-wide adds through the hot accumulator plus
    // a scalar remainder, per set input row in ascending order.
    for (std::size_t wi = wordBegin; wi < wordEnd; ++wi) {
        std::uint64_t word = words[wi];
        const std::size_t base = wi * 64;
        while (word) {
            const std::size_t i =
                base + static_cast<std::size_t>(std::countr_zero(word));
            word &= word - 1;
            const float *row = w + i * stride;
            std::size_t j = 0;
            for (; j + 8 <= colLen; j += 8)
                _mm256_storeu_ps(
                    acc + j, _mm256_add_ps(_mm256_loadu_ps(acc + j),
                                           _mm256_loadu_ps(row + j)));
            for (; j < colLen; ++j)
                acc[j] += row[j];
        }
    }
}

} // namespace

// extern: namespace-scope const defaults to internal linkage, but the
// dispatcher in simd_dispatch.cpp links against this definition.
extern const KernelTable kAvx2Table;
const KernelTable kAvx2Table = {
    IsaTier::Avx2,      "avx2",            addMaskedRowsAvx2,
    outerCountDiffBody, popcountWordsBody,
};

} // namespace ising::linalg::simd::detail

#endif // ISINGRBM_SIMD_AVX2
