/**
 * @file
 * AVX-512 kernel tier (F + BW + VPOPCNTDQ).
 *
 * Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq only when the
 * compiler supports those flags (CMake defines ISINGRBM_SIMD_AVX512);
 * the dispatch table hands these entry points out only after the
 * CPUID probe confirmed the host runs them.  Everything here operates
 * on raw pointers so no inline header code with external linkage is
 * instantiated in this wider-ISA translation unit.
 *
 * Bit-identity with the generic tier: the accumulate kernel
 * vectorizes across output lanes only -- per lane the float additions
 * run in the identical ascending set-bit order, one vector add per
 * input row, no FMA, no horizontal reductions.  The gradient reduce
 * and popcount are the portable bodies of popcount_kernels.hpp, which
 * the compiler vectorizes here with VPOPCNTQ along the hidden axis;
 * they are exact integer counts, order-independent by construction.
 */

#ifdef ISINGRBM_SIMD_AVX512

#include <bit>
#include <cstddef>
#include <cstdint>
#include <immintrin.h>

#include "linalg/popcount_kernels.hpp"
#include "linalg/simd_dispatch.hpp"

namespace ising::linalg::simd::detail {

namespace {

void
addMaskedRowsAvx512(const float *w, std::size_t stride,
                    const std::uint64_t *words, std::size_t wordBegin,
                    std::size_t wordEnd, float *acc, std::size_t colLen)
{
    if (colLen == 128) {
        // Full column block: the accumulator lives in eight zmm
        // registers across the whole set-bit walk, so each input row
        // costs eight loads + adds and the latency chain rotates
        // across registers instead of round-tripping memory.
        __m512 a0 = _mm512_loadu_ps(acc + 0);
        __m512 a1 = _mm512_loadu_ps(acc + 16);
        __m512 a2 = _mm512_loadu_ps(acc + 32);
        __m512 a3 = _mm512_loadu_ps(acc + 48);
        __m512 a4 = _mm512_loadu_ps(acc + 64);
        __m512 a5 = _mm512_loadu_ps(acc + 80);
        __m512 a6 = _mm512_loadu_ps(acc + 96);
        __m512 a7 = _mm512_loadu_ps(acc + 112);
        for (std::size_t wi = wordBegin; wi < wordEnd; ++wi) {
            std::uint64_t word = words[wi];
            const std::size_t base = wi * 64;
            while (word) {
                const std::size_t i =
                    base +
                    static_cast<std::size_t>(std::countr_zero(word));
                word &= word - 1;  // ascending set-bit order
                const float *row = w + i * stride;
                a0 = _mm512_add_ps(a0, _mm512_loadu_ps(row + 0));
                a1 = _mm512_add_ps(a1, _mm512_loadu_ps(row + 16));
                a2 = _mm512_add_ps(a2, _mm512_loadu_ps(row + 32));
                a3 = _mm512_add_ps(a3, _mm512_loadu_ps(row + 48));
                a4 = _mm512_add_ps(a4, _mm512_loadu_ps(row + 64));
                a5 = _mm512_add_ps(a5, _mm512_loadu_ps(row + 80));
                a6 = _mm512_add_ps(a6, _mm512_loadu_ps(row + 96));
                a7 = _mm512_add_ps(a7, _mm512_loadu_ps(row + 112));
            }
        }
        _mm512_storeu_ps(acc + 0, a0);
        _mm512_storeu_ps(acc + 16, a1);
        _mm512_storeu_ps(acc + 32, a2);
        _mm512_storeu_ps(acc + 48, a3);
        _mm512_storeu_ps(acc + 64, a4);
        _mm512_storeu_ps(acc + 80, a5);
        _mm512_storeu_ps(acc + 96, a6);
        _mm512_storeu_ps(acc + 112, a7);
        return;
    }
    // Ragged tail block: lane-wise vector adds through the (L1-hot)
    // accumulator plus a masked remainder; per lane still one add per
    // set input row in ascending order.
    const __mmask16 tail =
        static_cast<__mmask16>((1u << (colLen & 15)) - 1);
    for (std::size_t wi = wordBegin; wi < wordEnd; ++wi) {
        std::uint64_t word = words[wi];
        const std::size_t base = wi * 64;
        while (word) {
            const std::size_t i =
                base + static_cast<std::size_t>(std::countr_zero(word));
            word &= word - 1;
            const float *row = w + i * stride;
            std::size_t j = 0;
            for (; j + 16 <= colLen; j += 16)
                _mm512_storeu_ps(
                    acc + j, _mm512_add_ps(_mm512_loadu_ps(acc + j),
                                           _mm512_loadu_ps(row + j)));
            if (tail)
                _mm512_mask_storeu_ps(
                    acc + j, tail,
                    _mm512_add_ps(_mm512_maskz_loadu_ps(tail, acc + j),
                                  _mm512_maskz_loadu_ps(tail, row + j)));
        }
    }
}

} // namespace

// extern: namespace-scope const defaults to internal linkage, but the
// dispatcher in simd_dispatch.cpp links against this definition.
extern const KernelTable kAvx512Table;
const KernelTable kAvx512Table = {
    IsaTier::Avx512,    "avx512",          addMaskedRowsAvx512,
    outerCountDiffBody, popcountWordsBody,
};

} // namespace ising::linalg::simd::detail

#endif // ISINGRBM_SIMD_AVX512
