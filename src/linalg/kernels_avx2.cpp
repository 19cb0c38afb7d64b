/**
 * @file
 * AVX2 kernel tier.
 *
 * The kernel bodies of kernel_bodies.hpp compiled with -mavx2 -mfma
 * -mbmi -mbmi2 -mpopcnt, only when the compiler supports those flags
 * (CMake defines ISINGRBM_SIMD_AVX2); dispatched only after the CPUID
 * probe confirmed AVX2 and FMA (every AVX2 part also has BMI1/2 and
 * POPCNT).  Raw pointers and internal-linkage bodies only, so no
 * inline header code with external linkage is instantiated in this
 * wider-ISA translation unit.  Here the accumulate's column block is
 * 16 ymm registers, the reduce uses scalar POPCNT (AVX2 has no vector
 * popcount), and the sigmoid runs in ymm registers with VFMADD (GCC's
 * -mavx2 does not imply -mfma; without it every fused step would be a
 * call to libm's fma).
 */

#ifdef ISINGRBM_SIMD_AVX2

#include "linalg/kernel_bodies.hpp"
#include "linalg/simd_dispatch.hpp"

namespace ising::linalg::simd::detail {

// extern: namespace-scope const defaults to internal linkage, but the
// dispatcher in simd_dispatch.cpp links against this definition.
extern const KernelTable kAvx2Table;
const KernelTable kAvx2Table = {
    IsaTier::Avx2,      "avx2",            accumulateTileBody,
    outerCountDiffBody, popcountWordsBody, sigmoidBody,
};

} // namespace ising::linalg::simd::detail

#endif // ISINGRBM_SIMD_AVX2
