/**
 * @file
 * AVX-512 kernel tier (F + BW + VPOPCNTDQ).
 *
 * The kernel bodies of kernel_bodies.hpp compiled with -mavx512f
 * -mavx512bw -mavx512vpopcntdq -mfma, only when the compiler supports
 * those flags (CMake defines ISINGRBM_SIMD_AVX512); the dispatch table
 * hands these entry points out only after the CPUID probe confirmed
 * the host runs them.  Raw pointers and internal-linkage bodies only,
 * so no inline header code with external linkage is instantiated in
 * this wider-ISA translation unit.  Here the accumulate's column block
 * is 8 zmm registers in a native build, the reduce vectorizes with
 * VPOPCNTQ along the hidden axis, and the sigmoid runs in zmm
 * registers with VFMADD (-mavx512f does not imply -mfma in GCC).
 */

#ifdef ISINGRBM_SIMD_AVX512

#include "linalg/kernel_bodies.hpp"
#include "linalg/simd_dispatch.hpp"

namespace ising::linalg::simd::detail {

// extern: namespace-scope const defaults to internal linkage, but the
// dispatcher in simd_dispatch.cpp links against this definition.
extern const KernelTable kAvx512Table;
const KernelTable kAvx512Table = {
    IsaTier::Avx512,    "avx512",          accumulateTileBody,
    outerCountDiffBody, popcountWordsBody, sigmoidBody,
};

} // namespace ising::linalg::simd::detail

#endif // ISINGRBM_SIMD_AVX512
