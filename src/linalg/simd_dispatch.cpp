/**
 * @file
 * The generic kernel table, CPUID probing and tier selection.
 *
 * The generic table is the kernel bodies of kernel_bodies.hpp compiled
 * at this file's flags: the baseline ISA, or -march=native in a native
 * build.  The AVX2/AVX-512 tables compile the same bodies in their own
 * translation units (kernels_avx2.cpp / kernels_avx512.cpp) with the
 * matching -m flags and are linked in only when the compiler supports
 * those flags (ISINGRBM_SIMD_AVX2 / ISINGRBM_SIMD_AVX512).
 */

#include "linalg/simd_dispatch.hpp"

#include <cstdlib>

#include "linalg/kernel_bodies.hpp"
#include "util/logging.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define ISINGRBM_X86 1
#endif

namespace ising::linalg::simd {

namespace {

const KernelTable kGenericTable = {
    IsaTier::Generic,   "generic",         accumulateTileBody,
    outerCountDiffBody, popcountWordsBody, sigmoidBody,
};

// ------------------------------------------------------------- CPUID probe

struct CpuFeatures
{
    bool avx2 = false;    ///< AVX2 + FMA
    bool avx512 = false;  ///< F + BW + VPOPCNTDQ + FMA + OS zmm state
};

CpuFeatures
probeCpu()
{
#ifdef ISINGRBM_X86
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return {};
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx = (ecx & (1u << 28)) != 0;
    // Both SIMD tiers compile with -mfma (the sigmoid's fused steps).
    const bool fma = (ecx & (1u << 12)) != 0;
    if (!osxsave || !avx || !fma)
        return {};
    // XCR0: the OS must save the state the wider registers live in, or
    // executing the instructions faults regardless of CPUID bits.
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    const std::uint64_t xcr0 =
        (static_cast<std::uint64_t>(hi) << 32) | lo;
    if ((xcr0 & 0x6) != 0x6)  // XMM + YMM state
        return {};
    if (__get_cpuid_max(0, nullptr) < 7)
        return {};
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    CpuFeatures f;
    f.avx2 = (ebx & (1u << 5)) != 0;
    const bool zmmState = (xcr0 & 0xE6) == 0xE6;  // + opmask/zmm state
    f.avx512 = zmmState && (ebx & (1u << 16)) != 0 &&  // AVX512F
               (ebx & (1u << 30)) != 0 &&              // AVX512BW
               (ecx & (1u << 14)) != 0;                // VPOPCNTDQ
    return f;
#else
    return {};
#endif
}

const CpuFeatures &
cpu()
{
    static const CpuFeatures features = probeCpu();
    return features;
}

} // namespace

#ifdef ISINGRBM_SIMD_AVX2
namespace detail { extern const KernelTable kAvx2Table; }
#endif
#ifdef ISINGRBM_SIMD_AVX512
namespace detail { extern const KernelTable kAvx512Table; }
#endif

const char *
tierName(IsaTier tier)
{
    switch (tier) {
    case IsaTier::Auto: return "auto";
    case IsaTier::Generic: return "generic";
    case IsaTier::Avx2: return "avx2";
    case IsaTier::Avx512: return "avx512";
    }
    return "unknown";
}

bool
tierFromName(const std::string &name, IsaTier &out)
{
    for (const IsaTier tier :
         {IsaTier::Auto, IsaTier::Generic, IsaTier::Avx2, IsaTier::Avx512}) {
        if (name == tierName(tier)) {
            out = tier;
            return true;
        }
    }
    return false;
}

const KernelTable *
table(IsaTier tier)
{
    switch (tier) {
    case IsaTier::Generic:
        return &kGenericTable;
    case IsaTier::Avx2:
#ifdef ISINGRBM_SIMD_AVX2
        return cpu().avx2 ? &detail::kAvx2Table : nullptr;
#else
        return nullptr;
#endif
    case IsaTier::Avx512:
#ifdef ISINGRBM_SIMD_AVX512
        return cpu().avx512 ? &detail::kAvx512Table : nullptr;
#else
        return nullptr;
#endif
    default:
        return nullptr;  // Auto names no table
    }
}

IsaTier
detectedTier()
{
    if (table(IsaTier::Avx512))
        return IsaTier::Avx512;
    if (table(IsaTier::Avx2))
        return IsaTier::Avx2;
    return IsaTier::Generic;
}

IsaTier
envTier()
{
    const char *env = std::getenv("ISINGRBM_ISA");
    if (!env || !*env)
        return IsaTier::Auto;
    IsaTier tier = IsaTier::Auto;
    if (!tierFromName(env, tier)) {
        static bool warnedUnknown = false;
        if (!warnedUnknown) {
            warnedUnknown = true;
            util::warn(util::strcat("isingrbm: ISINGRBM_ISA='", env,
                                    "' is not a known tier "
                                    "(auto|generic|avx2|avx512); "
                                    "using auto-detection"));
        }
        return IsaTier::Auto;
    }
    if (tier == IsaTier::Auto)
        return tier;
    if (!table(tier)) {
        static bool warnedUnavailable = false;
        if (!warnedUnavailable) {
            warnedUnavailable = true;
            util::warn(util::strcat("isingrbm: ISINGRBM_ISA='", env,
                                    "' is not available on this "
                                    "host/build; using auto-detection"));
        }
        return IsaTier::Auto;
    }
    return tier;
}

IsaTier
defaultTier()
{
    const IsaTier tier = envTier();
    return tier == IsaTier::Auto ? detectedTier() : tier;
}

const KernelTable &
activeTable()
{
    return *table(defaultTier());
}

} // namespace ising::linalg::simd
