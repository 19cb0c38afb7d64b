/**
 * @file
 * Runtime ISA dispatch for the packed Gibbs hot kernels.
 *
 * The library ships one portable binary.  Every tier's table holds
 * the same portable kernel bodies (kernel_bodies.hpp), each compiled
 * in its own translation unit under that tier's flags: the baseline
 * ISA (or -march=native) for generic, -mavx2 -mfma for AVX2,
 * -mavx512f -mavx512bw -mavx512vpopcntdq -mfma for AVX-512.  A CPUID
 * probe picks the highest tier the host can actually run (FMA
 * included) the first time a kernel is needed.  The function-pointer
 * table moves time, never results.
 *
 * Bit-reproducibility bounds what the compiler may do with those
 * bodies (see linalg/bitops.hpp for the full contract): per output
 * lane the float additions run in ascending input-unit order, so the
 * accumulate vectorizes *across* output lanes only -- each lane
 * performs the exact scalar addition sequence -- and no FMA,
 * horizontal add or reassociation enters the sum.  The AND-popcount
 * gradient reduce is exact integer arithmetic, order-independent by
 * construction (VPOPCNTQ along the hidden axis on AVX-512).  The
 * sigmoid is elementwise with its FMAs written out as builtins, so a
 * lane computes the scalar result whatever the width (a baseline
 * build without FMA instructions reaches them through libm's
 * correctly rounded fma).  The Bernoulli latch consumes one RNG draw
 * per unit in ascending order and therefore stays scalar common code
 * outside this table.  Every tier is byte-identical to the generic
 * reference.
 *
 * Tier selection is made here and nowhere above: the CPUID probe,
 * unless the ISINGRBM_ISA environment variable names a tier this host
 * can run.  Every tier is a kernel table; no tier selects the float
 * pipeline, which runs where the input is not binary.
 */

#ifndef ISINGRBM_LINALG_SIMD_DISPATCH_HPP
#define ISINGRBM_LINALG_SIMD_DISPATCH_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace ising::linalg::simd {

/**
 * Kernel ISA tiers, in dispatch-preference order.  Auto defers to the
 * CPUID probe; the rest name concrete kernel tables.
 */
enum class IsaTier { Auto = 0, Generic, Avx2, Avx512 };

/** Lower-case tag: auto|generic|avx2|avx512. */
const char *tierName(IsaTier tier);

/** Parse a tier tag; false (and @p out untouched) on unknown names. */
bool tierFromName(const std::string &name, IsaTier &out);

/**
 * One tier's kernel entry points: the bodies of kernel_bodies.hpp
 * compiled under that tier's flags.  All kernels take raw pointers
 * and strides so the per-ISA translation units never instantiate
 * inline header code with external linkage (whose comdat copies could
 * otherwise leak wider ISA instructions into portable functions at
 * link time).
 */
struct KernelTable
{
    IsaTier tier;
    const char *name;

    /**
     * act(r, j) += the w rows of the set input bits of row r, in
     * ascending input-unit order, for chains r in [rowBegin, rowEnd)
     * and columns j in [colBegin, colEnd).  Row i of w starts at
     * w + i * wStride, row r of the packed input at in + r * inWords,
     * row r of act at act + r * actStride.  The additions per lane
     * run in ascending set-bit order -- the reproducibility-contract
     * sequence.
     */
    void (*accumulateTile)(const float *w, std::size_t wStride,
                           const std::uint64_t *in, std::size_t inWords,
                           float *act, std::size_t actStride,
                           std::size_t rowBegin, std::size_t rowEnd,
                           std::size_t colBegin, std::size_t colEnd);

    /**
     * out(i, j) = popcount(a_i & b_j) - popcount(c_i & d_j) for rows
     * i in [rowBegin, rowEnd), j in [0, n), over @p words >= 1 words.
     * Row i of a/c is @p words consecutive uint64s; b/d are word-major
     * (word w of unit j at b[w * n + j]); row i of out starts at
     * out + i * outStride.  Exact integer counts, any summation order.
     */
    void (*outerCountDiff)(const std::uint64_t *a, const std::uint64_t *b,
                           const std::uint64_t *c, const std::uint64_t *d,
                           std::size_t words, std::size_t n, float *out,
                           std::size_t outStride, std::size_t rowBegin,
                           std::size_t rowEnd);

    /** Total set bits over n words. */
    std::size_t (*popcountWords)(const std::uint64_t *words,
                                 std::size_t n);

    /**
     * a[i] = sigmoid(a[i]) in place for i in [0, n): in float,
     * x >= 0 ? 1 / (1 + e^-x) : e^x / (1 + e^x), with e^x evaluated
     * as glibc's FMA build of expf evaluates it (NaN in, quieted NaN
     * out).  The one float sigmoid of the repo: the conditional mean
     * of the packed half-sweeps and of the float pipeline, so its bits
     * are part of the reproducibility contract and never depend on
     * the host's libm.
     */
    void (*sigmoid)(float *a, std::size_t n);
};

/**
 * The kernel table for a concrete SIMD tier, or nullptr when that
 * tier was compiled out of this binary or this CPU cannot run it.
 * Generic never returns nullptr; Auto always does (it names no
 * table).  Tests compare tiers kernel-by-kernel through this.
 */
const KernelTable *table(IsaTier tier);

/** Highest tier this binary + CPU can run (CPUID probe; >= Generic). */
IsaTier detectedTier();

/**
 * The ISINGRBM_ISA env override: Auto when unset, empty, unknown or
 * naming a tier this host cannot run (the latter two warn once).
 * Re-read per call so tests can manipulate the environment.
 */
IsaTier envTier();

/** envTier() when set, else detectedTier(); never Auto. */
IsaTier defaultTier();

/** The table of defaultTier(): what every caller dispatches through. */
const KernelTable &activeTable();

} // namespace ising::linalg::simd

#endif // ISINGRBM_LINALG_SIMD_DISPATCH_HPP
