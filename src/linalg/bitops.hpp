/**
 * @file
 * Packed sampling kernels over bit-packed binary states.
 *
 * These are the Gibbs hot-path kernels: where the float kernels
 * multiply-accumulate every weight entry (skipping zeros with a
 * branch), the packed kernels iterate the *set* input units with
 * count-trailing-zeros and add whole weight rows, walking W once per
 * minibatch instead of once per chain (a single chain is a one-row
 * minibatch).  An empty input word costs the walk one test, so the
 * same kernels serve every activity level, from near-empty rows to
 * saturated ones.
 *
 * Reproducibility contract (bit-for-bit with the float path):
 *
 *  - the pre-activation for output unit j is bias[j] plus the weight
 *    rows of the set input units added in ascending input-unit order
 *    -- the exact float addition sequence linalg::affineSigmoid
 *    performs on a binary input (1.0f * w == w exactly in IEEE);
 *  - the conditional mean is the KernelTable::sigmoid entry of that
 *    pre-activation, the one float sigmoid the float path applies
 *    too (every tier's entry gives the same bits, those of glibc's
 *    FMA expf formula, whatever the host's libm);
 *  - sampling consumes exactly one rng.uniformFloat() per output unit
 *    in ascending unit order and latches bit j iff the draw is below
 *    the mean -- the exact sequence of Rbm::sampleBinary.
 *
 * Any chain built from these kernels therefore reproduces the float
 * chain bit-for-bit when both run the same per-chain RNG stream.
 * Binary input is what selects these kernels (isBinary01); the float
 * path carries non-binary input, where it is the only path.  The
 * build rounds every float product before adding it
 * (-ffp-contract=off), so the float path's bits on non-binary input
 * are the same in a native and a portable build.
 */

#ifndef ISINGRBM_LINALG_BITOPS_HPP
#define ISINGRBM_LINALG_BITOPS_HPP

#include "linalg/bits.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd_dispatch.hpp"
#include "util/rng.hpp"

namespace ising::linalg {

// Every packed kernel below takes the simd::KernelTable of the tier it
// runs: SoftwareGibbsBackend and CdTrainer pass the table they
// resolved at construction, the tier byte-identity tests pass each
// tier in turn, and other callers pass simd::activeTable() (this
// process's tier).  All tiers are bit-identical, so the table moves
// time, never results.  A single chain is a one-row batch: there is
// one walk, the batched one.

/** True when every entry is exactly 0.0f or 1.0f (packable). */
bool isBinary01(const float *x, std::size_t n);
bool isBinary01(const Matrix &m);

/**
 * Batched pre-activation tile: for every chain r in [rowBegin,
 * rowEnd), act(r, j) = b[j] + the w rows (restricted to columns
 * [colBegin, colEnd)) of the set input bits of row r, added in
 * ascending input-unit order -- conditional row adds over packed
 * words in place of the float multiply-accumulate of affineSigmoid.
 * w is (p x q), in holds p packed inputs per row.  After the bias
 * fill the whole tile is one KernelTable::accumulateTile call, which
 * walks W in (column block x input word) tiles reused across all
 * chains; a chain whose input word is zero costs one test for that
 * word, so the walk's cost follows the set bits at any activity.  Per
 * (chain, j) the addition order is still ascending input unit,
 * preserving the reproducibility contract.  act must be pre-sized
 * (in.rows() x w.cols()); only the addressed tile is written.
 */
void accumulateBatchTile(const simd::KernelTable &kt, const Matrix &w,
                         const BitMatrix &in, const Vector &b, Matrix &act,
                         std::size_t rowBegin, std::size_t rowEnd,
                         std::size_t colBegin, std::size_t colEnd);

/**
 * Sampling stage of a batched half-sweep for one chain row: replace
 * act(r, .) in place with sigmoid means (kt.sigmoid over the row) and
 * latch packed bits using rng (one draw per unit, ascending).
 */
void sampleBatchRow(const simd::KernelTable &kt, Matrix &act,
                    std::size_t r, BitMatrix &out, util::Rng &rng);

/**
 * Whole-minibatch packed half-sweep: out/means row r is the sampled
 * state / conditional means of chain r given input row r, with rngs[r]
 * driving chain r: means = sigmoid(act), out bit j = (uniformFloat() <
 * means[j]), one draw per output unit in ascending order (see the file
 * contract).  Serial reference composition of the tile and
 * row-sampling kernels; callers that want threading split the tiles
 * across a pool themselves (see SoftwareGibbsBackend), and a single
 * chain runs it as a one-row batch.
 */
void sampleBatch(const simd::KernelTable &kt, const Matrix &w,
                 const BitMatrix &in, const Vector &b, BitMatrix &out,
                 Matrix &means, util::Rng *rngs);

/**
 * Pack src transposed: dst row c holds bit r iff src(r, c) != 0, so a
 * (batch x units) float state matrix becomes per-unit bit columns
 * along the batch axis.  Feeds the popcount gradient reduce.
 */
void packTransposed(const Matrix &src, BitMatrix &dst);

/**
 * Batched binary outer-product difference: out(i, j) = |{k : a_i[k] &
 * b_j[k]}| - |{k : c_i[k] & d_j[k]}| for rows i in [rowBegin, rowEnd).
 *
 * This is the CD gradient reduce dW = V+^T H+ - V-^T H- when every
 * state is binary: each entry is an AND-popcount over the batch axis,
 * and because all partial sums are small integers the result is
 * *exactly* the float-accumulated value, independent of any summation
 * order.  a/c have out.rows() rows, b/d out.cols() rows, all with the
 * same (batch) bit count.
 */
void outerCountDiff(const simd::KernelTable &kt, const BitMatrix &a,
                    const BitMatrix &b, const BitMatrix &c,
                    const BitMatrix &d, Matrix &out, std::size_t rowBegin,
                    std::size_t rowEnd);

/** Set bits per row: counts[r] = popcount(m row r). */
void rowCounts(const simd::KernelTable &kt, const BitMatrix &m,
               float *counts);

} // namespace ising::linalg

#endif // ISINGRBM_LINALG_BITOPS_HPP
