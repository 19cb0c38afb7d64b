/**
 * @file
 * Unified conditional-sampling interface over an RBM energy landscape.
 *
 * The repo previously carried three divergent copies of the block-Gibbs
 * half-sweeps: the software chain (rbm/gibbs.cpp), the clamped
 * resampling loop (rbm/sampling.cpp) and the fabric settle loop inside
 * the GS accelerator.  All of them are the same two operations --
 * latch h given v, latch v given h -- differing only in *what*
 * evaluates the conditional: exact sigmoid math or the noisy analog
 * substrate.  SamplingBackend captures exactly that surface, so every
 * chain, sampler and app can swap exact software sampling for
 * noisy-fabric sampling via configuration instead of bespoke code
 * (SoftwareGibbsBackend here; accel::AnalogFabricBackend for the
 * substrate).
 *
 * Batched surface: every workload that matters runs *many* chains at
 * once (minibatch positions, PCD particles, fantasy fan-outs), so the
 * interface also exposes whole-minibatch half-sweeps over (batch x
 * units) matrices with one RNG stream per chain row.  The defaults
 * fan the rows over the worker pool through the scalar methods, so
 * backends whose physics sample one state at a time (the analog
 * fabric) work unchanged; SoftwareGibbsBackend overrides them with
 * bit-packed cache-tiled kernels that are bit-identical to the scalar
 * path (see linalg/bitops.hpp for the reproducibility contract), and
 * adds the packed-in, packed-out half-sweeps the serving path calls.
 */

#ifndef ISINGRBM_RBM_SAMPLING_BACKEND_HPP
#define ISINGRBM_RBM_SAMPLING_BACKEND_HPP

#include "exec/thread_pool.hpp"
#include "linalg/bits.hpp"
#include "linalg/simd_dispatch.hpp"
#include "rbm/rbm.hpp"

namespace ising::rbm {

/** One conditional-sampling engine: the two Gibbs half-sweeps. */
class SamplingBackend
{
  public:
    virtual ~SamplingBackend() = default;

    virtual std::size_t numVisible() const = 0;
    virtual std::size_t numHidden() const = 0;

    /** Human-readable backend tag for logs and tables. */
    virtual const char *name() const = 0;

    /**
     * Latch a binary hidden sample h given visible levels v.  @p ph
     * receives the per-unit means the backend sampled from; backends
     * whose physics only expose latched bits (the analog fabric)
     * report the sample itself.
     */
    virtual void sampleHidden(const linalg::Vector &v, linalg::Vector &h,
                              linalg::Vector &ph,
                              util::Rng &rng) const = 0;

    /** Mirror half-sweep: latch visible sample v given hidden bits h. */
    virtual void sampleVisible(const linalg::Vector &h, linalg::Vector &v,
                               linalg::Vector &pv,
                               util::Rng &rng) const = 0;

    /**
     * Free-running evolution: @p steps alternating v|h -> h|v sweeps
     * from the current hidden state -- the negative-phase random walk
     * of CD, PCD, GS and BGF alike.  The default implementation is the
     * alternating loop every current backend uses.
     */
    virtual void anneal(int steps, linalg::Vector &v, linalg::Vector &h,
                        linalg::Vector &pv, linalg::Vector &ph,
                        util::Rng &rng) const;

    /**
     * Batched half-sweep: row r of @p h / @p ph is the hidden sample /
     * conditional means for visible state row r of @p v, with rngs[r]
     * driving chain r (one stream per row keeps results reproducible
     * for any worker count).  Outputs are resized to (v.rows() x
     * numHidden()).  Default: scalar sampleHidden per row, fanned over
     * the worker pool.
     */
    virtual void sampleHiddenBatch(const linalg::Matrix &v,
                                   linalg::Matrix &h, linalg::Matrix &ph,
                                   util::Rng *rngs) const;

    /** Mirror batched half-sweep: visible rows from hidden rows. */
    virtual void sampleVisibleBatch(const linalg::Matrix &h,
                                    linalg::Matrix &v, linalg::Matrix &pv,
                                    util::Rng *rngs) const;

    /**
     * Batched free-running evolution: @p steps alternating sweeps of
     * every chain row from its current hidden state, rngs[r] driving
     * row r.  @p v / @p pv / @p ph are resized and overwritten with
     * the final samples and last-sweep means; with steps <= 0 nothing
     * runs and no output is touched.  Default: scalar anneal per row,
     * fanned over the worker pool.
     */
    virtual void annealBatch(int steps, linalg::Matrix &v,
                             linalg::Matrix &h, linalg::Matrix &pv,
                             linalg::Matrix &ph, util::Rng *rngs) const;

  protected:
    /**
     * Pool the batched default implementations fan rows over; nullptr
     * selects exec::globalPool().  Backends with a configured pool
     * override this so scalar fallbacks honor it too.
     */
    virtual exec::ThreadPool *batchPool() const { return nullptr; }
};

/**
 * Exact software sampling: conditionals evaluated in float math via
 * the blocked linalg kernels, with bit-packed fast paths for binary
 * states.
 *
 * The visible half-sweep runs off a transpose of W cached at
 * construction, so both directions traverse contiguous rows and skip
 * zero entries of the (binary) input state.  Rows of W mutated after
 * construction reach the visible sweep through refreshTranspose();
 * the biases are read from the model on every sweep.
 *
 * The batched methods and anneal() pack binary states one unit per
 * bit and run the linalg/bitops.hpp kernels: conditional row adds
 * over packed words, cache-tiled over the minibatch, threaded over
 * chains when the batch is deep and over units within the sweep when
 * it is shallow.  A single chain (anneal) is a one-row batch swept
 * serially on the calling thread.  Every shape produces bit-identical
 * chains to the scalar float path (the kernels share its addition
 * order and RNG consumption order).  Binary input is the one thing
 * that selects the packed path: non-binary input (DBN upper layers,
 * probabilities, clamps) takes the float path, the only one that can
 * carry it.  The tiled walk skips empty input words, so one packed
 * path serves every activity level: a near-empty data sweep and a
 * saturated hidden sweep of the same chain run the same kernels.
 *
 * The kernel tier is linalg::simd::defaultTier() at construction: the
 * ISINGRBM_ISA override, else the CPUID probe.  Every tier is
 * bit-identical, so the tier moves time, never results.
 */
class SoftwareGibbsBackend final : public SamplingBackend
{
  public:
    /**
     * @param model sampled model (borrowed; must outlive the backend)
     * @param pool pool for the batched kernels (borrowed; nullptr
     *        selects exec::globalPool())
     */
    explicit SoftwareGibbsBackend(const Rbm &model,
                                  exec::ThreadPool *pool = nullptr);

    /**
     * Copy rows [rowBegin, rowEnd) of the model's W into the cached
     * transpose after they changed.  Disjoint ranges write disjoint
     * entries, so workers may refresh their own rows concurrently
     * (while no sweep runs).
     */
    void refreshTranspose(std::size_t rowBegin, std::size_t rowEnd);

    std::size_t numVisible() const override { return model_->numVisible(); }
    std::size_t numHidden() const override { return model_->numHidden(); }
    const char *name() const override { return "software"; }

    /** The kernel table the packed paths run. */
    const linalg::simd::KernelTable &kernelTable() const { return kt_; }

    void sampleHidden(const linalg::Vector &v, linalg::Vector &h,
                      linalg::Vector &ph, util::Rng &rng) const override;
    void sampleVisible(const linalg::Vector &h, linalg::Vector &v,
                       linalg::Vector &pv, util::Rng &rng) const override;

    /** One-row packed batch: the state stays packed across all sweeps. */
    void anneal(int steps, linalg::Vector &v, linalg::Vector &h,
                linalg::Vector &pv, linalg::Vector &ph,
                util::Rng &rng) const override;

    void sampleHiddenBatch(const linalg::Matrix &v, linalg::Matrix &h,
                           linalg::Matrix &ph,
                           util::Rng *rngs) const override;
    void sampleVisibleBatch(const linalg::Matrix &h, linalg::Matrix &v,
                            linalg::Matrix &pv,
                            util::Rng *rngs) const override;
    void annealBatch(int steps, linalg::Matrix &v, linalg::Matrix &h,
                     linalg::Matrix &pv, linalg::Matrix &ph,
                     util::Rng *rngs) const override;

    /**
     * Packed-input batched half-sweep: like sampleHiddenBatch, but the
     * visible rows arrive bit-packed (as the serving path gathers
     * them) and the sampled hidden bits stay packed in @p h; only the
     * conditional means @p ph materialize as floats.  No float detour
     * at all on the serving miss path.
     */
    void sampleHiddenBatchPacked(const linalg::BitMatrix &v,
                                 linalg::BitMatrix &h, linalg::Matrix &ph,
                                 util::Rng *rngs) const;

    /** Mirror packed half-sweep: packed visible from packed hidden. */
    void sampleVisibleBatchPacked(const linalg::BitMatrix &h,
                                  linalg::BitMatrix &v, linalg::Matrix &pv,
                                  util::Rng *rngs) const;

  protected:
    exec::ThreadPool *batchPool() const override { return pool_; }

  private:
    /**
     * One packed batched half-sweep in -> out over @p w (rows = input
     * units): threads chains over workers for deep batches, units
     * within the sweep for shallow ones.
     */
    void packedLayerBatch(const linalg::Matrix &w, const linalg::Vector &b,
                          const linalg::BitMatrix &in,
                          linalg::BitMatrix &out, linalg::Matrix &means,
                          util::Rng *rngs) const;

    const Rbm *model_;
    linalg::Matrix wT_;  ///< cached transpose for the visible sweep
    exec::ThreadPool *pool_;
    const linalg::simd::KernelTable &kt_;
};

} // namespace ising::rbm

#endif // ISINGRBM_RBM_SAMPLING_BACKEND_HPP
