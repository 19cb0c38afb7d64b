/**
 * @file
 * Type-erased serving view over any checkpointed model family.
 *
 * The checkpoint archive (rbm/serialize.hpp) can persist six model
 * families with distinct native APIs; a scenario runtime cannot
 * special-case all of them at every call site.  engine::Model closes
 * that gap: it owns one loaded Checkpoint and exposes the serving
 * operations (sample / featurize / classify / reconstruct) as batched,
 * row-independent calls, routing every family through the batched
 * and packed half-sweeps of an `rbm::SoftwareGibbsBackend` where a
 * flat joint RBM exists (Rbm itself, ClassRbm's joint model, CfRbm's
 * softmax-group weight matrix, each DBN layer) and through the
 * family's own math elsewhere (ConvRbm feature pooling, DBM
 * mean-field).
 *
 * Determinism contract (the server relies on it): every operation is
 * row-independent -- row r of a batch reads only rngs[r] (stochastic
 * ops) or no randomness at all (featurize/classify), and the batched
 * kernels underneath guarantee a row's bits do not depend on batch
 * depth, worker count or the kernel tier the backends resolved at
 * construction (linalg::simd::defaultTier()).  Serving a row alone or
 * coalesced with any other rows therefore produces identical bits.
 */

#ifndef ISINGRBM_ENGINE_MODEL_HPP
#define ISINGRBM_ENGINE_MODEL_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "rbm/sampling_backend.hpp"
#include "rbm/serialize.hpp"

namespace ising::engine {

/** Serving operations a model can support. */
enum class Op { Sample, Featurize, Classify, Reconstruct };

/** CLI/config spelling of an operation. */
const char *opName(Op op);

/** Inverse of opName; fatal on unknown names. */
Op opFromName(const std::string &name);

/**
 * Reusable buffers for the batched serving ops.  The ops need a
 * handful of (batch x units) staging matrices per call; a serving
 * loop that allocated them fresh per coalesced group would spend its
 * small-request regime in the allocator.  One scratch instance per
 * serving thread (engine::Server keeps one), handed into every op:
 * buffers are resized only when the kernel-batch shape changes, so
 * the steady state allocates nothing.  Models stay immutable and
 * shareable across threads because the mutable state lives here.
 */
struct BatchScratch
{
    linalg::Matrix a, b, c, d;    ///< half-sweep state/means buffers
    linalg::Matrix stage;         ///< layer-stack staging rows
    linalg::BitMatrix pa, pb;     ///< packed half-sweep states
    std::vector<util::Rng> rngs;  ///< deterministic-op scratch streams
};

/**
 * One loaded model: a checkpoint plus the backends that serve it.
 * Immutable after construction; safe to share across threads.
 */
class Model
{
  public:
    /**
     * @param ckpt checkpoint to serve (taken by value and owned)
     * @param pool worker pool for the batched kernels (borrowed;
     *        nullptr selects exec::globalPool())
     */
    explicit Model(rbm::Checkpoint ckpt,
                   exec::ThreadPool *pool = nullptr);

    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;

    const rbm::Checkpoint &checkpoint() const { return ckpt_; }
    const rbm::CheckpointMeta &meta() const { return ckpt_.meta; }
    rbm::ModelFamily family() const { return ckpt_.family(); }
    const char *familyName() const { return rbm::familyTag(family()); }

    /** True when the family implements the operation. */
    bool supports(Op op) const;

    /**
     * True when the operation can consume a bit-packed input plane
     * (the *RowsPacked overloads): data-bearing ops of the families
     * served through a flat joint RBM.  ConvRbm/Dbm family math and
     * exact classification read float rows directly, so packing would
     * only add a round-trip there.
     */
    bool supportsPackedInput(Op op) const;

    // ------------------------------------------------ identity stamp
    // The CRC-64 trailer of the checkpoint archive this model was
    // loaded from, recorded by the registry at install time.  It
    // uniquely identifies the serving parameter bytes, which is what
    // lets the server key its deterministic response cache on it:
    // promote/reload/overwrite publishes a different trailer, so stale
    // cache entries stop matching with no explicit invalidation hook.
    // Absent for legacy un-checksummed archives (their responses are
    // simply uncacheable).

    bool hasStamp() const { return hasStamp_; }
    std::uint64_t stamp() const { return stamp_; }

    /** Registry-only: record the serving archive's trailer checksum
     *  (before the model is shared as const). */
    void setStamp(std::uint64_t stamp)
    {
        stamp_ = stamp;
        hasStamp_ = true;
    }

    /** Input row width for data-bearing ops (pixels for ClassRbm). */
    std::size_t inputDim() const;

    /** Output row width of an operation (0 for Classify). */
    std::size_t outputDim(Op op) const;

    /**
     * Batched sampling surface over the family's flat joint RBM
     * (nullptr for ConvRbm/Dbm, which have none; for Dbn this is the
     * visible-facing first layer).
     */
    const rbm::SoftwareGibbsBackend *sampler() const;

    // ----------------------------------------------------- serving ops
    // All ops resize @p out to (rows x outputDim(op)).  Stochastic ops
    // draw row r's randomness exclusively from rngs[r].  Every op
    // stages through the caller's scratch, reused across calls.

    /**
     * Fantasy sampling: @p rows independent chains, each started from
     * rngs[r] noise and annealed @p burnIn full sweeps; out rows are
     * the final visible mean-field probabilities.
     */
    void sampleRows(int burnIn, std::size_t rows, util::Rng *rngs,
                    linalg::Matrix &out, BatchScratch &scratch) const;

    /** Deterministic feature extraction (hidden means / pooled maps). */
    void featurizeRows(const linalg::Matrix &in, linalg::Matrix &out,
                       BatchScratch &scratch) const;

    /**
     * featurizeRows over an already-packed input plane (requires
     * supportsPackedInput(Op::Featurize)): the rows go straight into
     * the packed batched kernels with no float materialization on the
     * way in.  Bit-identical to featurizeRows of the unpacked rows.
     */
    void featurizeRowsPacked(const linalg::BitMatrix &in,
                             linalg::Matrix &out,
                             BatchScratch &scratch) const;

    /**
     * Stochastic reconstruction: latch hidden from rngs[r], report the
     * visible mean-field of the down sweep (mean-field both ways for
     * DBN/DBM/ConvRbm, which reconstruct deterministically).
     */
    void reconstructRows(const linalg::Matrix &in, util::Rng *rngs,
                         linalg::Matrix &out, BatchScratch &scratch) const;

    /**
     * reconstructRows over a packed input plane: the up half-sweep
     * consumes the packed rows and its sampled hidden state stays
     * packed into the down half-sweep, so only the reported visible
     * means ever exist as floats.  Bit-identical to reconstructRows.
     */
    void reconstructRowsPacked(const linalg::BitMatrix &in,
                               util::Rng *rngs, linalg::Matrix &out,
                               BatchScratch &scratch) const;

    /** Exact free-energy classification (ClassRbm only). */
    void classifyRows(const linalg::Matrix &in,
                      std::vector<int> &out) const;

  private:
    exec::ThreadPool &pool() const;

    rbm::Checkpoint ckpt_;
    exec::ThreadPool *pool_;
    std::uint64_t stamp_ = 0;  ///< archive CRC-64 trailer (see above)
    bool hasStamp_ = false;
    rbm::Rbm cfFlat_;  ///< CfRbm parameters re-hosted as a plain Rbm
    std::unique_ptr<rbm::SoftwareGibbsBackend> flat_;
    /** Per-layer backends for the DBN stack (flat_ aliases the first). */
    std::vector<std::unique_ptr<rbm::SoftwareGibbsBackend>> layers_;
};

} // namespace ising::engine

#endif // ISINGRBM_ENGINE_MODEL_HPP
