/**
 * @file
 * Contrastive-divergence training: the paper's Algorithm 1 plus the
 * persistent-CD variant (Tieleman 2008) it cites.
 *
 * This is the reference von Neumann implementation the accelerator
 * architectures are measured against.  The trainer exposes per-batch
 * hooks so the experiment harnesses can record log-probability
 * trajectories (Fig. 7/8) during training.  It holds no randomness of
 * its own: every drawing method takes the caller's generator, and the
 * sampling backend it builds per batch runs the process's kernel tier
 * (linalg::simd::defaultTier()).
 */

#ifndef ISINGRBM_RBM_CD_TRAINER_HPP
#define ISINGRBM_RBM_CD_TRAINER_HPP

#include <functional>

#include "data/dataset.hpp"
#include "exec/thread_pool.hpp"
#include "rbm/rbm.hpp"
#include "rbm/sampling_backend.hpp"
#include "rbm/train_state.hpp"

namespace ising::rbm {

/** Hyper-parameters of Algorithm 1. */
struct CdConfig
{
    double learningRate = 0.1;  ///< alpha in Algorithm 1
    int k = 1;                  ///< CD-k Gibbs steps (line 12)
    std::size_t batchSize = 100;
    double weightDecay = 0.0;   ///< L2 penalty on W
    double momentum = 0.0;      ///< classical momentum on all params
    bool persistent = false;    ///< PCD: keep chains across updates
    std::size_t numParticles = 16; ///< persistent chain count (PCD)
    /**
     * Pool running the batch's Gibbs chains (borrowed; nullptr selects
     * exec::globalPool()).  Every chain draws from an index-derived
     * stream, so training is reproducible for any worker count.
     */
    exec::ThreadPool *pool = nullptr;
};

/** Minibatch CD-k / PCD trainer. */
class CdTrainer
{
  public:
    /**
     * Session-style construction: randomness is passed per call, so a
     * driver can hand each epoch its own derived stream (the basis of
     * deterministic checkpoint/resume).
     *
     * @param model model to train (borrowed; must outlive the trainer)
     * @param config hyper-parameters
     */
    CdTrainer(Rbm &model, const CdConfig &config);

    /** One full pass over the training set in shuffled minibatches. */
    void trainEpoch(const data::Dataset &train, util::Rng &rng);

    /**
     * Process one minibatch given sample indices; exposed for harnesses
     * that interleave evaluation with training.
     */
    void trainBatch(const data::Dataset &train,
                    const std::vector<std::size_t> &indices,
                    util::Rng &rng);

    /** Mean squared reconstruction error over a dataset (monitor). */
    double reconstructionError(const data::Dataset &ds, util::Rng &rng);

    /** Number of parameter updates performed so far. */
    std::size_t updatesDone() const { return updates_; }

    const CdConfig &config() const { return config_; }

    /**
     * Re-point the scheduled hyper-parameters (per-epoch ramps from
     * train::Schedule); structural knobs (batch size, persistence,
     * particle count, pool) stay as constructed.
     */
    void setSchedule(double learningRate, int k, double momentum,
                     double weightDecay);

    /**
     * Persist the cross-epoch state (PCD particles, momentum buffers,
     * update counter) under @p prefix -- what a checkpoint needs so a
     * resumed run continues bit-for-bit.  Momentum buffers are written
     * only when non-zero; particles only under PCD.
     */
    void captureState(TrainState &state, const std::string &prefix) const;

    /**
     * Inverse of captureState.  Returns false when PCD is configured
     * but no particle tensor was found (caller should warn: chains
     * will be re-initialized on the next batch).
     */
    bool restoreState(const TrainState &state, const std::string &prefix);

  private:
    void ensureParticles(const data::Dataset &train, util::Rng &rng);

    Rbm &model_;
    CdConfig config_;

    // Gradient accumulators reused across batches.
    linalg::Matrix dw_;
    linalg::Vector dbv_, dbh_;
    // Momentum buffers.
    linalg::Matrix mw_;
    linalg::Vector mbv_, mbh_;
    // Per-position batch scratch, one chain per row (chain outputs
    // awaiting reduction; filled through the batched sampling surface).
    linalg::Matrix vpos_, hstat_, vnegs_, hnegs_;
    linalg::Matrix phpos_, pvScratch_, phScratch_;
    // Packed reduce scratch, reused across batches: transposed bit
    // columns for the popcount reduce.
    linalg::BitMatrix posT_, negT_, hposT_, hnegT_;
    // PCD particles: persistent hidden states.
    std::vector<linalg::Vector> particles_;
    std::size_t nextParticle_ = 0;
    std::size_t updates_ = 0;
};

} // namespace ising::rbm

#endif // ISINGRBM_RBM_CD_TRAINER_HPP
