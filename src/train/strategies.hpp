/**
 * @file
 * Session strategies for the six model families.
 *
 * Each maker binds a model and its training data to the family's
 * gradient math (CdTrainer for flat RBMs, the GS/BGF substrates where
 * the capability table allows, ClassRbm/CfRbm/ConvRbm/Dbm native CD,
 * greedy per-layer engines for the DBN) and returns a train::Strategy
 * the Session can iterate.  Construction-time randomness (weight init
 * is the caller's, but fabric fabrication happens here) derives from
 * TrainOptions::seed, so rebuilding a strategy with the same options
 * reproduces the same machine -- the property CLI --resume relies on.
 */

#ifndef ISINGRBM_TRAIN_STRATEGIES_HPP
#define ISINGRBM_TRAIN_STRATEGIES_HPP

#include <memory>

#include "data/dataset.hpp"
#include "data/ratings.hpp"
#include "exec/thread_pool.hpp"
#include "ising/noise.hpp"
#include "train/session.hpp"

namespace ising::train {

/** Family-agnostic training options (structural; ramps live in Schedule). */
struct TrainOptions
{
    Trainer trainer = Trainer::CdK;
    std::size_t batchSize = 50;

    // CD-specific structure.
    bool persistentCd = false;    ///< PCD: keep negative chains
    std::size_t cdParticles = 16; ///< persistent chain count

    // Substrate trainers (GS/BGF and cf_rbm hardware mode).
    machine::NoiseSpec noise;     ///< analog (variation, noise) RMS
    bool idealComponents = false; ///< bypass circuit non-idealities
    std::size_t bgfParticles = 8;
    std::size_t bgfReplicas = 1;  ///< >1 trains a ParallelBgf fleet
                                  ///< (averaged after every epoch)
    /**
     * BGF charge-pump step and anneal depth are fabric properties
     * fixed at fabrication, not schedulable ramps; callers set the
     * pump step to learningRate / batchSize per the paper.
     */
    double bgfPumpStep = 2e-3;
    int bgfAnnealSteps = 5;

    std::uint64_t seed = 1;       ///< construction-time randomness root
    exec::ThreadPool *pool = nullptr; ///< borrowed; nullptr = global
};

/**
 * Historical per-family weight-decay defaults (what each private loop
 * hard-coded before the session refactor); callers seed
 * Schedule::weightDecay with this unless the user overrides.
 */
double defaultWeightDecay(rbm::ModelFamily family);

/** Flat RBM through cd, gs or bgf (per the capability table). */
std::unique_ptr<Strategy> makeRbmStrategy(rbm::Rbm model,
                                          const data::Dataset &train,
                                          const TrainOptions &options);

/** Discriminative RBM (cd only). */
std::unique_ptr<Strategy> makeClassRbmStrategy(rbm::ClassRbm model,
                                               const data::Dataset &train,
                                               const TrainOptions &options);

/** CF-RBM on a rating corpus; trainer bgf selects hardware mode. */
std::unique_ptr<Strategy> makeCfRbmStrategy(rbm::CfRbm model,
                                            const data::RatingData &corpus,
                                            const TrainOptions &options);

/** Convolutional RBM (cd only); data must be square images. */
std::unique_ptr<Strategy> makeConvRbmStrategy(rbm::ConvRbm model,
                                              const data::Dataset &train,
                                              const TrainOptions &options);

/**
 * Greedy DBN: session epoch e trains layer e / epochsPerLayer with the
 * options' engine; propagated layer data (binarized) regenerates
 * deterministically on resume.
 */
std::unique_ptr<Strategy> makeDbnStrategy(rbm::Dbn model,
                                          const data::Dataset &train,
                                          const TrainOptions &options,
                                          int epochsPerLayer);

/**
 * DBM: greedy pre-training runs inside epoch 0, then each session
 * epoch is one joint mean-field/PCD pass.  @p config carries the
 * structural knobs (chains, mean-field iters, pretrain epochs,
 * sparsity); learning rate / decay / Gibbs steps follow the schedule.
 */
std::unique_ptr<Strategy> makeDbmStrategy(rbm::Dbm model,
                                          const data::Dataset &train,
                                          const TrainOptions &options,
                                          const rbm::DbmConfig &config);

} // namespace ising::train

#endif // ISINGRBM_TRAIN_STRATEGIES_HPP
