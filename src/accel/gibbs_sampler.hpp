/**
 * @file
 * Gibbs Sampler (GS) accelerator architecture -- Sec. 3.2.
 *
 * The Ising substrate accelerates only the sampling inner loop of
 * Algorithm 1; the host (TPU in the paper) keeps ownership of the
 * model, accumulates the gradient statistics, updates the parameters
 * and reprograms the coupler array every minibatch.  The operation
 * sequence implemented here matches the paper's steps 1-9:
 *
 *  1. host initializes the model;
 *  2. weights/biases programmed onto the substrate;
 *  3. visible units clamped to a training sample;
 *  4. hidden units read out after the fabric settles (positive phase);
 *  5. k-step "Gibbs sampling" by letting the fabric evolve;
 *  6. final visible/hidden read out (negative phase);
 *  7. repeat 3-6 over the minibatch;
 *  8. host computes <v+ h+> - <v- h-> and updates the model;
 *  9. repeat from 2 for subsequent minibatches.
 *
 * Communication and host work are metered so the hw/ timing model can
 * reproduce the Fig. 5 observation that GS spends about a quarter of
 * its time waiting on the host.
 */

#ifndef ISINGRBM_ACCEL_GIBBS_SAMPLER_HPP
#define ISINGRBM_ACCEL_GIBBS_SAMPLER_HPP

#include "data/dataset.hpp"
#include "accel/fabric_backend.hpp"
#include "ising/analog.hpp"
#include "rbm/rbm.hpp"

namespace ising::accel {

/** GS hyper-parameters. */
struct GsConfig
{
    double learningRate = 0.1;   ///< host update step (alpha)
    int k = 1;                   ///< negative-phase anneal sweeps
    std::size_t batchSize = 100; ///< host minibatch
    double weightDecay = 0.0;
    machine::AnalogConfig analog; ///< substrate fidelity/noise
};

/** Activity counters feeding the hw/ timing and energy models. */
struct GsCounters
{
    std::size_t samplesProcessed = 0; ///< training samples consumed
    std::size_t fabricSweeps = 0;     ///< half-sweeps run on the fabric
    std::size_t reprograms = 0;       ///< full coupler-array writes
    std::size_t hostUpdates = 0;      ///< host gradient+update rounds
    std::size_t bitsToHost = 0;       ///< sample readout traffic
    std::size_t bitsToDevice = 0;     ///< programming traffic
};

/** The GS accelerator: substrate sampling + host learning. */
class GibbsSamplerAccel
{
  public:
    /**
     * @param model host-side model, updated in place (borrowed)
     * @param config hyper-parameters
     */
    GibbsSamplerAccel(rbm::Rbm &model, const GsConfig &config);

    /**
     * One pass over the training set in minibatches shuffled by
     * @p rng, which also drives every fabric sweep.
     */
    void trainEpoch(const data::Dataset &train, util::Rng &rng);

    /**
     * Process one minibatch (steps 2-8 above); an empty index list is
     * a no-op.
     */
    void trainBatch(const data::Dataset &train,
                    const std::vector<std::size_t> &indices,
                    util::Rng &rng);

    /**
     * Re-point the scheduled hyper-parameters (per-epoch ramps); the
     * substrate configuration stays as constructed.
     */
    void setSchedule(double learningRate, int k, double weightDecay);

    const GsCounters &counters() const { return counters_; }

  private:
    rbm::Rbm &model_;
    GsConfig config_;
    machine::AnalogFabric fabric_;
    AnalogFabricBackend backend_;
    GsCounters counters_;

    // Host-side gradient accumulators.
    linalg::Matrix dw_;
    linalg::Vector dbv_, dbh_;
};

} // namespace ising::accel

#endif // ISINGRBM_ACCEL_GIBBS_SAMPLER_HPP
