/**
 * @file
 * Boltzmann Gradient Follower (BGF) architecture -- Sec. 3.3.
 *
 * The substrate is augmented so that *learning itself* happens inside
 * the coupler array: every coupler carries a charge-pump training
 * circuit that increments W_ij on positive-phase samples and
 * decrements it on negative-phase samples (Eq. 12).  The host only
 * streams training data in and reads the trained weights out through
 * ADCs at the very end.
 *
 * The three deliberate algorithmic deviations from Algorithm 1
 * (Sec. 3.3) are all modeled and individually togglable for ablation:
 *
 *  1. mid-step updates -- negative samples are taken under W^{t+1/2},
 *     already incremented by the positive phase;
 *  2. hardware increments pass through the nonlinear, varying
 *     f_ij(.) of the charge pump;
 *  3. the effective minibatch size is 1 (with a correspondingly
 *     smaller effective learning rate = pump step).
 *
 * Negative phases use p persistent particles [Tieleman 2008]: hidden
 * states that survive across samples, reloaded round-robin.
 */

#ifndef ISINGRBM_ACCEL_BGF_HPP
#define ISINGRBM_ACCEL_BGF_HPP

#include "accel/fabric_backend.hpp"
#include "data/dataset.hpp"
#include "ising/analog.hpp"
#include "rbm/rbm.hpp"
#include "rbm/train_state.hpp"

namespace ising::accel {

/** BGF hyper-parameters. */
struct BgfConfig
{
    /**
     * Effective per-event learning rate; becomes the charge-pump step.
     * The paper notes this should be ~batch-size times smaller than
     * the software alpha (e.g. 0.1/500 for an equivalent of bs=500).
     */
    double learningRate = 2e-4;
    int annealSteps = 5;         ///< negative-phase anneal sweeps
    std::size_t numParticles = 8; ///< p persistent chains
    bool midStepUpdates = true;   ///< deviation (1); false defers the
                                  ///< positive pump until after the
                                  ///< negative sample (ablation)
    machine::AnalogConfig analog; ///< fidelity/noise (pumpStep is
                                  ///< overwritten from learningRate)
};

/** Activity counters feeding the hw/ models. */
struct BgfCounters
{
    std::size_t samplesProcessed = 0;
    std::size_t fabricSweeps = 0;  ///< half-sweeps (settle operations)
    std::size_t pumpPhases = 0;    ///< pump update phases applied
    std::size_t bitsToDevice = 0;  ///< training-sample streaming
};

/** The self-sufficient gradient follower. */
class BoltzmannGradientFollower
{
  public:
    /**
     * Build the machine with an (m x n) fabric.
     *
     * @param numVisible, numHidden fabric dimensions
     * @param config hyper-parameters
     */
    BoltzmannGradientFollower(std::size_t numVisible,
                              std::size_t numHidden,
                              const BgfConfig &config);

    /**
     * Step 1: initialize weights and biases (small random values are
     * common practice; programmable initial conditions per footnote 4).
     */
    void initialize(const rbm::Rbm &initial);

    /**
     * Reprogram the coupler array mid-training without disturbing the
     * persistent particles (used by multi-fabric synchronization).
     */
    void reprogram(const rbm::Rbm &weights);

    /**
     * Steps 2-5 for one training sample (binary visible data); @p rng
     * drives the settle sweeps and the pump noise.
     */
    void trainSample(const float *v, util::Rng &rng);

    /** Stream a full epoch of samples in an order shuffled by @p rng. */
    void trainEpoch(const data::Dataset &train, util::Rng &rng);

    /** Step 6: ADC readout of the trained model. */
    rbm::Rbm readOut() const;

    /**
     * Persist the exact machine state under @p prefix: raw coupler
     * voltages (the ADC readout in the checkpoint's model payload is
     * quantized; resume must not be) plus the persistent particles.
     */
    void captureState(rbm::TrainState &state,
                      const std::string &prefix) const;

    /**
     * Inverse of captureState.  Returns false when the tensors are
     * absent or mis-dimensioned; the machine then continues from the
     * programmed (quantized) weights with re-seeded particles.
     */
    bool restoreState(const rbm::TrainState &state,
                      const std::string &prefix);

    const BgfCounters &counters() const { return counters_; }
    const BgfConfig &config() const { return config_; }

  private:
    BgfConfig config_;
    machine::AnalogFabric fabric_;
    AnalogFabricBackend backend_;  ///< borrows fabric_; declared after it
    BgfCounters counters_;
    std::vector<linalg::Vector> particles_; ///< persistent hidden states
    std::size_t nextParticle_ = 0;
    bool particlesReady_ = false;
};

} // namespace ising::accel

#endif // ISINGRBM_ACCEL_BGF_HPP
