/**
 * @file
 * Behavioral model of the augmented bipartite analog fabric.
 *
 * This is the C++ equivalent of the paper's Matlab behavioral models:
 * it strings together the Appendix B components (current summation,
 * sigmoid unit, diode-noise RNG + comparator, DTC inputs, ADC readout,
 * charge-pump training circuit) over a visible x hidden coupler array,
 * with the Sec. 4.5 noise/variation model applied at the points the
 * physical circuit would see it:
 *
 *  - static variation multiplies each coupler's conductance, affecting
 *    both the summed current and the training-circuit charge packet;
 *  - dynamic noise perturbs every current summation (per-coupler noise
 *    contributions aggregate in quadrature into the node sum) and
 *    jitters each charge-transfer event.
 *
 * Both accelerator architectures (accel/gibbs_sampler.hpp and
 * accel/bgf.hpp) and the hardware-mode CF-RBM trainer drive their
 * sampling and updates through this one fabric, so noise experiments
 * exercise the identical code path everywhere.
 */

#ifndef ISINGRBM_ISING_ANALOG_HPP
#define ISINGRBM_ISING_ANALOG_HPP

#include <cstdint>

#include "ising/components.hpp"
#include "ising/noise.hpp"
#include "linalg/matrix.hpp"
#include "rbm/rbm.hpp"
#include "util/rng.hpp"

namespace ising::machine {

/** Fidelity and noise knobs of the analog fabric. */
struct AnalogConfig
{
    NoiseSpec noise;            ///< (RMS variation, RMS noise) pair

    int dtcBits = 8;            ///< input converter resolution
    int adcBits = 8;            ///< readout converter resolution
    int programBits = 8;        ///< host->coupler programming resolution

    double sigmoidGain = 1.0;       ///< sigmoid unit c1
    double railCompress = 0.02;     ///< sigmoid unit rail compression
    double comparatorOffsetSigma = 0.01; ///< per-node sampler mismatch

    double weightMax = 2.0;     ///< coupler gate-voltage headroom
    double pumpStep = 2e-4;     ///< nominal charge-pump delta-W
    double pumpNonlinearity = 0.5; ///< f_ij state dependence

    bool idealComponents = false; ///< ablation: bypass all circuit
                                  ///< non-idealities (pure math)

    std::uint64_t variationSeed = 0xC0FFEEull; ///< fabrication lottery
};

/** The programmable bipartite analog fabric. */
class AnalogFabric
{
  public:
    /**
     * Build a fabric with an (m x n) coupler array.  Static variation
     * and comparator offsets are drawn once here ("fabrication"),
     * from config.variationSeed alone.
     */
    AnalogFabric(std::size_t numVisible, std::size_t numHidden,
                 const AnalogConfig &config);

    std::size_t numVisible() const { return w_.rows(); }
    std::size_t numHidden() const { return w_.cols(); }
    const AnalogConfig &config() const { return config_; }

    /**
     * Program weights and biases from a host-side model (Sec. 3.2
     * step 2).  Quantized at programBits unless idealComponents.
     */
    void program(const rbm::Rbm &model);

    /** Clamp a training sample onto the visible nodes through DTCs. */
    void clampVisible(const float *data, linalg::Vector &v) const;

    /**
     * Settle the hidden nodes given clamped visible levels: current
     * summation -> sigmoid unit -> comparator vs diode-noise level.
     * @p h receives the latched binary sample.
     */
    void sampleHidden(const linalg::Vector &v, linalg::Vector &h,
                      util::Rng &rng) const;

    /** Mirror-image sweep: settle visible nodes from hidden bits. */
    void sampleVisible(const linalg::Vector &h, linalg::Vector &v,
                       util::Rng &rng) const;

    /**
     * One gradient-follower update event (Eq. 12): for every coupler
     * whose v_i * h_j product fires, transfer one charge packet in the
     * given direction (+1 positive phase, -1 negative phase).  Biases
     * live on couplers to a constant-1 node and update alongside.
     */
    void pumpUpdate(const linalg::Vector &v, const linalg::Vector &h,
                    int direction, util::Rng &rng);

    /** Read weights and biases out through the ADCs (Sec. 3.3 step 6). */
    void readOut(rbm::Rbm &out) const;

    /** Direct (test-only) view of the physical weight array. */
    const linalg::Matrix &rawWeights() const { return w_; }
    const linalg::Vector &rawVisibleBias() const { return bv_; }
    const linalg::Vector &rawHiddenBias() const { return bh_; }

    /**
     * Restore the physical coupler state verbatim, bypassing the
     * program() quantization path.  This is simulator state capture
     * for checkpoint/resume (a resumed BGF run must continue from the
     * *exact* gate voltages, which the ADC/DAC round trip would
     * clip) -- not a modeled hardware operation.
     */
    void restoreRaw(const linalg::Matrix &w, const linalg::Vector &bv,
                    const linalg::Vector &bh);

  private:
    /**
     * Shared current-summation + sampling sweep.  Computes, for each
     * output node, act = bias + sum_k in_k * W_eff and latches a bit.
     * @p transposed selects visible->hidden (false reads W rows as
     * inputs) vs hidden->visible orientation.
     */
    void sweep(const linalg::Vector &in, linalg::Vector &out,
               bool visibleToHidden, util::Rng &rng) const;

    AnalogConfig config_;
    linalg::Matrix w_;    ///< coupler gate voltages (m x n)
    linalg::Vector bv_;   ///< visible bias couplers
    linalg::Vector bh_;   ///< hidden bias couplers

    VariationField variation_;     ///< coupler mismatch (m x n)
    linalg::Vector biasVarV_;      ///< bias-coupler mismatch, visible
    linalg::Vector biasVarH_;      ///< bias-coupler mismatch, hidden

    SigmoidUnit sigmoid_;
    DiodeRng diodeRng_;
    ChargePump pump_;
    Dtc dtc_;
    Adc adc_;
    std::vector<Comparator> visComparators_;
    std::vector<Comparator> hidComparators_;
};

} // namespace ising::machine

#endif // ISINGRBM_ISING_ANALOG_HPP
