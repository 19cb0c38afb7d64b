/**
 * @file
 * Analog-substrate implementation of the unified sampling interface.
 *
 * AnalogFabricBackend drives rbm::SamplingBackend through a programmed
 * machine::AnalogFabric, so chains, fantasy samplers and example apps
 * can run on the noisy substrate with the exact code path they use for
 * software sampling -- swapping backends is configuration, not code.
 */

#ifndef ISINGRBM_ACCEL_FABRIC_BACKEND_HPP
#define ISINGRBM_ACCEL_FABRIC_BACKEND_HPP

#include <memory>
#include <string>

#include "ising/analog.hpp"
#include "rbm/sampling_backend.hpp"

namespace ising::accel {

/** Conditional sampling through the analog fabric's settle sweeps. */
class AnalogFabricBackend final : public rbm::SamplingBackend
{
  public:
    /**
     * Borrow an already-programmed fabric (the accelerator use case:
     * the owner keeps programming/readout rights).
     */
    explicit AnalogFabricBackend(const machine::AnalogFabric &fabric);

    /**
     * Own a fresh fabric: fabricate it with @p config, program
     * @p model onto it (the app/config use case).
     */
    AnalogFabricBackend(const rbm::Rbm &model,
                        const machine::AnalogConfig &config);

    std::size_t numVisible() const override;
    std::size_t numHidden() const override;
    const char *name() const override { return "fabric"; }

    void sampleHidden(const linalg::Vector &v, linalg::Vector &h,
                      linalg::Vector &ph, util::Rng &rng) const override;
    void sampleVisible(const linalg::Vector &h, linalg::Vector &v,
                       linalg::Vector &pv, util::Rng &rng) const override;

    const machine::AnalogFabric &fabric() const { return *fabric_; }

  private:
    std::unique_ptr<machine::AnalogFabric> owned_;
    const machine::AnalogFabric *fabric_;
};

/** Which engine evaluates the Gibbs conditionals. */
enum class SamplingBackendKind { Software, AnalogFabric };

/**
 * Parse a CLI/config spelling ("software" | "fabric", the latter also
 * accepted as "analog").  Unknown names fall back to Software.
 */
SamplingBackendKind samplingBackendKind(const std::string &name);

/**
 * Build the requested backend over @p model.  The fabric variant
 * fabricates a substrate from @p config (variation drawn from
 * config.variationSeed) and programs the model onto it; the software
 * variant ignores @p config.  The model is borrowed and must outlive
 * the backend.
 */
std::unique_ptr<rbm::SamplingBackend>
makeSamplingBackend(SamplingBackendKind kind, const rbm::Rbm &model,
                    const machine::AnalogConfig &config);

} // namespace ising::accel

#endif // ISINGRBM_ACCEL_FABRIC_BACKEND_HPP
