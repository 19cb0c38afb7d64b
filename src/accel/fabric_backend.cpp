/**
 * @file
 * Fabric-backed sampling implementation and the backend factory.
 */

#include "accel/fabric_backend.hpp"

#include <cassert>

namespace ising::accel {

AnalogFabricBackend::AnalogFabricBackend(const machine::AnalogFabric &fabric)
    : fabric_(&fabric)
{
}

AnalogFabricBackend::AnalogFabricBackend(const rbm::Rbm &model,
                                         const machine::AnalogConfig &config)
    : owned_(std::make_unique<machine::AnalogFabric>(
          model.numVisible(), model.numHidden(), config)),
      fabric_(owned_.get())
{
    owned_->program(model);
}

std::size_t
AnalogFabricBackend::numVisible() const
{
    return fabric_->numVisible();
}

std::size_t
AnalogFabricBackend::numHidden() const
{
    return fabric_->numHidden();
}

void
AnalogFabricBackend::sampleHidden(const linalg::Vector &v,
                                  linalg::Vector &h, linalg::Vector &ph,
                                  util::Rng &rng) const
{
    fabric_->sampleHidden(v, h, rng);
    // The substrate's comparators latch bits directly; the latched
    // sample is the best per-unit mean estimate a single read exposes.
    ph = h;
}

void
AnalogFabricBackend::sampleVisible(const linalg::Vector &h,
                                   linalg::Vector &v, linalg::Vector &pv,
                                   util::Rng &rng) const
{
    fabric_->sampleVisible(h, v, rng);
    pv = v;
}

SamplingBackendKind
samplingBackendKind(const std::string &name)
{
    if (name == "fabric" || name == "analog")
        return SamplingBackendKind::AnalogFabric;
    return SamplingBackendKind::Software;
}

std::unique_ptr<rbm::SamplingBackend>
makeSamplingBackend(SamplingBackendKind kind, const rbm::Rbm &model,
                    const machine::AnalogConfig &config)
{
    if (kind == SamplingBackendKind::AnalogFabric)
        return std::make_unique<AnalogFabricBackend>(model, config);
    return std::make_unique<rbm::SoftwareGibbsBackend>(model);
}

} // namespace ising::accel
