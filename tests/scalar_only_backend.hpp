/**
 * @file
 * The float-pipeline reference backend of the byte-identity tests.
 *
 * ScalarOnlyBackend forwards the scalar half-sweeps to a wrapped
 * backend but inherits every default implementation, so chains
 * through it run the plain float chain-at-a-time path -- the
 * reference the packed/batched kernels of every tier must match
 * bit-for-bit.
 */

#ifndef ISINGRBM_TESTS_SCALAR_ONLY_BACKEND_HPP
#define ISINGRBM_TESTS_SCALAR_ONLY_BACKEND_HPP

#include "rbm/sampling_backend.hpp"

class ScalarOnlyBackend final : public ising::rbm::SamplingBackend
{
  public:
    explicit ScalarOnlyBackend(const ising::rbm::SamplingBackend &inner)
        : inner_(inner)
    {}

    std::size_t numVisible() const override { return inner_.numVisible(); }
    std::size_t numHidden() const override { return inner_.numHidden(); }
    const char *name() const override { return "scalar-ref"; }

    void
    sampleHidden(const ising::linalg::Vector &v, ising::linalg::Vector &h,
                 ising::linalg::Vector &ph,
                 ising::util::Rng &rng) const override
    {
        inner_.sampleHidden(v, h, ph, rng);
    }

    void
    sampleVisible(const ising::linalg::Vector &h, ising::linalg::Vector &v,
                  ising::linalg::Vector &pv,
                  ising::util::Rng &rng) const override
    {
        inner_.sampleVisible(h, v, pv, rng);
    }

  private:
    const ising::rbm::SamplingBackend &inner_;
};

#endif // ISINGRBM_TESTS_SCALAR_ONLY_BACKEND_HPP
