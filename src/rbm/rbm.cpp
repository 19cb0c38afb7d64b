/**
 * @file
 * RBM primitive implementations.
 */

#include "rbm/rbm.hpp"

#include <cassert>

#include "linalg/ops.hpp"
#include "linalg/simd_dispatch.hpp"
#include "util/math.hpp"

namespace ising::rbm {

Rbm::Rbm(std::size_t numVisible, std::size_t numHidden)
    : w_(numVisible, numHidden), bv_(numVisible), bh_(numHidden)
{
}

void
Rbm::initRandom(util::Rng &rng, float stddev)
{
    float *d = w_.data();
    for (std::size_t i = 0; i < w_.size(); ++i)
        d[i] = static_cast<float>(rng.gaussian(0.0, stddev));
    bv_.fill(0.0f);
    bh_.fill(0.0f);
}

void
Rbm::hiddenProbs(const float *v, linalg::Vector &ph) const
{
    linalg::affineSigmoid(w_, v, bh_, ph);
}

void
Rbm::visibleProbs(const float *h, linalg::Vector &pv) const
{
    const std::size_t m = numVisible(), n = numHidden();
    pv.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        const float *wrow = w_.row(i);
        float acc = bv_[i];
        for (std::size_t j = 0; j < n; ++j)
            acc += wrow[j] * h[j];
        pv[i] = acc;
    }
    linalg::simd::activeTable().sigmoid(pv.data(), m);
}

void
Rbm::sampleBinary(const linalg::Vector &p, linalg::Vector &s,
                  util::Rng &rng)
{
    s.resize(p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        s[i] = rng.uniformFloat() < p[i] ? 1.0f : 0.0f;
}

double
Rbm::energy(const float *v, const float *h) const
{
    const std::size_t m = numVisible(), n = numHidden();
    double e = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const float vi = v[i];
        e -= bv_[i] * vi;
        if (vi == 0.0f)
            continue;
        const float *wrow = w_.row(i);
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += wrow[j] * h[j];
        e -= vi * acc;
    }
    for (std::size_t j = 0; j < n; ++j)
        e -= bh_[j] * h[j];
    return e;
}

double
Rbm::freeEnergy(const float *v) const
{
    const std::size_t m = numVisible(), n = numHidden();
    double f = 0.0;
    // -bv . v
    for (std::size_t i = 0; i < m; ++i)
        f -= bv_[i] * v[i];
    // activation = bh + v W, accumulated in double for stability
    std::vector<double> act(n);
    for (std::size_t j = 0; j < n; ++j)
        act[j] = bh_[j];
    for (std::size_t i = 0; i < m; ++i) {
        const float vi = v[i];
        if (vi == 0.0f)
            continue;
        const float *wrow = w_.row(i);
        for (std::size_t j = 0; j < n; ++j)
            act[j] += vi * wrow[j];
    }
    for (std::size_t j = 0; j < n; ++j)
        f -= util::softplus(act[j]);
    return f;
}

double
Rbm::meanFreeEnergy(const linalg::Matrix &samples) const
{
    assert(samples.cols() == numVisible());
    double acc = 0.0;
    for (std::size_t r = 0; r < samples.rows(); ++r)
        acc += freeEnergy(samples.row(r));
    return samples.rows() ? acc / static_cast<double>(samples.rows()) : 0.0;
}

} // namespace ising::rbm
