/**
 * @file
 * Analog fabric behavioral implementation.
 */

#include "ising/analog.hpp"

#include <cassert>
#include <cmath>

#include "util/math.hpp"

namespace ising::machine {

AnalogFabric::AnalogFabric(std::size_t numVisible, std::size_t numHidden,
                           const AnalogConfig &config)
    : config_(config),
      w_(numVisible, numHidden),
      bv_(numVisible),
      bh_(numHidden),
      sigmoid_(config.sigmoidGain, 0.0,
               config.idealComponents ? 0.0 : config.railCompress),
      diodeRng_(0.29),
      pump_(config.pumpStep, config.weightMax,
            config.idealComponents ? 0.0 : config.pumpNonlinearity),
      dtc_(config.dtcBits),
      adc_(config.adcBits, config.weightMax)
{
    // Fabrication: freeze static mismatch for couplers and samplers.
    util::Rng fab(config.variationSeed);
    variation_.materialize(numVisible, numHidden, config.noise.rmsVariation,
                           fab);
    biasVarV_.resize(numVisible);
    biasVarH_.resize(numHidden);
    for (std::size_t i = 0; i < numVisible; ++i)
        biasVarV_[i] = config.noise.rmsVariation > 0
            ? std::max(0.05, 1.0 + fab.gaussian(0.0,
                                                config.noise.rmsVariation))
            : 1.0f;
    for (std::size_t j = 0; j < numHidden; ++j)
        biasVarH_[j] = config.noise.rmsVariation > 0
            ? std::max(0.05, 1.0 + fab.gaussian(0.0,
                                                config.noise.rmsVariation))
            : 1.0f;

    const double offSigma =
        config.idealComponents ? 0.0 : config.comparatorOffsetSigma;
    visComparators_.assign(numVisible, Comparator(offSigma));
    hidComparators_.assign(numHidden, Comparator(offSigma));
    for (auto &c : visComparators_)
        c.calibrateOffset(fab);
    for (auto &c : hidComparators_)
        c.calibrateOffset(fab);
}

void
AnalogFabric::program(const rbm::Rbm &model)
{
    assert(model.numVisible() == numVisible());
    assert(model.numHidden() == numHidden());
    const bool quantize = !config_.idealComponents;
    const Adc prog(config_.programBits, config_.weightMax);
    const float *src = model.weights().data();
    float *dst = w_.data();
    for (std::size_t i = 0; i < w_.size(); ++i)
        dst[i] = quantize ? static_cast<float>(prog.convert(src[i]))
                          : src[i];
    for (std::size_t i = 0; i < numVisible(); ++i)
        bv_[i] = quantize
            ? static_cast<float>(prog.convert(model.visibleBias()[i]))
            : model.visibleBias()[i];
    for (std::size_t j = 0; j < numHidden(); ++j)
        bh_[j] = quantize
            ? static_cast<float>(prog.convert(model.hiddenBias()[j]))
            : model.hiddenBias()[j];
}

void
AnalogFabric::restoreRaw(const linalg::Matrix &w, const linalg::Vector &bv,
                         const linalg::Vector &bh)
{
    assert(w.rows() == numVisible() && w.cols() == numHidden());
    assert(bv.size() == numVisible() && bh.size() == numHidden());
    w_ = w;
    bv_ = bv;
    bh_ = bh;
}

void
AnalogFabric::clampVisible(const float *data, linalg::Vector &v) const
{
    v.resize(numVisible());
    for (std::size_t i = 0; i < numVisible(); ++i)
        v[i] = config_.idealComponents
            ? data[i]
            : static_cast<float>(dtc_.convert(data[i]));
}

void
AnalogFabric::sweep(const linalg::Vector &in, linalg::Vector &out,
                    bool visibleToHidden, util::Rng &rng) const
{
    const std::size_t m = numVisible(), n = numHidden();
    const std::size_t outSize = visibleToHidden ? n : m;
    out.resize(outSize);

    const double rmsNoise = config_.noise.rmsNoise;
    const bool varied = variation_.enabled();

    // act and actPower (sum of squared per-coupler currents, for the
    // quadrature noise aggregation) per output node.
    std::vector<double> act(outSize), power(outSize);
    if (visibleToHidden) {
        for (std::size_t j = 0; j < n; ++j) {
            const double b = bh_[j] * biasVarH_[j];
            act[j] = b;
            power[j] = b * b;
        }
        for (std::size_t i = 0; i < m; ++i) {
            const float vi = in[i];
            if (vi == 0.0f)
                continue;
            const float *wrow = w_.row(i);
            if (varied) {
                const float *grow = variation_.gains().row(i);
                for (std::size_t j = 0; j < n; ++j) {
                    const double c = vi * wrow[j] * grow[j];
                    act[j] += c;
                    power[j] += c * c;
                }
            } else {
                for (std::size_t j = 0; j < n; ++j) {
                    const double c = vi * wrow[j];
                    act[j] += c;
                    power[j] += c * c;
                }
            }
        }
    } else {
        for (std::size_t i = 0; i < m; ++i) {
            const double b = bv_[i] * biasVarV_[i];
            const float *wrow = w_.row(i);
            double acc = 0.0, pow2 = b * b;
            if (varied) {
                const float *grow = variation_.gains().row(i);
                for (std::size_t j = 0; j < n; ++j) {
                    const double c = wrow[j] * grow[j] * in[j];
                    acc += c;
                    pow2 += c * c;
                }
            } else {
                for (std::size_t j = 0; j < n; ++j) {
                    const double c = wrow[j] * in[j];
                    acc += c;
                    pow2 += c * c;
                }
            }
            act[i] = acc + b;
            power[i] = pow2;
        }
    }

    const auto &comps = visibleToHidden ? hidComparators_ : visComparators_;
    for (std::size_t k = 0; k < outSize; ++k) {
        double a = act[k];
        if (rmsNoise > 0.0)
            a += rng.gaussian(0.0, rmsNoise * std::sqrt(power[k]));
        const double p = sigmoid_.transfer(a);
        bool bit;
        if (config_.idealComponents) {
            bit = rng.uniform() < p;
        } else {
            bit = comps[k].fire(p, diodeRng_.level(rng));
        }
        out[k] = bit ? 1.0f : 0.0f;
    }
}

void
AnalogFabric::sampleHidden(const linalg::Vector &v, linalg::Vector &h,
                           util::Rng &rng) const
{
    assert(v.size() == numVisible());
    sweep(v, h, true, rng);
}

void
AnalogFabric::sampleVisible(const linalg::Vector &h, linalg::Vector &v,
                            util::Rng &rng) const
{
    assert(h.size() == numHidden());
    sweep(h, v, false, rng);
}

void
AnalogFabric::pumpUpdate(const linalg::Vector &v, const linalg::Vector &h,
                         int direction, util::Rng &rng)
{
    assert(v.size() == numVisible() && h.size() == numHidden());
    const double rmsNoise = config_.noise.rmsNoise;

    // Only couplers whose product v_i * h_j fires move charge, so
    // gather the active rows/columns first (both vectors are binary).
    static thread_local std::vector<std::size_t> vOn, hOn;
    vOn.clear();
    hOn.clear();
    for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i] > 0.5f)
            vOn.push_back(i);
    for (std::size_t j = 0; j < h.size(); ++j)
        if (h[j] > 0.5f)
            hOn.push_back(j);

    for (const std::size_t i : vOn) {
        float *wrow = w_.row(i);
        for (const std::size_t j : hOn) {
            double gain = variation_.gain(i, j);
            if (rmsNoise > 0.0)
                gain *= 1.0 + rng.gaussian(0.0, rmsNoise);
            wrow[j] = static_cast<float>(
                pump_.apply(wrow[j], direction, gain));
        }
    }
    // Bias couplers: visible bias fires with v_i, hidden with h_j.
    for (const std::size_t i : vOn) {
        double gain = biasVarV_[i];
        if (rmsNoise > 0.0)
            gain *= 1.0 + rng.gaussian(0.0, rmsNoise);
        bv_[i] = static_cast<float>(pump_.apply(bv_[i], direction, gain));
    }
    for (const std::size_t j : hOn) {
        double gain = biasVarH_[j];
        if (rmsNoise > 0.0)
            gain *= 1.0 + rng.gaussian(0.0, rmsNoise);
        bh_[j] = static_cast<float>(pump_.apply(bh_[j], direction, gain));
    }
}

void
AnalogFabric::readOut(rbm::Rbm &out) const
{
    out = rbm::Rbm(numVisible(), numHidden());
    const bool quantize = !config_.idealComponents;
    const float *src = w_.data();
    float *dst = out.weights().data();
    for (std::size_t i = 0; i < w_.size(); ++i)
        dst[i] = quantize ? static_cast<float>(adc_.convert(src[i]))
                          : src[i];
    for (std::size_t i = 0; i < numVisible(); ++i)
        out.visibleBias()[i] = quantize
            ? static_cast<float>(adc_.convert(bv_[i]))
            : bv_[i];
    for (std::size_t j = 0; j < numHidden(); ++j)
        out.hiddenBias()[j] = quantize
            ? static_cast<float>(adc_.convert(bh_[j]))
            : bh_[j];
}

} // namespace ising::machine
