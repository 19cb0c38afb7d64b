/**
 * @file
 * Convolutional RBM implementation.
 */

#include "rbm/conv_rbm.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "linalg/simd_dispatch.hpp"

namespace ising::rbm {

ConvRbm::ConvRbm(const ConvRbmConfig &config)
    : config_(config),
      filters_(config.numFilters, config.filterSide * config.filterSide),
      hiddenBias_(config.numFilters, 0.0f)
{
    assert(config.filterSide <= config.imageSide);
}

std::size_t
ConvRbm::hiddenSide() const
{
    return config_.imageSide - config_.filterSide + 1;
}

std::size_t
ConvRbm::featureDim() const
{
    return config_.numFilters * config_.poolGrid * config_.poolGrid;
}

void
ConvRbm::initRandom(util::Rng &rng, float stddev)
{
    float *d = filters_.data();
    for (std::size_t i = 0; i < filters_.size(); ++i)
        d[i] = static_cast<float>(rng.gaussian(0.0, stddev));
    std::fill(hiddenBias_.begin(), hiddenBias_.end(), 0.0f);
    visibleBias_ = 0.0f;
}

void
ConvRbm::hiddenMaps(const float *image, std::vector<float> &maps) const
{
    const std::size_t hs = hiddenSide();
    const std::size_t f = config_.filterSide;
    const std::size_t side = config_.imageSide;
    maps.assign(config_.numFilters * hs * hs, 0.0f);

    for (std::size_t k = 0; k < config_.numFilters; ++k) {
        const float *filt = filters_.row(k);
        float *map = maps.data() + k * hs * hs;
        const float bias = hiddenBias_[k];
        for (std::size_t y = 0; y < hs; ++y) {
            for (std::size_t x = 0; x < hs; ++x) {
                float acc = bias;
                for (std::size_t fy = 0; fy < f; ++fy) {
                    const float *irow = image + (y + fy) * side + x;
                    const float *frow = filt + fy * f;
                    for (std::size_t fx = 0; fx < f; ++fx)
                        acc += irow[fx] * frow[fx];
                }
                map[y * hs + x] = acc;
            }
        }
    }
    linalg::simd::activeTable().sigmoid(maps.data(), maps.size());
}

void
ConvRbm::reconstruct(const std::vector<float> &maps,
                     std::vector<float> &image) const
{
    const std::size_t hs = hiddenSide();
    const std::size_t f = config_.filterSide;
    const std::size_t side = config_.imageSide;
    assert(maps.size() == config_.numFilters * hs * hs);
    std::vector<float> act(side * side, visibleBias_);

    for (std::size_t k = 0; k < config_.numFilters; ++k) {
        const float *filt = filters_.row(k);
        const float *map = maps.data() + k * hs * hs;
        for (std::size_t y = 0; y < hs; ++y) {
            for (std::size_t x = 0; x < hs; ++x) {
                const float h = map[y * hs + x];
                if (h == 0.0f)
                    continue;
                for (std::size_t fy = 0; fy < f; ++fy) {
                    float *arow = act.data() + (y + fy) * side + x;
                    const float *frow = filt + fy * f;
                    for (std::size_t fx = 0; fx < f; ++fx)
                        arow[fx] += h * frow[fx];
                }
            }
        }
    }
    linalg::simd::activeTable().sigmoid(act.data(), act.size());
    image = std::move(act);
}

void
ConvRbm::trainEpoch(const data::Dataset &images, util::Rng &rng)
{
    assert(images.dim() == config_.imageSide * config_.imageSide);
    const std::size_t hs = hiddenSide();
    const std::size_t f = config_.filterSide;
    const std::size_t side = config_.imageSide;
    const float lr = static_cast<float>(
        config_.learningRate / static_cast<double>(hs * hs));

    std::vector<float> posMaps, negMaps, hsample, recon;
    std::vector<std::size_t> order(images.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order.data(), order.size());

    for (const std::size_t idx : order) {
        const float *v = images.sample(idx);
        // Positive phase: hidden map probabilities + binary sample.
        hiddenMaps(v, posMaps);
        hsample.resize(posMaps.size());
        for (std::size_t i = 0; i < posMaps.size(); ++i)
            hsample[i] = rng.uniformFloat() < posMaps[i] ? 1.0f : 0.0f;
        // Negative phase: reconstruct, re-infer (CD-1, mean field).
        reconstruct(hsample, recon);
        hiddenMaps(recon.data(), negMaps);

        // Gradient: correlation of input with hidden maps, shared over
        // all positions.
        for (std::size_t k = 0; k < config_.numFilters; ++k) {
            float *filt = filters_.row(k);
            const float *pmap = posMaps.data() + k * hs * hs;
            const float *nmap = negMaps.data() + k * hs * hs;
            double meanP = 0.0;
            for (std::size_t y = 0; y < hs; ++y) {
                for (std::size_t x = 0; x < hs; ++x) {
                    const float hp = pmap[y * hs + x];
                    const float hn = nmap[y * hs + x];
                    meanP += hp;
                    if (hp == 0.0f && hn == 0.0f)
                        continue;
                    for (std::size_t fy = 0; fy < f; ++fy) {
                        const float *vrow = v + (y + fy) * side + x;
                        const float *rrow =
                            recon.data() + (y + fy) * side + x;
                        float *frow = filt + fy * f;
                        for (std::size_t fx = 0; fx < f; ++fx)
                            frow[fx] += lr * (hp * vrow[fx] -
                                              hn * rrow[fx]);
                    }
                }
            }
            meanP /= static_cast<double>(hs * hs);
            // Bias update with sparsity regularization toward the
            // target activation (Lee et al.).
            double meanN = 0.0;
            for (std::size_t i = 0; i < hs * hs; ++i)
                meanN += nmap[i];
            meanN /= static_cast<double>(hs * hs);
            hiddenBias_[k] += static_cast<float>(
                config_.learningRate *
                ((meanP - meanN) +
                 config_.sparsityCost *
                     (config_.sparsityTarget - meanP)));
            // Weight decay.
            const float keep = 1.0f - static_cast<float>(
                config_.weightDecay * config_.learningRate);
            for (std::size_t i = 0; i < f * f; ++i)
                filt[i] *= keep;
        }
        // Visible bias follows the mean reconstruction error.
        double verr = 0.0;
        for (std::size_t i = 0; i < side * side; ++i)
            verr += v[i] - recon[i];
        visibleBias_ += static_cast<float>(
            config_.learningRate * verr /
            static_cast<double>(side * side));
    }
}

double
ConvRbm::reconstructionError(const data::Dataset &images) const
{
    std::vector<float> maps, recon;
    double acc = 0.0;
    for (std::size_t r = 0; r < images.size(); ++r) {
        const float *v = images.sample(r);
        hiddenMaps(v, maps);
        reconstruct(maps, recon);
        for (std::size_t i = 0; i < images.dim(); ++i) {
            const double d = recon[i] - v[i];
            acc += d * d;
        }
    }
    return images.size()
        ? acc / static_cast<double>(images.size() * images.dim())
        : 0.0;
}

void
ConvRbm::features(const float *image, float *out) const
{
    const std::size_t hs = hiddenSide();
    const std::size_t grid = config_.poolGrid;
    std::vector<float> maps;
    hiddenMaps(image, maps);

    for (std::size_t k = 0; k < config_.numFilters; ++k) {
        const float *map = maps.data() + k * hs * hs;
        for (std::size_t gy = 0; gy < grid; ++gy) {
            const std::size_t y0 = gy * hs / grid;
            const std::size_t y1 = (gy + 1) * hs / grid;
            for (std::size_t gx = 0; gx < grid; ++gx) {
                const std::size_t x0 = gx * hs / grid;
                const std::size_t x1 = (gx + 1) * hs / grid;
                double acc = 0.0;
                for (std::size_t y = y0; y < y1; ++y)
                    for (std::size_t x = x0; x < x1; ++x)
                        acc += map[y * hs + x];
                const std::size_t cells =
                    std::max<std::size_t>(1, (y1 - y0) * (x1 - x0));
                out[k * grid * grid + gy * grid + gx] =
                    static_cast<float>(acc / cells);
            }
        }
    }
}

data::Dataset
ConvRbm::transform(const data::Dataset &images) const
{
    data::Dataset out;
    out.name = images.name + "-convrbm";
    out.numClasses = images.numClasses;
    out.labels = images.labels;
    out.samples.reset(images.size(), featureDim());
    for (std::size_t r = 0; r < images.size(); ++r)
        features(images.sample(r), out.samples.row(r));
    return out;
}

} // namespace ising::rbm
