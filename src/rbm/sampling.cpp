/**
 * @file
 * Sampling utility implementations.
 *
 * Both samplers run whole fan-outs through the backend's batched
 * surface: every chain is a row of a (count x units) state matrix
 * with its own RNG stream, so the software backend executes one
 * bit-packed tiled walk over W instead of count independent gemv
 * chains, and scalar-only backends (the analog fabric) transparently
 * fan the rows over the worker pool.  Per-chain streams keep results
 * bit-identical to the former chain-at-a-time loop for any worker
 * count.
 */

#include "rbm/sampling.hpp"

#include <algorithm>
#include <cassert>

namespace ising::rbm {

data::Dataset
fantasySamples(const SamplingBackend &backend, std::size_t count,
               int burnIn, util::Rng &rng, const data::Dataset *init)
{
    const std::size_t m = backend.numVisible();
    data::Dataset out;
    out.name = "fantasy";
    out.samples.reset(count, m);
    // One serial draw roots the per-chain streams (and the choice of
    // starting rows), keeping results independent of worker count.
    const std::uint64_t chainSeed = rng.next();
    std::vector<util::Rng> rngs;
    rngs.reserve(count);
    for (std::size_t s = 0; s < count; ++s)
        rngs.push_back(util::Rng::stream(chainSeed, s));

    // Chain starts: rows of init when provided, else uniform noise.
    // Stream draw order matches the chain-at-a-time recipe: the start
    // row / noise bits first, then the initial up-sweep.
    linalg::Matrix v(count, m), h, pv, ph;
    for (std::size_t s = 0; s < count; ++s) {
        float *vrow = v.row(s);
        if (init && init->size() > 0) {
            const float *src = init->sample(rngs[s].uniformInt(init->size()));
            std::copy_n(src, m, vrow);
        } else {
            for (std::size_t i = 0; i < m; ++i)
                vrow[i] = rngs[s].bernoulli(0.5) ? 1.0f : 0.0f;
        }
    }
    backend.sampleHiddenBatch(v, h, ph, rngs.data());
    backend.annealBatch(burnIn, v, h, pv, ph, rngs.data());
    // Report mean-field probabilities from the final down-sweep; with
    // burnIn <= 0 no sweep ran and the rows stay zero (the historical
    // empty-probabilities behavior).
    if (burnIn > 0)
        for (std::size_t s = 0; s < count; ++s)
            std::copy_n(pv.row(s), m, out.samples.row(s));
    return out;
}

data::Dataset
fantasySamples(const Rbm &model, std::size_t count, int burnIn,
               util::Rng &rng, const data::Dataset *init)
{
    const SoftwareGibbsBackend backend(model);
    return fantasySamples(backend, count, burnIn, rng, init);
}

data::Dataset
conditionalSamples(const SamplingBackend &backend,
                   const std::vector<float> &clampMask, std::size_t count,
                   int burnIn, util::Rng &rng)
{
    const std::size_t m = backend.numVisible();
    assert(clampMask.size() == m);
    data::Dataset out;
    out.name = "conditional";
    out.samples.reset(count, m);

    const std::uint64_t chainSeed = rng.next();
    std::vector<util::Rng> rngs;
    rngs.reserve(count);
    for (std::size_t s = 0; s < count; ++s)
        rngs.push_back(util::Rng::stream(chainSeed, s));

    // Initialize: clamped entries fixed, the rest random.
    linalg::Matrix v(count, m), h, pv, ph;
    for (std::size_t s = 0; s < count; ++s) {
        float *vrow = v.row(s);
        for (std::size_t i = 0; i < m; ++i)
            vrow[i] = clampMask[i] >= 0.0f
                ? clampMask[i]
                : (rngs[s].bernoulli(0.5) ? 1.0f : 0.0f);
    }
    // The clamp is re-applied between sweeps, so the walk runs as
    // per-step batched half-sweeps rather than one annealBatch call.
    for (int step = 0; step < burnIn; ++step) {
        backend.sampleHiddenBatch(v, h, ph, rngs.data());
        backend.sampleVisibleBatch(h, v, pv, rngs.data());
        for (std::size_t s = 0; s < count; ++s) {
            float *vrow = v.row(s);
            for (std::size_t i = 0; i < m; ++i)
                if (clampMask[i] >= 0.0f)
                    vrow[i] = clampMask[i];
        }
    }
    // Report mean-field probabilities with clamps re-applied.  With
    // burnIn <= 0 no sweep ran and pv is empty: report the
    // initialized state instead.
    const linalg::Matrix &report = pv.empty() ? v : pv;
    for (std::size_t s = 0; s < count; ++s) {
        const float *rrow = report.row(s);
        for (std::size_t i = 0; i < m; ++i)
            out.samples(s, i) =
                clampMask[i] >= 0.0f ? clampMask[i] : rrow[i];
    }
    return out;
}

data::Dataset
conditionalSamples(const Rbm &model, const std::vector<float> &clampMask,
                   std::size_t count, int burnIn, util::Rng &rng)
{
    const SoftwareGibbsBackend backend(model);
    return conditionalSamples(backend, clampMask, count, burnIn, rng);
}

std::string
asciiImage(const float *image, std::size_t side)
{
    static const char ramp[] = " .:*#";
    std::string out;
    out.reserve((side + 1) * side);
    for (std::size_t y = 0; y < side; ++y) {
        for (std::size_t x = 0; x < side; ++x) {
            const float v = image[y * side + x];
            const int level = std::min(
                4, static_cast<int>(v * 5.0f));
            out.push_back(ramp[std::max(0, level)]);
        }
        out.push_back('\n');
    }
    return out;
}

} // namespace ising::rbm
