/**
 * @file
 * BGF implementation.
 */

#include "accel/bgf.hpp"

#include <algorithm>
#include <cassert>

namespace ising::accel {

namespace {

machine::AnalogConfig
withPumpStep(machine::AnalogConfig analog, double step)
{
    analog.pumpStep = step;
    return analog;
}

} // namespace

BoltzmannGradientFollower::BoltzmannGradientFollower(
    std::size_t numVisible, std::size_t numHidden, const BgfConfig &config)
    : config_(config),
      fabric_(numVisible, numHidden,
              withPumpStep(config.analog, config.learningRate)),
      backend_(fabric_)
{
    particles_.resize(std::max<std::size_t>(1, config_.numParticles));
}

void
BoltzmannGradientFollower::initialize(const rbm::Rbm &initial)
{
    assert(initial.numVisible() == fabric_.numVisible());
    assert(initial.numHidden() == fabric_.numHidden());
    fabric_.program(initial);
    particlesReady_ = false;
    nextParticle_ = 0;
}

void
BoltzmannGradientFollower::reprogram(const rbm::Rbm &weights)
{
    assert(weights.numVisible() == fabric_.numVisible());
    assert(weights.numHidden() == fabric_.numHidden());
    fabric_.program(weights);
}

void
BoltzmannGradientFollower::trainSample(const float *data, util::Rng &rng)
{
    // Step 2: the host streams the sample to the visible latches.
    linalg::Vector v;
    fabric_.clampVisible(data, v);
    counters_.bitsToDevice += fabric_.numVisible();

    // Step 3: clamp, settle the hidden units; <v h>_{s+} increments W.
    // Sweeps run on the unified sampling surface (the same one chains
    // and batched samplers drive), so the fabric path and the software
    // path stay swappable all the way into the accelerators.
    linalg::Vector hpos, phScratch;
    backend_.sampleHidden(v, hpos, phScratch, rng);
    ++counters_.fabricSweeps;
    if (config_.midStepUpdates) {
        fabric_.pumpUpdate(v, hpos, +1, rng);
        ++counters_.pumpPhases;
    }

    // Step 4: load a persistent particle and anneal.
    if (!particlesReady_) {
        // First sample: seed every particle from the current hidden
        // sample perturbed by fresh sweeps.
        for (auto &p : particles_)
            p = hpos;
        particlesReady_ = true;
    }
    linalg::Vector hneg = particles_[nextParticle_];
    linalg::Vector vneg, pvScratch;
    backend_.anneal(config_.annealSteps, vneg, hneg, pvScratch,
                    phScratch, rng);
    counters_.fabricSweeps += 2 * static_cast<std::size_t>(
        config_.annealSteps);

    // Step 5: <v h>_{s-} decrements W.
    if (!config_.midStepUpdates) {
        // Synchronized ablation: both phases applied under W^t.
        fabric_.pumpUpdate(v, hpos, +1, rng);
        ++counters_.pumpPhases;
    }
    fabric_.pumpUpdate(vneg, hneg, -1, rng);
    ++counters_.pumpPhases;

    // Persist the particle [63].
    particles_[nextParticle_] = hneg;
    nextParticle_ = (nextParticle_ + 1) % particles_.size();

    ++counters_.samplesProcessed;
}

void
BoltzmannGradientFollower::trainEpoch(const data::Dataset &train,
                                      util::Rng &rng)
{
    std::vector<std::size_t> order(train.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order.data(), order.size());
    for (const std::size_t idx : order)
        trainSample(train.sample(idx), rng);
}

rbm::Rbm
BoltzmannGradientFollower::readOut() const
{
    rbm::Rbm out;
    fabric_.readOut(out);
    return out;
}

void
BoltzmannGradientFollower::captureState(rbm::TrainState &state,
                                        const std::string &prefix) const
{
    const std::size_t m = fabric_.numVisible();
    const std::size_t n = fabric_.numHidden();
    state.setTensor(prefix + "fabric_w", fabric_.rawWeights());
    linalg::Matrix bv(1, m), bh(1, n);
    std::copy_n(fabric_.rawVisibleBias().data(), m, bv.row(0));
    std::copy_n(fabric_.rawHiddenBias().data(), n, bh.row(0));
    state.setTensor(prefix + "fabric_bv", std::move(bv));
    state.setTensor(prefix + "fabric_bh", std::move(bh));

    state.setCounter(prefix + "next_particle", nextParticle_);
    state.setCounter(prefix + "particles_ready", particlesReady_ ? 1 : 0);
    if (particlesReady_)
        state.setTensor(prefix + "particles",
                        rbm::packChainTensor(particles_, n));
}

bool
BoltzmannGradientFollower::restoreState(const rbm::TrainState &state,
                                        const std::string &prefix)
{
    const std::size_t m = fabric_.numVisible();
    const std::size_t n = fabric_.numHidden();
    const linalg::Matrix *w = state.tensor(prefix + "fabric_w");
    const linalg::Matrix *bv = state.tensor(prefix + "fabric_bv");
    const linalg::Matrix *bh = state.tensor(prefix + "fabric_bh");
    if (!w || w->rows() != m || w->cols() != n || !bv ||
        bv->cols() != m || !bh || bh->cols() != n)
        return false;
    linalg::Vector vbias(m), hbias(n);
    std::copy_n(bv->row(0), m, vbias.data());
    std::copy_n(bh->row(0), n, hbias.data());
    fabric_.restoreRaw(*w, vbias, hbias);

    nextParticle_ = 0;
    particlesReady_ = false;
    const std::uint64_t *ready = state.counter(prefix + "particles_ready");
    if (ready && *ready) {
        if (!rbm::unpackChainTensor(state.tensor(prefix + "particles"),
                                    n, particles_))
            return false;
        particlesReady_ = true;
        if (const std::uint64_t *next =
                state.counter(prefix + "next_particle"))
            nextParticle_ =
                static_cast<std::size_t>(*next) % particles_.size();
    }
    return true;
}

} // namespace ising::accel
