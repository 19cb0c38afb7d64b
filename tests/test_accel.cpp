/**
 * @file
 * Tests for the two accelerator architectures (GS and BGF).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/bgf.hpp"
#include "accel/gibbs_sampler.hpp"
#include "rbm/exact.hpp"

using namespace ising;
using util::Rng;

namespace {

data::Dataset
stripeData(std::size_t rows, std::size_t dim)
{
    data::Dataset ds;
    ds.samples.reset(rows, dim);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t i = 0; i < dim; ++i)
            ds.samples(r, i) = (r % 2 == i % 2) ? 1.0f : 0.0f;
    return ds;
}

machine::AnalogConfig
idealAnalog()
{
    machine::AnalogConfig cfg;
    cfg.idealComponents = true;
    return cfg;
}

} // namespace

TEST(GibbsSamplerAccel, ImprovesExactLikelihood)
{
    Rng rng(1);
    const auto ds = stripeData(40, 12);
    rbm::Rbm model(12, 5);
    model.initRandom(rng, 0.01f);
    const double before = rbm::exact::meanLogLikelihood(model, ds);

    accel::GsConfig cfg;
    cfg.learningRate = 0.2;
    cfg.k = 1;
    cfg.batchSize = 10;
    cfg.analog = idealAnalog();
    accel::GibbsSamplerAccel gs(model, cfg);
    for (int epoch = 0; epoch < 60; ++epoch)
        gs.trainEpoch(ds, rng);
    EXPECT_GT(rbm::exact::meanLogLikelihood(model, ds), before + 1.0);
}

TEST(GibbsSamplerAccel, LearnsThroughNonIdealCircuits)
{
    Rng rng(2);
    const auto ds = stripeData(40, 12);
    rbm::Rbm model(12, 5);
    model.initRandom(rng, 0.01f);
    const double before = rbm::exact::meanLogLikelihood(model, ds);

    accel::GsConfig cfg;
    cfg.learningRate = 0.2;
    cfg.batchSize = 10;
    // defaults: 8-bit converters, rail compression, comparator offsets
    accel::GibbsSamplerAccel gs(model, cfg);
    for (int epoch = 0; epoch < 60; ++epoch)
        gs.trainEpoch(ds, rng);
    EXPECT_GT(rbm::exact::meanLogLikelihood(model, ds), before + 0.8);
}

TEST(GibbsSamplerAccel, CountersTrackOperation)
{
    Rng rng(3);
    const auto ds = stripeData(20, 8);
    rbm::Rbm model(8, 4);
    model.initRandom(rng, 0.01f);
    accel::GsConfig cfg;
    cfg.k = 2;
    cfg.batchSize = 5;
    cfg.analog = idealAnalog();
    accel::GibbsSamplerAccel gs(model, cfg);
    gs.trainEpoch(ds, rng);
    const auto &c = gs.counters();
    EXPECT_EQ(c.samplesProcessed, 20u);
    EXPECT_EQ(c.reprograms, 4u);     // 20 / 5 batches
    EXPECT_EQ(c.hostUpdates, 4u);
    // Per sample: 1 positive sweep + 2k anneal half-sweeps.
    EXPECT_EQ(c.fabricSweeps, 20u * (1 + 2 * 2));
    EXPECT_GT(c.bitsToHost, 0u);
    EXPECT_GT(c.bitsToDevice, 0u);
}

TEST(Bgf, LearnsStripes)
{
    Rng rng(4);
    const auto ds = stripeData(60, 12);
    accel::BgfConfig cfg;
    cfg.learningRate = 0.02;  // minibatch-1 step
    cfg.annealSteps = 2;
    cfg.numParticles = 4;
    cfg.analog = idealAnalog();
    accel::BoltzmannGradientFollower bgf(12, 5, cfg);
    rbm::Rbm init(12, 5);
    init.initRandom(rng, 0.01f);
    bgf.initialize(init);
    const double before =
        rbm::exact::meanLogLikelihood(bgf.readOut(), ds);
    for (int epoch = 0; epoch < 40; ++epoch)
        bgf.trainEpoch(ds, rng);
    const double after = rbm::exact::meanLogLikelihood(bgf.readOut(), ds);
    EXPECT_GT(after, before + 1.0);
}

TEST(Bgf, LearnsThroughFullCircuitModel)
{
    Rng rng(5);
    const auto ds = stripeData(60, 12);
    accel::BgfConfig cfg;
    cfg.learningRate = 0.02;
    cfg.annealSteps = 2;
    // non-ideal defaults + mild noise
    cfg.analog.noise = {0.05, 0.05};
    accel::BoltzmannGradientFollower bgf(12, 5, cfg);
    rbm::Rbm init(12, 5);
    init.initRandom(rng, 0.01f);
    bgf.initialize(init);
    const double before =
        rbm::exact::meanLogLikelihood(bgf.readOut(), ds);
    for (int epoch = 0; epoch < 40; ++epoch)
        bgf.trainEpoch(ds, rng);
    EXPECT_GT(rbm::exact::meanLogLikelihood(bgf.readOut(), ds),
              before + 0.8);
}

TEST(Bgf, MidStepToggleChangesTrajectoryNotQuality)
{
    const auto ds = stripeData(60, 10);
    auto run = [&](bool midStep) {
        Rng rng(6);
        accel::BgfConfig cfg;
        cfg.learningRate = 0.02;
        cfg.annealSteps = 2;
        cfg.midStepUpdates = midStep;
        cfg.analog = idealAnalog();
        accel::BoltzmannGradientFollower bgf(10, 4, cfg);
        rbm::Rbm init(10, 4);
        init.initRandom(rng, 0.01f);
        bgf.initialize(init);
        for (int epoch = 0; epoch < 30; ++epoch)
            bgf.trainEpoch(ds, rng);
        return rbm::exact::meanLogLikelihood(bgf.readOut(), ds);
    };
    const double withMid = run(true);
    const double without = run(false);
    // Both learn; neither collapses (the Sec. 3.3 claim).
    EXPECT_GT(withMid, -6.0);
    EXPECT_GT(without, -6.0);
    EXPECT_NEAR(withMid, without, 1.5);
}

TEST(Bgf, CountersTrackPhases)
{
    Rng rng(7);
    const auto ds = stripeData(10, 8);
    accel::BgfConfig cfg;
    cfg.annealSteps = 3;
    cfg.analog = idealAnalog();
    accel::BoltzmannGradientFollower bgf(8, 4, cfg);
    rbm::Rbm init(8, 4);
    bgf.initialize(init);
    bgf.trainEpoch(ds, rng);
    const auto &c = bgf.counters();
    EXPECT_EQ(c.samplesProcessed, 10u);
    EXPECT_EQ(c.pumpPhases, 20u);  // one + / one - per sample
    EXPECT_EQ(c.fabricSweeps, 10u * (1 + 2 * 3));
}

TEST(Bgf, ReadOutQuantizedAtAdcResolution)
{
    accel::BgfConfig cfg;  // non-ideal: 8-bit ADC, weightMax 2.0
    accel::BoltzmannGradientFollower bgf(6, 4, cfg);
    rbm::Rbm init(6, 4);
    Rng irng(9);
    init.initRandom(irng, 0.3f);
    bgf.initialize(init);
    const rbm::Rbm out = bgf.readOut();
    const double lsb = 2.0 * cfg.analog.weightMax / 255.0;
    for (std::size_t i = 0; i < out.weights().size(); ++i) {
        const double q = out.weights().data()[i] / lsb;
        EXPECT_NEAR(q, std::round(q), 1e-3) << i;
    }
}

TEST(Bgf, ParticleCountRespected)
{
    Rng rng(10);
    accel::BgfConfig cfg;
    cfg.numParticles = 3;
    cfg.analog = idealAnalog();
    accel::BoltzmannGradientFollower bgf(6, 4, cfg);
    rbm::Rbm init(6, 4);
    bgf.initialize(init);
    EXPECT_EQ(bgf.config().numParticles, 3u);
    const auto ds = stripeData(9, 6);
    bgf.trainEpoch(ds, rng);  // must not crash cycling 3 particles
    EXPECT_EQ(bgf.counters().samplesProcessed, 9u);
}

TEST(Bgf, NoiseDegradesGracefullyNotCatastrophically)
{
    // The Sec. 4.5 claim: moderate noise barely hurts.
    const auto ds = stripeData(60, 10);
    auto runWithNoise = [&](double rms) {
        Rng rng(11);
        accel::BgfConfig cfg;
        cfg.learningRate = 0.02;
        cfg.annealSteps = 2;
        cfg.analog.noise = {rms, rms};
        accel::BoltzmannGradientFollower bgf(10, 4, cfg);
        rbm::Rbm init(10, 4);
        init.initRandom(rng, 0.01f);
        bgf.initialize(init);
        for (int epoch = 0; epoch < 30; ++epoch)
            bgf.trainEpoch(ds, rng);
        return rbm::exact::meanLogLikelihood(bgf.readOut(), ds);
    };
    const double clean = runWithNoise(0.0);
    const double mild = runWithNoise(0.05);
    const double harsh = runWithNoise(0.3);
    EXPECT_GT(mild, clean - 1.0);   // <=10%: negligible
    EXPECT_GT(harsh, clean - 3.0);  // 30%: visible but not fatal
}
