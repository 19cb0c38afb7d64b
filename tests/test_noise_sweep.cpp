/**
 * @file
 * Property sweeps over the Sec. 4.5 noise grid: the full analog
 * training pipeline must remain functional at every (variation, noise)
 * combination the paper studies, and quality must degrade gracefully.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/bgf.hpp"
#include "accel/gibbs_sampler.hpp"
#include "ising/noise.hpp"
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

struct NoiseName
{
    std::string
    operator()(const ::testing::TestParamInfo<machine::NoiseSpec> &info)
        const
    {
        const auto &spec = info.param;
        return "var" + std::to_string(int(spec.rmsVariation * 100)) +
               "_noise" + std::to_string(int(spec.rmsNoise * 100));
    }
};

} // namespace

/** Sweep: BGF trains successfully at every paper noise point. */
class BgfNoiseSweep
    : public ::testing::TestWithParam<machine::NoiseSpec>
{
};

TEST_P(BgfNoiseSweep, LearnsStripes)
{
    const machine::NoiseSpec noise = GetParam();
    Rng rng(31);
    const auto ds = stripeData(60, 12);
    accel::BgfConfig cfg;
    cfg.learningRate = 0.02;
    cfg.annealSteps = 2;
    cfg.analog.noise = noise;
    accel::BoltzmannGradientFollower bgf(12, 5, cfg);
    rbm::Rbm init(12, 5);
    init.initRandom(rng, 0.01f);
    bgf.initialize(init);
    const double before =
        rbm::exact::meanLogLikelihood(bgf.readOut(), ds);
    for (int e = 0; e < 30; ++e)
        bgf.trainEpoch(ds, rng);
    const double after =
        rbm::exact::meanLogLikelihood(bgf.readOut(), ds);
    EXPECT_GT(after, before + 0.5)
        << "var " << noise.rmsVariation << " noise " << noise.rmsNoise;
    // No NaN/exploded weights at any noise point.
    const rbm::Rbm out = bgf.readOut();
    for (std::size_t i = 0; i < out.weights().size(); ++i) {
        ASSERT_FALSE(std::isnan(out.weights().data()[i]));
        ASSERT_LE(std::fabs(out.weights().data()[i]),
                  cfg.analog.weightMax + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, BgfNoiseSweep,
                         ::testing::ValuesIn(machine::paperNoiseGrid()),
                         NoiseName());

/** Sweep: GS also survives the full noise grid. */
class GsNoiseSweep
    : public ::testing::TestWithParam<machine::NoiseSpec>
{
};

TEST_P(GsNoiseSweep, LearnsStripes)
{
    const machine::NoiseSpec noise = GetParam();
    Rng rng(32);
    const auto ds = stripeData(60, 12);
    rbm::Rbm model(12, 5);
    model.initRandom(rng, 0.01f);
    const double before = rbm::exact::meanLogLikelihood(model, ds);
    accel::GsConfig cfg;
    cfg.learningRate = 0.2;
    cfg.batchSize = 10;
    cfg.analog.noise = noise;
    accel::GibbsSamplerAccel gs(model, cfg);
    for (int e = 0; e < 40; ++e)
        gs.trainEpoch(ds, rng);
    EXPECT_GT(rbm::exact::meanLogLikelihood(model, ds), before + 0.5)
        << "var " << noise.rmsVariation << " noise " << noise.rmsNoise;
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, GsNoiseSweep,
                         ::testing::ValuesIn(machine::paperNoiseGrid()),
                         NoiseName());

/** Sweep: the fabric's sampling stays calibrated per noise point. */
class FabricNoiseSweep
    : public ::testing::TestWithParam<machine::NoiseSpec>
{
};

TEST_P(FabricNoiseSweep, MarginalsStayOrdered)
{
    // Units with strongly positive vs strongly negative activation
    // must keep their ordering under every noise combination.
    const machine::NoiseSpec noise = GetParam();
    Rng rng(33);
    rbm::Rbm model(6, 2);
    for (std::size_t i = 0; i < 6; ++i) {
        model.weights()(i, 0) = 0.8f;
        model.weights()(i, 1) = -0.8f;
    }
    machine::AnalogConfig cfg;
    cfg.noise = noise;
    machine::AnalogFabric fabric(6, 2, cfg);
    fabric.program(model);
    linalg::Vector v(6, 1.0f), h;
    double freq0 = 0.0, freq1 = 0.0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleHidden(v, h, rng);
        freq0 += h[0];
        freq1 += h[1];
    }
    EXPECT_GT(freq0 / trials, freq1 / trials + 0.2)
        << "var " << noise.rmsVariation << " noise " << noise.rmsNoise;
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, FabricNoiseSweep,
                         ::testing::ValuesIn(machine::paperNoiseGrid()),
                         NoiseName());
