/**
 * @file
 * Tests for Gibbs chains (SamplingBackend::anneal) and the CD-k / PCD
 * trainers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/exact.hpp"
#include "rbm/sampling_backend.hpp"

using namespace ising::rbm;
using ising::util::Rng;

namespace {

/** Striped-pattern dataset small enough for exact evaluation. */
ising::data::Dataset
stripeData(std::size_t rows, std::size_t dim)
{
    ising::data::Dataset ds;
    ds.samples.reset(rows, dim);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t i = 0; i < dim; ++i)
            ds.samples(r, i) = (r % 2 == i % 2) ? 1.0f : 0.0f;
    return ds;
}

} // namespace

TEST(GibbsAnneal, UniformModelSamplesUniformly)
{
    // Zero weights/biases: every unit is a fair coin at stationarity.
    Rng rng(3);
    const Rbm model(6, 4);
    const SoftwareGibbsBackend backend(model);
    ising::linalg::Vector v, h(4), pv, ph;
    double mean = 0.0;
    const int steps = 4000;
    for (int s = 0; s < steps; ++s) {
        backend.anneal(1, v, h, pv, ph, rng);
        mean += v[0];
    }
    EXPECT_NEAR(mean / steps, 0.5, 0.05);
}

TEST(GibbsAnneal, ChainTracksModelBias)
{
    // Strong positive visible bias pushes the marginal toward one.
    Rng rng(4);
    Rbm model(3, 2);
    for (std::size_t i = 0; i < 3; ++i)
        model.visibleBias()[i] = 3.0f;
    const SoftwareGibbsBackend backend(model);
    ising::linalg::Vector v, h(2), pv, ph;
    double mean = 0.0;
    const int steps = 2000;
    for (int s = 0; s < steps; ++s) {
        backend.anneal(1, v, h, pv, ph, rng);
        mean += v[0];
    }
    EXPECT_GT(mean / steps, 0.9);
}

TEST(CdTrainer, ImprovesExactLikelihood)
{
    Rng rng(6);
    const auto ds = stripeData(40, 10);
    Rbm model(10, 4);
    model.initRandom(rng, 0.01f);
    const double before = exact::meanLogLikelihood(model, ds);
    CdConfig cfg;
    cfg.learningRate = 0.2;
    cfg.k = 1;
    cfg.batchSize = 10;
    CdTrainer trainer(model, cfg);
    for (int epoch = 0; epoch < 60; ++epoch)
        trainer.trainEpoch(ds, rng);
    const double after = exact::meanLogLikelihood(model, ds);
    EXPECT_GT(after, before + 1.0);
}

TEST(CdTrainer, ReconstructionErrorDrops)
{
    Rng rng(7);
    const auto ds = stripeData(60, 16);
    Rbm model(16, 8);
    model.initRandom(rng, 0.01f);
    CdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.batchSize = 10;
    CdTrainer trainer(model, cfg);
    const double before = trainer.reconstructionError(ds, rng);
    for (int epoch = 0; epoch < 40; ++epoch)
        trainer.trainEpoch(ds, rng);
    const double after = trainer.reconstructionError(ds, rng);
    EXPECT_LT(after, before * 0.8);
}

TEST(CdTrainer, CountsUpdates)
{
    Rng rng(8);
    const auto ds = stripeData(20, 8);
    Rbm model(8, 4);
    model.initRandom(rng, 0.01f);
    CdConfig cfg;
    cfg.batchSize = 5;
    CdTrainer trainer(model, cfg);
    trainer.trainEpoch(ds, rng);
    EXPECT_EQ(trainer.updatesDone(), 4u);
}

TEST(CdTrainer, PersistentModeRuns)
{
    Rng rng(9);
    const auto ds = stripeData(30, 12);
    Rbm model(12, 5);
    model.initRandom(rng, 0.01f);
    CdConfig cfg;
    cfg.persistent = true;
    cfg.numParticles = 4;
    cfg.learningRate = 0.05;
    CdTrainer trainer(model, cfg);
    const double before = exact::meanLogLikelihood(model, ds);
    for (int epoch = 0; epoch < 40; ++epoch)
        trainer.trainEpoch(ds, rng);
    EXPECT_GT(exact::meanLogLikelihood(model, ds), before);
}

TEST(CdTrainer, HigherKIsNotWorse)
{
    // CD-10 should match or beat CD-1 in exact likelihood on a small
    // problem given the same budget of epochs.
    const auto ds = stripeData(40, 10);
    auto runWithK = [&](int k) {
        Rng rng(10);
        Rbm model(10, 4);
        model.initRandom(rng, 0.01f);
        CdConfig cfg;
        cfg.k = k;
        cfg.learningRate = 0.2;
        cfg.batchSize = 10;
        CdTrainer trainer(model, cfg);
        for (int epoch = 0; epoch < 50; ++epoch)
            trainer.trainEpoch(ds, rng);
        return exact::meanLogLikelihood(model, ds);
    };
    const double ll1 = runWithK(1);
    const double ll10 = runWithK(10);
    EXPECT_GT(ll10, ll1 - 0.5);
}

TEST(CdTrainer, MomentumAndDecayStable)
{
    Rng rng(11);
    const auto ds = stripeData(30, 10);
    Rbm model(10, 4);
    model.initRandom(rng, 0.01f);
    CdConfig cfg;
    cfg.momentum = 0.9;
    cfg.weightDecay = 1e-3;
    cfg.learningRate = 0.05;
    CdTrainer trainer(model, cfg);
    for (int epoch = 0; epoch < 30; ++epoch)
        trainer.trainEpoch(ds, rng);
    const float *w = model.weights().data();
    for (std::size_t i = 0; i < model.weights().size(); ++i) {
        ASSERT_FALSE(std::isnan(w[i]));
        ASSERT_LT(std::fabs(w[i]), 20.0f);
    }
}

/** Parameter sweep: CD learns across a range of hidden sizes. */
class CdHiddenSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CdHiddenSweep, Learns)
{
    const std::size_t hidden = GetParam();
    Rng rng(100 + hidden);
    const auto ds = stripeData(40, 12);
    Rbm model(12, hidden);
    model.initRandom(rng, 0.01f);
    CdConfig cfg;
    cfg.learningRate = 0.2;
    cfg.batchSize = 8;
    CdTrainer trainer(model, cfg);
    const double before = exact::meanLogLikelihood(model, ds);
    for (int epoch = 0; epoch < 40; ++epoch)
        trainer.trainEpoch(ds, rng);
    EXPECT_GT(exact::meanLogLikelihood(model, ds), before + 0.5)
        << "hidden=" << hidden;
}

INSTANTIATE_TEST_SUITE_P(HiddenSizes, CdHiddenSweep,
                         ::testing::Values(2, 4, 8, 16));
