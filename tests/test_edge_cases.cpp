/**
 * @file
 * Edge-case and robustness tests across modules: degenerate sizes,
 * idempotence, and boundary conditions that the main suites do not
 * cover.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/fabric_backend.hpp"
#include "accel/gibbs_sampler.hpp"
#include "data/dataset.hpp"
#include "ising/analog.hpp"
#include "ising/brim.hpp"
#include "linalg/ops.hpp"
#include "linalg/stats.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/rbm.hpp"

using namespace ising;
using util::Rng;

TEST(EdgeCases, OneByOneRbm)
{
    Rng rng(1);
    rbm::Rbm model(1, 1);
    model.weights()(0, 0) = 2.0f;
    model.visibleBias()[0] = -1.0f;
    const float v1[1] = {1.0f};
    const float h1[1] = {1.0f};
    EXPECT_NEAR(model.energy(v1, h1), -2.0 + 1.0, 1e-6);
    linalg::Vector ph;
    model.hiddenProbs(v1, ph);
    ASSERT_EQ(ph.size(), 1u);
}

TEST(EdgeCases, EmptyDatasetOperations)
{
    rbm::Rbm model(4, 2);
    linalg::Matrix empty(0, 4);
    EXPECT_EQ(model.meanFreeEnergy(empty), 0.0);
}

TEST(EdgeCases, SingleSampleTraining)
{
    Rng rng(2);
    data::Dataset ds;
    ds.samples.reset(1, 6);
    ds.samples(0, 0) = ds.samples(0, 3) = 1.0f;
    rbm::Rbm model(6, 3);
    model.initRandom(rng, 0.01f);
    rbm::CdConfig cfg;
    cfg.batchSize = 8;  // bigger than the dataset
    rbm::CdTrainer trainer(model, cfg);
    trainer.trainEpoch(ds, rng);  // must not crash
    EXPECT_EQ(trainer.updatesDone(), 1u);
}

TEST(EdgeCases, EmptyCdBatchIsANoOp)
{
    Rng init(11);
    data::Dataset ds;
    ds.samples.reset(4, 8);
    ds.samples(1, 2) = ds.samples(3, 7) = 1.0f;
    rbm::Rbm model(8, 4);
    model.initRandom(init, 0.3f);
    const rbm::Rbm before = model;
    rbm::CdConfig cfg;
    cfg.momentum = 0.5;
    cfg.persistent = true;  // particles are drawn on the first batch
    rbm::CdTrainer trainer(model, cfg);

    Rng rng(12), untouched(12);
    trainer.trainBatch(ds, {}, rng);
    EXPECT_EQ(model.weights(), before.weights());
    EXPECT_EQ(model.visibleBias(), before.visibleBias());
    EXPECT_EQ(model.hiddenBias(), before.hiddenBias());
    EXPECT_EQ(trainer.updatesDone(), 0u);
    EXPECT_EQ(rng.next(), untouched.next());
    rbm::TrainState state;
    trainer.captureState(state, "");
    EXPECT_EQ(state.tensor("particles"), nullptr);
    EXPECT_EQ(state.tensor("momentum_w"), nullptr);
}

TEST(EdgeCases, EmptyGsBatchIsANoOp)
{
    Rng init(13);
    data::Dataset ds;
    ds.samples.reset(4, 8);
    ds.samples(0, 1) = ds.samples(2, 5) = 1.0f;
    rbm::Rbm model(8, 4);
    model.initRandom(init, 0.3f);
    const rbm::Rbm before = model;
    accel::GsConfig cfg;
    cfg.analog.idealComponents = true;
    accel::GibbsSamplerAccel gs(model, cfg);

    Rng rng(14), untouched(14);
    gs.trainBatch(ds, {}, rng);
    EXPECT_EQ(model.weights(), before.weights());
    EXPECT_EQ(model.visibleBias(), before.visibleBias());
    EXPECT_EQ(model.hiddenBias(), before.hiddenBias());
    EXPECT_EQ(rng.next(), untouched.next());
    const accel::GsCounters &c = gs.counters();
    EXPECT_EQ(c.samplesProcessed + c.fabricSweeps + c.reprograms +
                  c.hostUpdates + c.bitsToHost + c.bitsToDevice,
              0u);
}

TEST(EdgeCases, FabricProgramIsIdempotent)
{
    Rng rng(3);
    rbm::Rbm model(5, 4);
    model.initRandom(rng, 0.4f);
    machine::AnalogConfig cfg;
    machine::AnalogFabric fabric(5, 4, cfg);
    fabric.program(model);
    const linalg::Matrix once = fabric.rawWeights();
    fabric.program(model);
    EXPECT_EQ(fabric.rawWeights(), once);
}

TEST(EdgeCases, FabricAnnealZeroStepsKeepsHidden)
{
    Rng rng(4);
    machine::AnalogConfig cfg;
    cfg.idealComponents = true;
    const rbm::Rbm model(4, 3);
    const accel::AnalogFabricBackend fabric(model, cfg);
    linalg::Vector v, h(3), pv, ph;
    h[1] = 1.0f;
    const linalg::Vector before = h;
    fabric.anneal(0, v, h, pv, ph, rng);
    EXPECT_EQ(h, before);
    EXPECT_TRUE(v.empty());  // never touched
}

TEST(EdgeCases, BrimSingleNode)
{
    Rng rng(5);
    machine::IsingModel model(1);
    model.setField(0, 1.0f);
    machine::BrimConfig cfg;
    machine::BrimSimulator sim(model, cfg, rng);
    sim.relax(1e-10, 20000);
    EXPECT_EQ(sim.spins()[0], 1);  // aligns with the field
}

TEST(EdgeCases, MovingAverageWindowLargerThanSeries)
{
    const auto ma = linalg::movingAverage({2.0, 4.0}, 10);
    ASSERT_EQ(ma.size(), 2u);
    EXPECT_NEAR(ma[0], 2.0, 1e-12);
    EXPECT_NEAR(ma[1], 3.0, 1e-12);
}

TEST(EdgeCases, MovingAverageZeroWindowTreatedAsOne)
{
    const auto ma = linalg::movingAverage({1.0, 5.0}, 0);
    EXPECT_NEAR(ma[1], 5.0, 1e-12);
}

TEST(EdgeCases, PercentileSingleElement)
{
    EXPECT_DOUBLE_EQ(linalg::percentile({7.0}, 50), 7.0);
    EXPECT_DOUBLE_EQ(linalg::percentile({7.0}, 0), 7.0);
}

TEST(EdgeCases, RunningStatsSingleValue)
{
    linalg::RunningStats s;
    s.push(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(EdgeCases, GemvEmptyBias)
{
    // Zero-sized hidden layer: projections produce empty outputs
    // without touching memory.
    linalg::Matrix w(3, 0);
    linalg::Vector x(3, 1.0f), b, y;
    linalg::gemvT(w, x, b, y);
    EXPECT_EQ(y.size(), 0u);
}

TEST(EdgeCases, SplitWithZeroTestFraction)
{
    Rng rng(6);
    data::Dataset ds;
    ds.samples.reset(10, 2);
    ds.labels.assign(10, 0);
    ds.numClasses = 1;
    const data::Split split = data::trainTestSplit(ds, 0.0, rng);
    EXPECT_EQ(split.train.size(), 10u);
    EXPECT_EQ(split.test.size(), 0u);
}

TEST(EdgeCases, FreeEnergyOfAllOnesFinite)
{
    Rng rng(7);
    rbm::Rbm model(20, 10);
    model.initRandom(rng, 2.0f);  // large weights
    std::vector<float> ones(20, 1.0f);
    const double f = model.freeEnergy(ones.data());
    EXPECT_TRUE(std::isfinite(f));
}
