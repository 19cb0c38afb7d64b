/**
 * @file
 * Tests for the counter-driven cost model, including agreement with
 * the analytic Fig. 5 timing model on matched workloads.
 */

#include <gtest/gtest.h>

#include "data/glyphs.hpp"
#include "hw/activity.hpp"

using namespace ising;
using util::Rng;

namespace {

data::Dataset
smallImages(std::size_t n)
{
    data::Dataset raw = data::makeGlyphs(data::digitsStyle(), n, 7);
    return data::binarizeThreshold(raw);
}

} // namespace

TEST(Activity, BgfCountersPriceToPositiveCost)
{
    Rng rng(1);
    const data::Dataset ds = smallImages(50);
    accel::BgfConfig cfg;
    cfg.learningRate = 1e-3;
    cfg.annealSteps = 3;
    accel::BoltzmannGradientFollower bgf(ds.dim(), 32, cfg);
    rbm::Rbm init(ds.dim(), 32);
    bgf.initialize(init);
    bgf.trainEpoch(ds, rng);

    const hw::LayerShape shape{ds.dim(), 32};
    const auto cost = hw::bgfActivityCost(bgf.counters(), shape);
    EXPECT_GT(cost.fabricSec, 0.0);
    EXPECT_GT(cost.commSec, 0.0);
    EXPECT_EQ(cost.hostSec, 0.0);
    EXPECT_GT(cost.energyJ, 0.0);
}

TEST(Activity, GsCountersPriceToPositiveCost)
{
    Rng rng(2);
    const data::Dataset ds = smallImages(50);
    rbm::Rbm model(ds.dim(), 32);
    model.initRandom(rng);
    accel::GsConfig cfg;
    cfg.batchSize = 10;
    accel::GibbsSamplerAccel gs(model, cfg);
    gs.trainEpoch(ds, rng);

    const hw::LayerShape shape{ds.dim(), 32};
    const auto cost =
        hw::gsActivityCost(gs.counters(), shape, hw::tpuV1());
    EXPECT_GT(cost.fabricSec, 0.0);
    EXPECT_GT(cost.hostSec, 0.0);
    EXPECT_GT(cost.commSec, 0.0);
    // Host work dominates GS, as in Fig. 5's decomposition.
    EXPECT_GT(cost.hostSec, cost.fabricSec);
}

TEST(Activity, BgfAgreesWithAnalyticModelOnMatchedWorkload)
{
    // Run the behavioral BGF over N samples and compare the measured
    // counter cost against the Fig. 5 analytic prediction for the
    // same shape, k and sample count.  The two build the anneal time
    // from the same constants, so they must agree closely.
    Rng rng(3);
    const data::Dataset ds = smallImages(60);
    const int k = 5;
    accel::BgfConfig cfg;
    cfg.learningRate = 1e-3;
    cfg.annealSteps = k;
    accel::BoltzmannGradientFollower bgf(ds.dim(), 48, cfg);
    rbm::Rbm init(ds.dim(), 48);
    bgf.initialize(init);
    bgf.trainEpoch(ds, rng);

    const hw::LayerShape shape{ds.dim(), 48};
    const auto measured = hw::bgfActivityCost(bgf.counters(), shape);

    const hw::TimingModel timing;
    hw::Workload w{"matched", {shape}, k, 1, ds.size()};
    const double predicted = timing.bgfTime(w).total();
    // Fabric-time agreement within 25% (the analytic model charges a
    // full settle + pump per sample that the sweep decomposition
    // apportions slightly differently).
    EXPECT_NEAR(measured.fabricSec / predicted, 1.0, 0.25);
}

TEST(Activity, EnergyScalesWithWorkDone)
{
    Rng rng(4);
    const data::Dataset ds = smallImages(40);
    accel::BgfConfig cfg;
    cfg.learningRate = 1e-3;
    accel::BoltzmannGradientFollower bgf(ds.dim(), 24, cfg);
    rbm::Rbm init(ds.dim(), 24);
    bgf.initialize(init);

    const hw::LayerShape shape{ds.dim(), 24};
    bgf.trainEpoch(ds, rng);
    const double oneEpoch =
        hw::bgfActivityCost(bgf.counters(), shape).energyJ;
    bgf.trainEpoch(ds, rng);
    const double twoEpochs =
        hw::bgfActivityCost(bgf.counters(), shape).energyJ;
    EXPECT_NEAR(twoEpochs / oneEpoch, 2.0, 0.05);
}
