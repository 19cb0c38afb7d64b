/**
 * @file
 * Tests for the training monitor and the bars-and-stripes dataset.
 */

#include <gtest/gtest.h>

#include "data/bars.hpp"
#include "eval/metrics.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/exact.hpp"
#include "rbm/monitor.hpp"

using namespace ising;
using util::Rng;

TEST(BarsAndStripes, PatternsAreBarsOrStripes)
{
    Rng rng(1);
    const data::Dataset ds = data::makeBarsAndStripes(4, 100, rng);
    EXPECT_EQ(ds.dim(), 16u);
    for (std::size_t r = 0; r < ds.size(); ++r) {
        const float *img = ds.sample(r);
        const bool columns = ds.labels[r] == 1;
        // Every line along the pattern orientation is constant.
        for (std::size_t line = 0; line < 4; ++line) {
            const float first = columns ? img[line] : img[line * 4];
            for (std::size_t k = 1; k < 4; ++k) {
                const float v =
                    columns ? img[k * 4 + line] : img[line * 4 + k];
                ASSERT_EQ(v, first)
                    << "row " << r << " line " << line;
            }
        }
    }
}

TEST(BarsAndStripes, ExactDistributionNormalized)
{
    const auto p = data::barsAndStripesDistribution(3);
    ASSERT_EQ(p.size(), 512u);
    double total = 0.0;
    std::size_t support = 0;
    for (double x : p) {
        total += x;
        support += x > 0.0;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    // 2*2^3 patterns, but all-zero and all-one collide across the two
    // orientations: 16 - 2 = 14 distinct states.
    EXPECT_EQ(support, 14u);
}

TEST(BarsAndStripes, EmpiricalMatchesExactDistribution)
{
    Rng rng(2);
    const data::Dataset ds = data::makeBarsAndStripes(3, 8000, rng);
    const auto truth = data::barsAndStripesDistribution(3);
    const auto empirical = rbm::exact::empiricalDistribution(ds);
    EXPECT_LT(eval::klDivergence(truth, empirical), 0.02);
}

TEST(BarsAndStripes, RbmLearnsTheDistribution)
{
    Rng rng(3);
    const data::Dataset ds = data::makeBarsAndStripes(3, 500, rng);
    rbm::Rbm model(9, 6);
    model.initRandom(rng, 0.05f);
    rbm::CdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.batchSize = 25;
    rbm::CdTrainer trainer(model, cfg);
    const auto truth = data::barsAndStripesDistribution(3);
    const double before = eval::klDivergence(
        truth, rbm::exact::visibleDistribution(model));
    for (int e = 0; e < 150; ++e)
        trainer.trainEpoch(ds, rng);
    const double after = eval::klDivergence(
        truth, rbm::exact::visibleDistribution(model));
    EXPECT_LT(after, before * 0.5);
}

TEST(DataStats, FeatureMeansAndOnFraction)
{
    data::Dataset ds;
    ds.samples.reset(4, 2);
    ds.samples(0, 0) = 1;
    ds.samples(1, 0) = 1;
    ds.samples(2, 1) = 1;
    const auto means = data::featureMeans(ds);
    EXPECT_NEAR(means[0], 0.5, 1e-12);
    EXPECT_NEAR(means[1], 0.25, 1e-12);
    EXPECT_NEAR(data::onFraction(ds), 3.0 / 8.0, 1e-12);
}

TEST(Monitor, RecordsSaneDiagnostics)
{
    Rng rng(4);
    const data::Dataset train = data::makeBarsAndStripes(4, 200, rng);
    const data::Dataset held = data::makeBarsAndStripes(4, 100, rng);

    rbm::Rbm model(16, 8);
    model.initRandom(rng, 0.05f);
    rbm::TrainingMonitor monitor(train, held);
    const auto &rec = monitor.observe(0, model, rng);
    EXPECT_EQ(rec.epoch, 0);
    EXPECT_GT(rec.reconstructionError, 0.0);
    EXPECT_GT(rec.weightRms, 0.0);
    EXPECT_LE(rec.weightRms, rec.weightMax);
    EXPECT_EQ(rec.saturationFrac, 0.0);  // tiny init, no saturation
    EXPECT_EQ(monitor.records().size(), 1u);
}

TEST(Monitor, GapNearZeroForMatchedSplits)
{
    // Train and held-out drawn from the same distribution: the free
    // energy gap of an untrained model is near zero.
    Rng rng(5);
    const data::Dataset train = data::makeBarsAndStripes(4, 400, rng);
    const data::Dataset held = data::makeBarsAndStripes(4, 400, rng);
    rbm::Rbm model(16, 8);
    model.initRandom(rng, 0.05f);
    rbm::TrainingMonitor monitor(train, held);
    const auto &rec = monitor.observe(0, model, rng);
    EXPECT_NEAR(rec.freeEnergyGap(), 0.0, 0.5);
}

TEST(Monitor, TracksTrainingProgress)
{
    Rng rng(6);
    const data::Dataset train = data::makeBarsAndStripes(4, 300, rng);
    const data::Dataset held = data::makeBarsAndStripes(4, 150, rng);

    rbm::Rbm model(16, 8);
    model.initRandom(rng, 0.05f);
    rbm::CdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.batchSize = 25;
    rbm::CdTrainer trainer(model, cfg);

    rbm::TrainingMonitor monitor(train, held);
    monitor.observe(0, model, rng);
    for (int e = 1; e <= 20; ++e) {
        trainer.trainEpoch(train, rng);
        monitor.observe(e, model, rng);
    }
    const auto &log = monitor.records();
    // Reconstruction error falls and weights grow as learning proceeds.
    EXPECT_LT(log.back().reconstructionError,
              log.front().reconstructionError);
    EXPECT_GT(log.back().weightRms, log.front().weightRms);
    // Matched distributions: no overfitting alarm expected.
    EXPECT_FALSE(monitor.overfittingDetected(5));
}

TEST(Monitor, OverfittingDetectorNeedsMonotoneGrowth)
{
    Rng rng(7);
    const data::Dataset a = data::makeBarsAndStripes(3, 50, rng);
    rbm::TrainingMonitor monitor(a, a);
    rbm::Rbm model(9, 4);
    model.initRandom(rng, 0.05f);
    for (int e = 0; e < 6; ++e)
        monitor.observe(e, model, rng);
    EXPECT_FALSE(monitor.overfittingDetected(3));
}

TEST(Monitor, OverfittingDetectorIgnoresWeightOnlyRecords)
{
    // The stop signal must survive layer-tagged sessions that append
    // free-energy-less observeWeights rows (gap 0) next to the real
    // per-epoch gap trajectory, and must count epochs, not records.
    rbm::TrainingMonitor monitor(data::Dataset{}, data::Dataset{});
    linalg::Matrix w(2, 2);
    for (int e = 0; e < 5; ++e) {
        // Hand-build a strictly growing gap via the record list: a
        // real free-energy record followed by a weight-only record.
        rbm::MonitorRecord &rec = const_cast<rbm::MonitorRecord &>(
            monitor.observeWeights(e, -1, w, 0.0));
        rec.trainFreeEnergy = -10.0;
        rec.heldOutFreeEnergy = -10.0 + e;  // gap grows every epoch
        monitor.observeWeights(e, 1, w, 0.0);  // gap-0 noise row
    }
    EXPECT_TRUE(monitor.overfittingDetected(3));
}
