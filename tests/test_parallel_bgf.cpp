/**
 * @file
 * Determinism and equivalence of the threaded training paths: the
 * ParallelBgf fleet and the CD trainer must produce bit-identical
 * models for any worker count at a fixed seed, and reproduce
 * run-to-run.
 */

#include <gtest/gtest.h>

#include "accel/parallel_bgf.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/ops.hpp"
#include "rbm/cd_trainer.hpp"

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

rbm::Rbm
trainFleet(exec::ThreadPool &pool, std::size_t replicas,
           std::size_t *samples = nullptr)
{
    const auto ds = stripeData(60, 12);
    Rng rng(21);
    const std::uint64_t rootSeed = rng.next();
    accel::ParallelBgfConfig cfg;
    cfg.numReplicas = replicas;
    cfg.syncEveryEpochs = 1;
    cfg.replica.learningRate = 0.02;
    cfg.replica.annealSteps = 2;
    cfg.pool = &pool;
    accel::ParallelBgf fleet(12, 5, cfg);
    rbm::Rbm init(12, 5);
    init.initRandom(rng, 0.01f);
    fleet.initialize(init);
    for (int epoch = 0; epoch < 6; ++epoch)
        fleet.trainEpoch(ds, rootSeed, epoch);
    if (samples)
        *samples = fleet.samplesProcessed();
    return fleet.meanModel();
}

rbm::Rbm
trainCd(exec::ThreadPool &pool, bool persistent, int epochs = 5)
{
    const auto ds = stripeData(60, 12);
    Rng rng(31);
    rbm::Rbm model(12, 5);
    model.initRandom(rng, 0.01f);
    rbm::CdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.k = 2;
    cfg.batchSize = 10;
    cfg.persistent = persistent;
    cfg.numParticles = 4;
    cfg.pool = &pool;
    rbm::CdTrainer trainer(model, cfg);
    for (int e = 0; e < epochs; ++e)
        trainer.trainEpoch(ds, rng);
    return model;
}

} // namespace

TEST(ParallelBgf, SerialAndThreadedAgreeBitwise)
{
    exec::ThreadPool serial(1);
    exec::ThreadPool threaded(4);
    std::size_t samplesA = 0, samplesB = 0;
    const rbm::Rbm a = trainFleet(serial, 4, &samplesA);
    const rbm::Rbm b = trainFleet(threaded, 4, &samplesB);
    EXPECT_EQ(samplesA, samplesB);
    EXPECT_EQ(linalg::maxAbsDiff(a.weights(), b.weights()), 0.0);
    EXPECT_TRUE(a.visibleBias() == b.visibleBias());
    EXPECT_TRUE(a.hiddenBias() == b.hiddenBias());
}

TEST(ParallelBgf, ReproducesRunToRun)
{
    exec::ThreadPool pool(3);
    const rbm::Rbm a = trainFleet(pool, 3);
    const rbm::Rbm b = trainFleet(pool, 3);
    EXPECT_EQ(linalg::maxAbsDiff(a.weights(), b.weights()), 0.0);
}

TEST(ParallelBgf, WorkerCountDoesNotChangeTheModel)
{
    exec::ThreadPool two(2);
    exec::ThreadPool eight(8);
    const rbm::Rbm a = trainFleet(two, 4);
    const rbm::Rbm b = trainFleet(eight, 4);
    EXPECT_EQ(linalg::maxAbsDiff(a.weights(), b.weights()), 0.0);
}

TEST(CdTrainer, SerialAndThreadedAgreeBitwise)
{
    exec::ThreadPool serial(1);
    exec::ThreadPool threaded(4);
    const rbm::Rbm a = trainCd(serial, /*persistent=*/false);
    const rbm::Rbm b = trainCd(threaded, /*persistent=*/false);
    EXPECT_EQ(linalg::maxAbsDiff(a.weights(), b.weights()), 0.0);
    EXPECT_TRUE(a.visibleBias() == b.visibleBias());
    EXPECT_TRUE(a.hiddenBias() == b.hiddenBias());
}

TEST(CdTrainer, PcdSerialAndThreadedAgreeBitwise)
{
    exec::ThreadPool serial(1);
    exec::ThreadPool threaded(4);
    const rbm::Rbm a = trainCd(serial, /*persistent=*/true);
    const rbm::Rbm b = trainCd(threaded, /*persistent=*/true);
    EXPECT_EQ(linalg::maxAbsDiff(a.weights(), b.weights()), 0.0);
}

TEST(CdTrainer, ThreadedTrainingStillLearns)
{
    exec::ThreadPool pool(4);
    const auto ds = stripeData(60, 12);
    const rbm::Rbm model = trainCd(pool, false, 30);
    // Reconstruction of the training stripes must beat chance (0.25
    // for a maximally uncertain model) by a clear margin.
    linalg::Vector ph, pv;
    double err = 0.0;
    for (std::size_t r = 0; r < ds.size(); ++r) {
        model.hiddenProbs(ds.sample(r), ph);
        model.visibleProbs(ph.data(), pv);
        for (std::size_t i = 0; i < ds.dim(); ++i) {
            const double d = pv[i] - ds.samples(r, i);
            err += d * d;
        }
    }
    err /= static_cast<double>(ds.size() * ds.dim());
    EXPECT_LT(err, 0.15);
}
