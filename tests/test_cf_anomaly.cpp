/**
 * @file
 * Tests for the CF-RBM recommendation model and anomaly scoring.
 */

#include <gtest/gtest.h>

#include "data/fraud.hpp"
#include "data/ratings.hpp"
#include "eval/metrics.hpp"
#include "rbm/anomaly.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/cf_rbm.hpp"

using namespace ising;
using util::Rng;

namespace {

data::RatingData
smallCorpus(std::uint64_t seed)
{
    data::RatingStyle style;
    style.numUsers = 120;
    style.numItems = 40;
    style.density = 0.25;
    return data::makeRatings(style, seed);
}

} // namespace

TEST(CfRbm, PredictionsInStarRange)
{
    Rng rng(1);
    const auto corpus = smallCorpus(2);
    rbm::CfRbm model(corpus.numUsers, 5, 16);
    model.initRandom(rng);
    rbm::CfConfig cfg;
    cfg.epochs = 2;
    model.train(corpus, cfg, rng);
    for (int i = 0; i < 5; ++i) {
        const double p = model.predict(corpus, i * 7 % corpus.numUsers,
                                       i % corpus.numItems);
        EXPECT_GE(p, 1.0);
        EXPECT_LE(p, 5.0);
    }
}

TEST(CfRbm, BeatsMidpointBaseline)
{
    Rng rng(2);
    const auto corpus = smallCorpus(3);
    rbm::CfRbm model(corpus.numUsers, 5, 24);
    model.initFromData(corpus, rng);
    rbm::CfConfig cfg;
    cfg.epochs = 15;
    cfg.learningRate = 0.005;
    model.train(corpus, cfg, rng);
    const double mae = model.testMae(corpus);

    // Constant prediction of 3 stars.
    double baseline = 0.0;
    for (const auto &r : corpus.test)
        baseline += std::abs(3.0 - r.stars);
    baseline /= corpus.test.size();
    EXPECT_LT(mae, baseline);
}

TEST(CfRbm, TrainingReducesMae)
{
    // Training should improve (or at least not hurt) a randomly
    // initialized model substantially.
    Rng rng(3);
    const auto corpus = smallCorpus(4);
    rbm::CfRbm model(corpus.numUsers, 5, 24);
    model.initRandom(rng);
    const double before = model.testMae(corpus);
    rbm::CfConfig cfg;
    cfg.epochs = 20;
    cfg.learningRate = 0.01;
    model.train(corpus, cfg, rng);
    EXPECT_LT(model.testMae(corpus), before + 0.02);
}

TEST(CfRbm, DataInitBeatsRandomInit)
{
    Rng rng(31);
    const auto corpus = smallCorpus(4);
    rbm::CfRbm randomInit(corpus.numUsers, 5, 24);
    randomInit.initRandom(rng);
    rbm::CfRbm dataInit(corpus.numUsers, 5, 24);
    dataInit.initFromData(corpus, rng);
    EXPECT_LT(dataInit.testMae(corpus), randomInit.testMae(corpus));
}

TEST(CfRbm, HardwareModeStillLearns)
{
    Rng rng(4);
    const auto corpus = smallCorpus(5);
    rbm::CfRbm model(corpus.numUsers, 5, 24);
    model.initFromData(corpus, rng);
    rbm::CfConfig cfg;
    cfg.epochs = 15;
    cfg.learningRate = 0.005;
    rbm::CfHardwareMode hw;
    hw.noise = {0.05, 0.05};
    cfg.hardware = hw;
    model.train(corpus, cfg, rng);
    double baseline = 0.0;
    for (const auto &r : corpus.test)
        baseline += std::abs(3.0 - r.stars);
    baseline /= corpus.test.size();
    EXPECT_LT(model.testMae(corpus), baseline);
}

TEST(CfRbm, HeavyNoiseDegradesButNotCatastrophically)
{
    const auto corpus = smallCorpus(6);
    auto maeWithNoise = [&](double rms) {
        Rng rng(5);
        rbm::CfRbm model(corpus.numUsers, 5, 24);
        model.initFromData(corpus, rng);
        rbm::CfConfig cfg;
        cfg.epochs = 10;
        cfg.learningRate = 0.005;
        rbm::CfHardwareMode hw;
        hw.noise = {rms, rms};
        cfg.hardware = hw;
        model.train(corpus, cfg, rng);
        return model.testMae(corpus);
    };
    const double clean = maeWithNoise(0.0);
    const double noisy = maeWithNoise(0.3);
    EXPECT_LT(noisy, clean + 0.4);  // Fig. 9: small spread
}

TEST(Anomaly, ReconstructionErrorSeparatesFraud)
{
    // The paper's cited fraud pipeline (Pumsirirat & Yan) scores by
    // RBM reconstruction error; that is what Fig. 10 measures here.
    Rng rng(6);
    data::FraudStyle style;
    style.fraudRate = 0.02;
    const data::Dataset all = data::makeFraud(style, 3000, 7);

    // Train on (mostly legitimate) data.
    rbm::Rbm model(all.dim(), 10);
    model.initRandom(rng);
    rbm::CdConfig cfg;
    cfg.learningRate = 0.05;
    cfg.batchSize = 50;
    rbm::CdTrainer trainer(model, cfg);
    for (int e = 0; e < 15; ++e)
        trainer.trainEpoch(all, rng);

    const auto scores = rbm::reconstructionScores(model, all);
    const double auc = eval::rocAuc(scores, all.labels);
    EXPECT_GT(auc, 0.90);  // paper reports ~0.96 on the real corpus

    // Free-energy scoring is the weaker alternative on continuous
    // features but must stay at or above chance.
    const auto fe = rbm::anomalyScores(model, all);
    EXPECT_GT(eval::rocAuc(fe, all.labels), 0.45);
}

TEST(Anomaly, ScoresSizedToDataset)
{
    Rng rng(7);
    const data::Dataset ds = data::makeFraud({}, 100, 8);
    rbm::Rbm model(ds.dim(), 10);
    model.initRandom(rng);
    EXPECT_EQ(rbm::anomalyScores(model, ds).size(), 100u);
    EXPECT_EQ(rbm::reconstructionScores(model, ds).size(), 100u);
}

TEST(Anomaly, ReconstructionScoreAlsoSeparates)
{
    Rng rng(8);
    data::FraudStyle style;
    style.fraudRate = 0.05;
    const data::Dataset all = data::makeFraud(style, 2000, 9);
    rbm::Rbm model(all.dim(), 10);
    model.initRandom(rng);
    rbm::CdConfig cfg;
    cfg.learningRate = 0.05;
    cfg.batchSize = 50;
    rbm::CdTrainer trainer(model, cfg);
    for (int e = 0; e < 15; ++e)
        trainer.trainEpoch(all, rng);
    const auto scores = rbm::reconstructionScores(model, all);
    EXPECT_GT(eval::rocAuc(scores, all.labels), 0.7);
}
