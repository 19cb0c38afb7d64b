/**
 * @file
 * Integration tests: full pipelines across modules, mirroring the
 * paper's experiments at miniature scale.
 */

#include <gtest/gtest.h>

#include "accel/bgf.hpp"
#include "accel/gibbs_sampler.hpp"
#include "data/glyphs.hpp"
#include "eval/classifier.hpp"
#include "eval/metrics.hpp"
#include "rbm/ais.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/exact.hpp"

using namespace ising;
using util::Rng;

namespace {

/** Featurize a dataset through a trained RBM's hidden means. */
data::Dataset
featurize(const rbm::Rbm &model, const data::Dataset &ds)
{
    data::Dataset out;
    out.name = ds.name;
    out.numClasses = ds.numClasses;
    out.labels = ds.labels;
    out.samples.reset(ds.size(), model.numHidden());
    linalg::Vector ph;
    for (std::size_t r = 0; r < ds.size(); ++r) {
        model.hiddenProbs(ds.sample(r), ph);
        std::copy(ph.begin(), ph.end(), out.samples.row(r));
    }
    return out;
}

} // namespace

TEST(Integration, CdFeaturesClassifyAboveChance)
{
    Rng rng(1);
    const data::Dataset raw =
        data::makeGlyphs(data::digitsStyle(), 600, 21);
    const data::Dataset bin = data::binarizeThreshold(raw);
    const data::Split split = data::trainTestSplit(bin, 0.25, rng);

    rbm::Rbm model(bin.dim(), 48);
    model.initRandom(rng);
    rbm::CdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.batchSize = 25;
    rbm::CdTrainer trainer(model, cfg);
    for (int e = 0; e < 5; ++e)
        trainer.trainEpoch(split.train, rng);

    eval::LogisticConfig lcfg;
    lcfg.epochs = 40;
    const double acc = eval::classifierAccuracy(
        featurize(model, split.train), featurize(model, split.test),
        lcfg, rng);
    EXPECT_GT(acc, 0.6);  // chance is 0.1
}

TEST(Integration, BgfFeaturesMatchCdFeatures)
{
    // The Table 4 claim at miniature scale: BGF-trained features give
    // essentially the same classification accuracy as CD-trained ones.
    Rng rng(2);
    const data::Dataset raw =
        data::makeGlyphs(data::digitsStyle(), 600, 22);
    const data::Dataset bin = data::binarizeThreshold(raw);
    const data::Split split = data::trainTestSplit(bin, 0.25, rng);

    // CD baseline.
    rbm::Rbm cdModel(bin.dim(), 48);
    cdModel.initRandom(rng);
    rbm::CdConfig cdCfg;
    cdCfg.learningRate = 0.1;
    cdCfg.batchSize = 25;
    rbm::CdTrainer trainer(cdModel, cdCfg);
    for (int e = 0; e < 5; ++e)
        trainer.trainEpoch(split.train, rng);

    // BGF.
    accel::BgfConfig bgfCfg;
    bgfCfg.learningRate = 0.1 / 25.0;
    bgfCfg.annealSteps = 2;
    accel::BoltzmannGradientFollower bgf(bin.dim(), 48, bgfCfg);
    rbm::Rbm init(bin.dim(), 48);
    init.initRandom(rng);
    bgf.initialize(init);
    for (int e = 0; e < 5; ++e)
        bgf.trainEpoch(split.train, rng);
    const rbm::Rbm bgfModel = bgf.readOut();

    eval::LogisticConfig lcfg;
    lcfg.epochs = 40;
    const double accCd = eval::classifierAccuracy(
        featurize(cdModel, split.train), featurize(cdModel, split.test),
        lcfg, rng);
    const double accBgf = eval::classifierAccuracy(
        featurize(bgfModel, split.train), featurize(bgfModel, split.test),
        lcfg, rng);
    EXPECT_GT(accBgf, 0.5);
    EXPECT_NEAR(accBgf, accCd, 0.15);
}

TEST(Integration, LogProbTrajectoryRisesUnderBgf)
{
    // Fig. 7 at miniature scale: AIS-estimated average log probability
    // improves over BGF training.
    Rng rng(3);
    const data::Dataset raw =
        data::makeGlyphs(data::digitsStyle(), 300, 23);
    const data::Dataset bin = data::binarizeThreshold(raw);

    accel::BgfConfig cfg;
    cfg.learningRate = 0.004;
    cfg.annealSteps = 2;
    accel::BoltzmannGradientFollower bgf(bin.dim(), 24, cfg);
    rbm::Rbm init(bin.dim(), 24);
    init.initRandom(rng);
    bgf.initialize(init);

    rbm::AisConfig aisCfg;
    aisCfg.numChains = 32;
    aisCfg.numBetas = 60;
    rbm::AisEstimator ais(aisCfg, rng);
    const double before = ais.averageLogProb(bgf.readOut(), bin, bin);
    for (int e = 0; e < 4; ++e)
        bgf.trainEpoch(bin, rng);
    const double after = ais.averageLogProb(bgf.readOut(), bin, bin);
    EXPECT_GT(after, before + 5.0);
}

TEST(Integration, KlBiasOrderingOnEnumerableSystem)
{
    // Appendix A at reduced scale: on a 12v x 4h system, ML and BGF
    // and CD all land at comparable KL divergence from ground truth.
    Rng rng(4);
    const std::size_t m = 12, n = 4;

    // Ground-truth data: random sparse patterns over 12 bits.
    data::Dataset train;
    train.samples.reset(60, m);
    for (std::size_t r = 0; r < 60; ++r)
        for (std::size_t i = 0; i < m; ++i)
            train.samples(r, i) =
                ((r * 7 + i * 3) % 5 == 0) ? 1.0f : 0.0f;
    const auto truth = rbm::exact::empiricalDistribution(train);

    // CD-1.
    rbm::Rbm cdModel(m, n);
    cdModel.initRandom(rng, 0.01f);
    rbm::CdConfig cdCfg;
    cdCfg.learningRate = 0.1;
    cdCfg.batchSize = 10;
    rbm::CdTrainer cd(cdModel, cdCfg);
    for (int e = 0; e < 100; ++e)
        cd.trainEpoch(train, rng);

    // ML (exact gradient).  Larger init and more steps: the exact
    // ascent starts on a near-symmetric plateau.
    rbm::Rbm mlModel(m, n);
    mlModel.initRandom(rng, 0.05f);
    for (int s = 0; s < 2000; ++s)
        rbm::exact::mlStep(mlModel, train, 0.2);

    // BGF.
    accel::BgfConfig bgfCfg;
    bgfCfg.learningRate = 0.01;
    bgfCfg.annealSteps = 2;
    accel::BoltzmannGradientFollower bgf(m, n, bgfCfg);
    rbm::Rbm init(m, n);
    init.initRandom(rng, 0.01f);
    bgf.initialize(init);
    for (int e = 0; e < 100; ++e)
        bgf.trainEpoch(train, rng);

    auto kl = [&](const rbm::Rbm &model) {
        return eval::klDivergence(
            truth, rbm::exact::visibleDistribution(model));
    };
    const double klCd = kl(cdModel);
    const double klMl = kl(mlModel);
    const double klBgf = kl(bgf.readOut());

    // ML is the gold standard; CD and BGF must be in its neighborhood,
    // and all far better than an untrained model.
    rbm::Rbm untrained(m, n);
    untrained.initRandom(rng, 0.01f);
    const double klNull = kl(untrained);
    EXPECT_LT(klMl, klNull);
    EXPECT_LT(klCd, klNull);
    EXPECT_LT(klBgf, klNull);
    EXPECT_LT(klMl, klCd + 0.3);
    EXPECT_LT(klBgf, klCd + 0.5);
}
