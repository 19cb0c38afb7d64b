/**
 * @file
 * Tests for the extension modules: multi-chip scaling model,
 * data-parallel BGF, sampling utilities and the shared pipelines.
 */

#include <gtest/gtest.h>

#include "accel/parallel_bgf.hpp"
#include "data/glyphs.hpp"
#include "eval/pipelines.hpp"
#include "hw/multichip.hpp"
#include "rbm/exact.hpp"
#include "rbm/sampling.hpp"

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

} // namespace

TEST(MultiChip, SingleChipHasNoOverhead)
{
    const hw::TimingModel timing;
    const hw::MultiChipModel model({}, timing);
    const hw::Tiling t = model.tilingFor(784, 200);
    EXPECT_TRUE(t.singleChip());
    EXPECT_EQ(model.sweepOverheadSec(784, 200), 0.0);
}

TEST(MultiChip, TilingCountsMatchCeilDivision)
{
    const hw::TimingModel timing;
    hw::MultiChipConfig cfg;
    cfg.chipEdge = 1600;
    const hw::MultiChipModel model(cfg, timing);
    const hw::Tiling t = model.tilingFor(4000, 2000);
    EXPECT_EQ(t.tilesVisible, 3u);
    EXPECT_EQ(t.tilesHidden, 2u);
    EXPECT_EQ(t.numChips(), 6u);
}

TEST(MultiChip, TiledSweepsPayOverhead)
{
    const hw::TimingModel timing;
    hw::MultiChipConfig cfg;
    cfg.chipEdge = 1600;
    const hw::MultiChipModel model(cfg, timing);
    EXPECT_GT(model.sweepOverheadSec(4000, 2000), 0.0);
}

TEST(MultiChip, BgfTimeMatchesBaseModelWhenFitting)
{
    const hw::TimingModel timing;
    const hw::MultiChipModel model({}, timing);
    const hw::Workload w{"fit", {{784, 200}}, 10, 500, 1000};
    EXPECT_DOUBLE_EQ(model.bgfTime(w).total(),
                     timing.bgfTime(w).total());
    EXPECT_EQ(model.interChipEnergyJ(w), 0.0);
}

TEST(MultiChip, LargerModelCostsMore)
{
    const hw::TimingModel timing;
    hw::MultiChipConfig cfg;
    cfg.chipEdge = 1024;
    const hw::MultiChipModel model(cfg, timing);
    const hw::Workload big{"big", {{4096, 2048}}, 10, 500, 1000};
    EXPECT_GT(model.bgfTime(big).total(),
              timing.bgfTime(big).total());
    EXPECT_GT(model.interChipEnergyJ(big), 0.0);
}

TEST(ParallelBgf, ReplicasShareWorkAndLearn)
{
    Rng rng(1);
    const std::uint64_t rootSeed = rng.next();
    const auto ds = stripeData(60, 12);
    accel::ParallelBgfConfig cfg;
    cfg.numReplicas = 3;
    cfg.syncEveryEpochs = 2;
    cfg.replica.learningRate = 0.02;
    cfg.replica.annealSteps = 2;
    cfg.replica.analog.idealComponents = true;
    accel::ParallelBgf fleet(12, 5, cfg);
    rbm::Rbm init(12, 5);
    init.initRandom(rng, 0.01f);
    fleet.initialize(init);

    const double before =
        rbm::exact::meanLogLikelihood(fleet.meanModel(), ds);
    for (int epoch = 0; epoch < 30; ++epoch)
        fleet.trainEpoch(ds, rootSeed, epoch);
    const double after =
        rbm::exact::meanLogLikelihood(fleet.meanModel(), ds);
    EXPECT_GT(after, before + 1.0);
    EXPECT_EQ(fleet.samplesProcessed(), 30u * 60u);
    EXPECT_EQ(fleet.numReplicas(), 3u);
}

TEST(ParallelBgf, SingleReplicaDegeneratesToBgf)
{
    Rng rng(2);
    const std::uint64_t rootSeed = rng.next();
    const auto ds = stripeData(40, 10);
    accel::ParallelBgfConfig cfg;
    cfg.numReplicas = 1;
    cfg.replica.learningRate = 0.02;
    cfg.replica.analog.idealComponents = true;
    accel::ParallelBgf fleet(10, 4, cfg);
    rbm::Rbm init(10, 4);
    init.initRandom(rng, 0.01f);
    fleet.initialize(init);
    for (int epoch = 0; epoch < 20; ++epoch)
        fleet.trainEpoch(ds, rootSeed, epoch);
    EXPECT_GT(rbm::exact::meanLogLikelihood(fleet.meanModel(), ds), -7.0);
}

TEST(ParallelBgf, WideFleetStillLearns)
{
    // Sharding the stream over many fabrics (each replica sees 1/R of
    // the data per epoch) must still converge to a useful model.
    const auto ds = stripeData(60, 10);
    Rng rng(3);
    const std::uint64_t rootSeed = rng.next();
    accel::ParallelBgfConfig cfg;
    cfg.numReplicas = 4;
    cfg.replica.learningRate = 0.02;
    cfg.replica.annealSteps = 2;
    cfg.replica.analog.idealComponents = true;
    accel::ParallelBgf fleet(10, 4, cfg);
    rbm::Rbm init(10, 4);
    init.initRandom(rng, 0.01f);
    fleet.initialize(init);
    const double before =
        rbm::exact::meanLogLikelihood(fleet.meanModel(), ds);
    for (int epoch = 0; epoch < 30; ++epoch)
        fleet.trainEpoch(ds, rootSeed, epoch);
    const double after =
        rbm::exact::meanLogLikelihood(fleet.meanModel(), ds);
    EXPECT_GT(after, before + 1.5);
}

TEST(Sampling, FantasyShapes)
{
    Rng rng(4);
    rbm::Rbm model(16, 8);
    model.initRandom(rng, 0.5f);
    const data::Dataset out = rbm::fantasySamples(model, 5, 10, rng);
    EXPECT_EQ(out.size(), 5u);
    EXPECT_EQ(out.dim(), 16u);
    const float *d = out.samples.data();
    for (std::size_t i = 0; i < out.samples.size(); ++i) {
        ASSERT_GE(d[i], 0.0f);
        ASSERT_LE(d[i], 1.0f);
    }
}

TEST(Sampling, ConditionalRespectsClamps)
{
    Rng rng(5);
    rbm::Rbm model(8, 4);
    model.initRandom(rng, 0.3f);
    std::vector<float> mask(8, -1.0f);
    mask[0] = 1.0f;
    mask[3] = 0.0f;
    const data::Dataset out =
        rbm::conditionalSamples(model, mask, 4, 20, rng);
    for (std::size_t s = 0; s < out.size(); ++s) {
        EXPECT_EQ(out.samples(s, 0), 1.0f);
        EXPECT_EQ(out.samples(s, 3), 0.0f);
    }
}

TEST(Sampling, AsciiImageDimensions)
{
    std::vector<float> img(16, 0.0f);
    img[0] = 1.0f;
    const std::string art = rbm::asciiImage(img.data(), 4);
    EXPECT_EQ(art.size(), 4u * 5u);  // 4 rows of 4 chars + newline
    EXPECT_EQ(art[0], '#');
    EXPECT_EQ(art[1], ' ');
}

TEST(Pipelines, TrainRbmAllEnginesLearn)
{
    const data::Dataset raw =
        data::makeGlyphs(data::digitsStyle(), 200, 9);
    const data::Dataset ds = data::binarizeThreshold(raw);
    for (eval::Trainer trainer :
         {eval::Trainer::CdK, eval::Trainer::GibbsSampler,
          eval::Trainer::Bgf}) {
        eval::TrainSpec spec;
        spec.trainer = trainer;
        spec.epochs = 2;
        spec.seed = 11;
        const rbm::Rbm model = eval::trainRbm(ds, 24, spec);
        // The trained model must assign the data lower free energy
        // than an untrained one.
        util::Rng rng(12);
        rbm::Rbm fresh(ds.dim(), 24);
        fresh.initRandom(rng);
        EXPECT_LT(model.meanFreeEnergy(ds.samples) -
                      model.freeEnergy(std::vector<float>(
                          ds.dim(), 0.5f).data()),
                  fresh.meanFreeEnergy(ds.samples) -
                      fresh.freeEnergy(std::vector<float>(
                          ds.dim(), 0.5f).data()))
            << "trainer " << static_cast<int>(trainer);
    }
}

TEST(Pipelines, EpochHookFires)
{
    const data::Dataset raw =
        data::makeGlyphs(data::digitsStyle(), 100, 10);
    const data::Dataset ds = data::binarizeThreshold(raw);
    int calls = 0;
    eval::TrainSpec spec;
    spec.epochs = 3;
    spec.onEpoch = [&](int, const rbm::Rbm &) { ++calls; };
    eval::trainRbm(ds, 16, spec);
    EXPECT_EQ(calls, 3);
}

TEST(Pipelines, FeaturizePreservesLabels)
{
    const data::Dataset raw =
        data::makeGlyphs(data::digitsStyle(), 50, 11);
    eval::TrainSpec spec;
    spec.epochs = 1;
    const rbm::Rbm model =
        eval::trainRbm(data::binarizeThreshold(raw), 12, spec);
    const data::Dataset feats = eval::featurize(model, raw);
    EXPECT_EQ(feats.dim(), 12u);
    EXPECT_EQ(feats.labels, raw.labels);
    EXPECT_EQ(feats.numClasses, raw.numClasses);
}
