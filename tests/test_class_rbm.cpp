/**
 * @file
 * Tests for the classification RBM and substrate-based inference.
 */

#include <gtest/gtest.h>

#include "data/bars.hpp"
#include "data/glyphs.hpp"
#include "rbm/class_rbm.hpp"

using namespace ising;
using rbm::ClassRbm;
using rbm::ClassRbmConfig;
using util::Rng;

namespace {

/** Train a small ClassRbm on bars-and-stripes orientation labels. */
ClassRbm
trainedOnBars(const data::Dataset &ds, int epochs, std::uint64_t seed)
{
    Rng rng(seed);
    ClassRbm model(ds.dim(), 2, 24);
    model.initRandom(rng);
    ClassRbmConfig cfg;
    cfg.learningRate = 0.1;
    for (int e = 0; e < epochs; ++e)
        model.trainEpoch(ds, cfg, rng);
    return model;
}

} // namespace

TEST(ClassRbm, JointDimensions)
{
    ClassRbm model(16, 4, 8);
    EXPECT_EQ(model.numPixels(), 16u);
    EXPECT_EQ(model.numClasses(), 4);
    EXPECT_EQ(model.joint().numVisible(), 20u);
    EXPECT_EQ(model.joint().numHidden(), 8u);
}

TEST(ClassRbm, ScoresOnePerClass)
{
    Rng rng(1);
    ClassRbm model(9, 3, 6);
    model.initRandom(rng, 0.3f);
    std::vector<float> pixels(9, 0.5f);
    std::vector<double> scores;
    model.classScores(pixels.data(), scores);
    ASSERT_EQ(scores.size(), 3u);
}

TEST(ClassRbm, LearnsBarsVsStripes)
{
    Rng dataRng(2);
    const data::Dataset ds = data::makeBarsAndStripes(4, 300, dataRng);
    const ClassRbm model = trainedOnBars(ds, 150, 3);
    EXPECT_GT(model.accuracy(ds), 0.85);
}

TEST(ClassRbm, UntrainedIsNearChance)
{
    Rng dataRng(4);
    const data::Dataset ds = data::makeBarsAndStripes(4, 200, dataRng);
    Rng rng(5);
    ClassRbm model(16, 2, 12);
    model.initRandom(rng);
    const double acc = model.accuracy(ds);
    EXPECT_GT(acc, 0.3);
    EXPECT_LT(acc, 0.75);
}

TEST(ClassRbm, FabricInferenceMatchesDigital)
{
    // Substrate-sampled classification must track exact free-energy
    // classification closely on an ideal fabric.
    Rng dataRng(6);
    const data::Dataset ds = data::makeBarsAndStripes(4, 300, dataRng);
    const ClassRbm model = trainedOnBars(ds, 150, 7);

    Rng fabricRng(8);
    machine::AnalogConfig cfg;
    cfg.idealComponents = true;
    machine::AnalogFabric fabric(model.joint().numVisible(),
                                 model.joint().numHidden(), cfg);
    fabric.program(model.joint());

    // Evaluate on a subset for speed.
    data::Dataset subset;
    subset.numClasses = 2;
    subset.samples.reset(60, ds.dim());
    subset.labels.resize(60);
    for (std::size_t r = 0; r < 60; ++r) {
        std::copy_n(ds.sample(r), ds.dim(), subset.samples.row(r));
        subset.labels[r] = ds.labels[r];
    }
    const double digital = model.accuracy(subset);
    const double analog =
        model.fabricAccuracy(fabric, subset, 30, fabricRng);
    EXPECT_GT(analog, digital - 0.15);
}

TEST(ClassRbm, FabricInferenceSurvivesCircuitModel)
{
    Rng dataRng(9);
    const data::Dataset ds = data::makeBarsAndStripes(4, 300, dataRng);
    const ClassRbm model = trainedOnBars(ds, 150, 10);

    Rng fabricRng(11);
    machine::AnalogConfig cfg;  // non-ideal defaults + mild noise
    cfg.noise = {0.05, 0.05};
    machine::AnalogFabric fabric(model.joint().numVisible(),
                                 model.joint().numHidden(), cfg);
    fabric.program(model.joint());

    data::Dataset subset;
    subset.numClasses = 2;
    subset.samples.reset(60, ds.dim());
    subset.labels.resize(60);
    for (std::size_t r = 0; r < 60; ++r) {
        std::copy_n(ds.sample(r), ds.dim(), subset.samples.row(r));
        subset.labels[r] = ds.labels[r];
    }
    EXPECT_GT(model.fabricAccuracy(fabric, subset, 30, fabricRng),
              0.65);
}
