/**
 * @file
 * Tests for DBN stacking.
 */

#include <gtest/gtest.h>

#include "data/glyphs.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/dbn.hpp"

using namespace ising;
using util::Rng;

TEST(Dbn, LayerConstruction)
{
    rbm::Dbn dbn({784, 100, 50});
    ASSERT_EQ(dbn.numLayers(), 2u);
    EXPECT_EQ(dbn.layer(0).numVisible(), 784u);
    EXPECT_EQ(dbn.layer(0).numHidden(), 100u);
    EXPECT_EQ(dbn.layer(1).numVisible(), 100u);
    EXPECT_EQ(dbn.layer(1).numHidden(), 50u);
}

TEST(Dbn, TransformShapes)
{
    Rng rng(1);
    rbm::Dbn dbn({20, 12, 6});
    dbn.initRandom(rng);
    data::Dataset ds;
    ds.samples.reset(7, 20);
    ds.labels.assign(7, 0);
    ds.numClasses = 1;
    const data::Dataset top = dbn.transform(ds);
    EXPECT_EQ(top.size(), 7u);
    EXPECT_EQ(top.dim(), 6u);
    EXPECT_EQ(top.labels.size(), 7u);
    const data::Dataset mid = dbn.transform(ds, 1);
    EXPECT_EQ(mid.dim(), 12u);
}

TEST(Dbn, TransformValuesAreProbabilities)
{
    Rng rng(2);
    rbm::Dbn dbn({16, 8, 4});
    dbn.initRandom(rng, 0.5f);
    data::Dataset ds;
    ds.samples.reset(5, 16, 1.0f);
    const data::Dataset top = dbn.transform(ds);
    const float *d = top.samples.data();
    for (std::size_t i = 0; i < top.samples.size(); ++i) {
        ASSERT_GE(d[i], 0.0f);
        ASSERT_LE(d[i], 1.0f);
    }
}

TEST(Dbn, GreedyTrainingVisitsEveryLayer)
{
    Rng rng(3);
    rbm::Dbn dbn({12, 8, 5});
    dbn.initRandom(rng);
    data::Dataset ds;
    ds.samples.reset(10, 12);
    for (std::size_t r = 0; r < 10; ++r)
        for (std::size_t i = 0; i < 12; ++i)
            ds.samples(r, i) = (r + i) % 2 ? 1.0f : 0.0f;

    std::vector<std::pair<std::size_t, std::size_t>> seen;
    dbn.trainGreedy(ds, [&](rbm::Rbm &layer, const data::Dataset &d) {
        seen.emplace_back(layer.numVisible(), d.dim());
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, 12u);
    EXPECT_EQ(seen[0].second, 12u);
    EXPECT_EQ(seen[1].first, 8u);
    EXPECT_EQ(seen[1].second, 8u);  // layer 1 sees layer-0 features
}

TEST(Dbn, GreedyTrainingWithCdLearns)
{
    Rng rng(4);
    const data::Dataset raw =
        data::makeGlyphs(data::digitsStyle(), 200, 11);
    const data::Dataset ds = data::binarizeThreshold(raw);

    rbm::Dbn dbn({ds.dim(), 32, 16});
    dbn.initRandom(rng);
    dbn.trainGreedy(ds, [&](rbm::Rbm &layer, const data::Dataset &d) {
        rbm::CdConfig cfg;
        cfg.learningRate = 0.1;
        cfg.batchSize = 20;
        rbm::CdTrainer trainer(layer, cfg);
        for (int e = 0; e < 3; ++e)
            trainer.trainEpoch(d, rng);
    });
    // Features at the top should not be degenerate: variance across
    // samples must be nonzero for a majority of units.
    const data::Dataset top = dbn.transform(ds);
    std::size_t varied = 0;
    for (std::size_t j = 0; j < top.dim(); ++j) {
        float mn = 1.0f, mx = 0.0f;
        for (std::size_t r = 0; r < top.size(); ++r) {
            mn = std::min(mn, top.samples(r, j));
            mx = std::max(mx, top.samples(r, j));
        }
        varied += (mx - mn) > 0.05f;
    }
    EXPECT_GT(varied, top.dim() / 2);
}
