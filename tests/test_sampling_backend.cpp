/**
 * @file
 * Conformance suite for the unified SamplingBackend interface, run
 * against both implementations (software math and analog fabric), plus
 * software-specific exactness checks for the cached-transpose kernels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "accel/fabric_backend.hpp"
#include "rbm/sampling.hpp"
#include "rbm/sampling_backend.hpp"

using namespace ising;
using util::Rng;

namespace {

/** A model with strong structure so sampling statistics are testable. */
rbm::Rbm
biasedModel(std::size_t m, std::size_t n)
{
    rbm::Rbm model(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        model.weights()(i, 0) = 0.9f;
        if (n > 1)
            model.weights()(i, 1) = -0.9f;
    }
    return model;
}

struct BackendCase
{
    std::string name;
};

class SamplingBackendConformance
    : public ::testing::TestWithParam<BackendCase>
{
  protected:
    void
    SetUp() override
    {
        model_ = biasedModel(8, 4);
        rng_ = std::make_unique<Rng>(404);
        machine::AnalogConfig cfg;  // noiseless but non-ideal circuits
        backend_ = accel::makeSamplingBackend(
            accel::samplingBackendKind(GetParam().name), model_, cfg);
    }

    rbm::Rbm model_;
    std::unique_ptr<Rng> rng_;
    std::unique_ptr<rbm::SamplingBackend> backend_;
};

} // namespace

TEST_P(SamplingBackendConformance, ReportsModelShape)
{
    EXPECT_EQ(backend_->numVisible(), 8u);
    EXPECT_EQ(backend_->numHidden(), 4u);
    EXPECT_EQ(std::string(backend_->name()).empty(), false);
}

TEST_P(SamplingBackendConformance, HiddenSamplesAreBinaryAndSized)
{
    linalg::Vector v(8, 1.0f), h, ph;
    backend_->sampleHidden(v, h, ph, *rng_);
    ASSERT_EQ(h.size(), 4u);
    ASSERT_EQ(ph.size(), 4u);
    for (std::size_t j = 0; j < h.size(); ++j) {
        EXPECT_TRUE(h[j] == 0.0f || h[j] == 1.0f);
        EXPECT_GE(ph[j], 0.0f);
        EXPECT_LE(ph[j], 1.0f);
    }
}

TEST_P(SamplingBackendConformance, VisibleSamplesAreBinaryAndSized)
{
    linalg::Vector h(4, 1.0f), v, pv;
    backend_->sampleVisible(h, v, pv, *rng_);
    ASSERT_EQ(v.size(), 8u);
    ASSERT_EQ(pv.size(), 8u);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_TRUE(v[i] == 0.0f || v[i] == 1.0f);
}

TEST_P(SamplingBackendConformance, MarginalsFollowTheEnergyLandscape)
{
    // With all-ones visible input, hidden unit 0 (strong positive
    // couplers) must fire far more often than unit 1 (negative).
    linalg::Vector v(8, 1.0f), h, ph;
    double freq0 = 0.0, freq1 = 0.0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        backend_->sampleHidden(v, h, ph, *rng_);
        freq0 += h[0];
        freq1 += h[1];
    }
    EXPECT_GT(freq0 / trials, freq1 / trials + 0.3);
}

TEST_P(SamplingBackendConformance, AnnealKeepsStatesBinary)
{
    const auto expectBinaryAfter = [&](int sweeps, linalg::Vector v,
                                       linalg::Vector h) {
        linalg::Vector pv, ph;
        backend_->anneal(sweeps, v, h, pv, ph, *rng_);
        ASSERT_EQ(v.size(), 8u);
        ASSERT_EQ(h.size(), 4u);
        for (float x : v)
            EXPECT_TRUE(x == 0.0f || x == 1.0f);
        for (float x : h)
            EXPECT_TRUE(x == 0.0f || x == 1.0f);
    };

    // From an alternating hidden state, with no visible state yet.
    linalg::Vector h(4);
    for (std::size_t j = 0; j < 4; ++j)
        h[j] = j % 2 ? 1.0f : 0.0f;
    expectBinaryAfter(5, linalg::Vector(), h);

    // From a hidden sample drawn up from a random binary visible state.
    linalg::Vector v(8), ph;
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = rng_->bernoulli(0.5) ? 1.0f : 0.0f;
    backend_->sampleHidden(v, h, ph, *rng_);
    expectBinaryAfter(10, v, h);
}

TEST_P(SamplingBackendConformance, SamplingIsDeterministicPerSeed)
{
    linalg::Vector v(8, 1.0f), h1, h2, ph;
    Rng a(77), b(77);
    for (int t = 0; t < 50; ++t) {
        backend_->sampleHidden(v, h1, ph, a);
        backend_->sampleHidden(v, h2, ph, b);
        ASSERT_TRUE(h1 == h2) << "trial " << t;
    }
}

TEST_P(SamplingBackendConformance, DrivesFantasyAndConditionalSamplers)
{
    const data::Dataset fantasies =
        rbm::fantasySamples(*backend_, 6, 5, *rng_);
    EXPECT_EQ(fantasies.size(), 6u);
    EXPECT_EQ(fantasies.dim(), 8u);

    std::vector<float> mask(8, -1.0f);
    mask[0] = 1.0f;
    mask[1] = 0.0f;
    const data::Dataset conditioned =
        rbm::conditionalSamples(*backend_, mask, 3, 5, *rng_);
    ASSERT_EQ(conditioned.size(), 3u);
    for (std::size_t s = 0; s < conditioned.size(); ++s) {
        EXPECT_EQ(conditioned.samples(s, 0), 1.0f);
        EXPECT_EQ(conditioned.samples(s, 1), 0.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, SamplingBackendConformance,
    ::testing::Values(BackendCase{"software"}, BackendCase{"fabric"}),
    [](const ::testing::TestParamInfo<BackendCase> &info) {
        return info.param.name;
    });

TEST(SoftwareGibbsBackend, MeansMatchTheModelConditionals)
{
    Rng rng(5);
    rbm::Rbm model(10, 6);
    model.initRandom(rng, 0.5f);
    rbm::SoftwareGibbsBackend backend(model);

    linalg::Vector v(10), h(6), ph, pv, want, dummy;
    Rng draw(6);
    for (std::size_t i = 0; i < 10; ++i)
        v[i] = draw.bernoulli(0.5) ? 1.0f : 0.0f;
    for (std::size_t j = 0; j < 6; ++j)
        h[j] = draw.bernoulli(0.5) ? 1.0f : 0.0f;

    backend.sampleHidden(v, dummy, ph, draw);
    model.hiddenProbs(v.data(), want);
    ASSERT_EQ(ph.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j)
        EXPECT_FLOAT_EQ(ph[j], want[j]) << j;

    backend.sampleVisible(h, dummy, pv, draw);
    model.visibleProbs(h.data(), want);
    ASSERT_EQ(pv.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(pv[i], want[i], 1e-6f) << i;
}

TEST(SoftwareGibbsBackend, RefreshTransposeCopiesOnlyTheGivenRows)
{
    Rng rng(9);
    rbm::Rbm model(6, 4);
    model.initRandom(rng, 0.3f);
    const rbm::Rbm before = model;
    rbm::SoftwareGibbsBackend backend(model);

    // Mutate a row inside the refreshed range [1, 4) and one outside
    // it: the visible means track the new row 2 and still read the
    // cached row 5 until its own refresh.
    model.weights()(2, 1) = 5.0f;
    model.weights()(5, 3) = -5.0f;
    backend.refreshTranspose(1, 4);
    linalg::Vector h(4, 1.0f), dummy, pv, fresh, stale;
    model.visibleProbs(h.data(), fresh);
    before.visibleProbs(h.data(), stale);
    ASSERT_GT(std::abs(fresh[2] - stale[2]), 0.1f);
    ASSERT_GT(std::abs(fresh[5] - stale[5]), 0.1f);

    backend.sampleVisible(h, dummy, pv, rng);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_NEAR(pv[i], fresh[i], 1e-6f) << i;
    EXPECT_NEAR(pv[5], stale[5], 1e-6f);

    backend.refreshTranspose(4, 6);
    backend.sampleVisible(h, dummy, pv, rng);
    for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_NEAR(pv[i], fresh[i], 1e-6f) << i;
}

TEST(AnalogFabricBackend, BorrowedFabricIsShared)
{
    rbm::Rbm model = biasedModel(6, 3);
    machine::AnalogConfig cfg;
    machine::AnalogFabric fabric(6, 3, cfg);
    fabric.program(model);
    accel::AnalogFabricBackend backend(fabric);
    EXPECT_EQ(&backend.fabric(), &fabric);
    EXPECT_EQ(backend.numVisible(), 6u);
    EXPECT_EQ(backend.numHidden(), 3u);
}

TEST(BackendFactory, ParsesKindNames)
{
    using accel::SamplingBackendKind;
    EXPECT_EQ(accel::samplingBackendKind("software"),
              SamplingBackendKind::Software);
    EXPECT_EQ(accel::samplingBackendKind("fabric"),
              SamplingBackendKind::AnalogFabric);
    EXPECT_EQ(accel::samplingBackendKind("analog"),
              SamplingBackendKind::AnalogFabric);
    EXPECT_EQ(accel::samplingBackendKind("unknown"),
              SamplingBackendKind::Software);
}
