/**
 * @file
 * Tests for the analog fabric behavioral model, including the
 * behavioral-vs-ideal and behavioral-vs-BRIM cross-validations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ising/analog.hpp"
#include "ising/bipartite.hpp"
#include "ising/brim.hpp"
#include "rbm/rbm.hpp"

using namespace ising;
using machine::AnalogConfig;
using machine::AnalogFabric;
using util::Rng;

namespace {

rbm::Rbm
randomModel(std::size_t m, std::size_t n, std::uint64_t seed,
            float scale = 0.5f)
{
    rbm::Rbm model(m, n);
    Rng rng(seed);
    model.initRandom(rng, scale);
    for (std::size_t i = 0; i < m; ++i)
        model.visibleBias()[i] = static_cast<float>(rng.gaussian(0, 0.3));
    for (std::size_t j = 0; j < n; ++j)
        model.hiddenBias()[j] = static_cast<float>(rng.gaussian(0, 0.3));
    return model;
}

AnalogConfig
idealConfig()
{
    AnalogConfig cfg;
    cfg.idealComponents = true;
    return cfg;
}

} // namespace

TEST(AnalogFabric, ProgramReadoutRoundTripIdeal)
{
    const rbm::Rbm model = randomModel(12, 8, 2);
    AnalogFabric fabric(12, 8, idealConfig());
    fabric.program(model);
    rbm::Rbm out;
    fabric.readOut(out);
    EXPECT_EQ(out.weights(), model.weights());
    EXPECT_EQ(out.visibleBias(), model.visibleBias());
}

TEST(AnalogFabric, ProgramReadoutWithinQuantization)
{
    const rbm::Rbm model = randomModel(10, 6, 3);
    AnalogConfig cfg;  // 8-bit converters, weightMax 2.0
    AnalogFabric fabric(10, 6, cfg);
    fabric.program(model);
    rbm::Rbm out;
    fabric.readOut(out);
    const double lsb = 2.0 * cfg.weightMax / 255.0;
    for (std::size_t i = 0; i < model.weights().size(); ++i)
        EXPECT_NEAR(out.weights().data()[i], model.weights().data()[i],
                    lsb + 1e-6);
}

TEST(AnalogFabric, IdealHiddenSamplingMatchesRbmConditional)
{
    // Statistical check: ideal fabric sampling frequencies match the
    // exact P(h_j=1|v) of the programmed RBM.
    Rng rng(3);
    const rbm::Rbm model = randomModel(8, 4, 4, 0.8f);
    AnalogFabric fabric(8, 4, idealConfig());
    fabric.program(model);

    linalg::Vector v(8);
    for (std::size_t i = 0; i < 8; ++i)
        v[i] = (i % 2) ? 1.0f : 0.0f;
    linalg::Vector ph;
    model.hiddenProbs(v.data(), ph);

    std::vector<double> freq(4, 0.0);
    linalg::Vector h;
    const int trials = 30000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleHidden(v, h, rng);
        for (std::size_t j = 0; j < 4; ++j)
            freq[j] += h[j];
    }
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_NEAR(freq[j] / trials, ph[j], 0.015) << j;
}

TEST(AnalogFabric, IdealVisibleSamplingMatchesRbmConditional)
{
    Rng rng(4);
    const rbm::Rbm model = randomModel(6, 5, 5, 0.8f);
    AnalogFabric fabric(6, 5, idealConfig());
    fabric.program(model);

    linalg::Vector h(5);
    h[0] = h[3] = 1.0f;
    linalg::Vector pv;
    model.visibleProbs(h.data(), pv);

    std::vector<double> freq(6, 0.0);
    linalg::Vector v;
    const int trials = 30000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleVisible(h, v, rng);
        for (std::size_t i = 0; i < 6; ++i)
            freq[i] += v[i];
    }
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(freq[i] / trials, pv[i], 0.015) << i;
}

TEST(AnalogFabric, CircuitSamplingCloseToIdeal)
{
    // With default (non-ideal) components, sampling frequencies may
    // deviate but must stay close -- the Cadence-validation claim.
    Rng rng(5);
    const rbm::Rbm model = randomModel(8, 4, 6, 0.6f);
    AnalogConfig cfg;  // non-ideal defaults, no noise
    AnalogFabric fabric(8, 4, cfg);
    fabric.program(model);

    linalg::Vector v(8);
    for (std::size_t i = 0; i < 8; ++i)
        v[i] = (i < 4) ? 1.0f : 0.0f;
    linalg::Vector ph;
    model.hiddenProbs(v.data(), ph);

    std::vector<double> freq(4, 0.0);
    linalg::Vector h;
    const int trials = 30000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleHidden(v, h, rng);
        for (std::size_t j = 0; j < 4; ++j)
            freq[j] += h[j];
    }
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_NEAR(freq[j] / trials, ph[j], 0.06) << j;
}

TEST(AnalogFabric, ClampQuantizesThroughDtc)
{
    AnalogConfig cfg;
    cfg.dtcBits = 2;  // coarse: levels 0, 1/3, 2/3, 1
    AnalogFabric fabric(4, 2, cfg);
    const float data[4] = {0.4f, 0.9f, 0.0f, 1.0f};
    linalg::Vector v;
    fabric.clampVisible(data, v);
    EXPECT_NEAR(v[0], 1.0f / 3.0f, 1e-6);
    EXPECT_NEAR(v[1], 1.0f, 1e-6);
}

TEST(AnalogFabric, PumpUpdateTouchesOnlyActiveCouplers)
{
    Rng rng(7);
    const rbm::Rbm model = randomModel(5, 4, 8, 0.2f);
    AnalogFabric fabric(5, 4, idealConfig());
    fabric.program(model);
    const linalg::Matrix before = fabric.rawWeights();

    linalg::Vector v(5), h(4);
    v[1] = 1.0f;
    h[2] = 1.0f;
    fabric.pumpUpdate(v, h, +1, rng);
    const linalg::Matrix &after = fabric.rawWeights();
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            if (i == 1 && j == 2)
                EXPECT_GT(after(i, j), before(i, j));
            else
                EXPECT_EQ(after(i, j), before(i, j)) << i << "," << j;
        }
    }
}

TEST(AnalogFabric, PumpDirectionSigns)
{
    Rng rng(8);
    AnalogConfig cfg = idealConfig();
    cfg.pumpStep = 0.01;
    AnalogFabric fabric(3, 3, cfg);
    rbm::Rbm zero(3, 3);
    fabric.program(zero);
    linalg::Vector v(3, 1.0f), h(3, 1.0f);
    fabric.pumpUpdate(v, h, +1, rng);
    EXPECT_NEAR(fabric.rawWeights()(0, 0), 0.01f, 1e-6);
    fabric.pumpUpdate(v, h, -1, rng);
    fabric.pumpUpdate(v, h, -1, rng);
    EXPECT_NEAR(fabric.rawWeights()(0, 0), -0.01f, 1e-6);
}

TEST(AnalogFabric, BiasCouplersFollowActiveUnits)
{
    Rng rng(9);
    AnalogConfig cfg = idealConfig();
    cfg.pumpStep = 0.02;
    AnalogFabric fabric(3, 2, cfg);
    rbm::Rbm zero(3, 2);
    fabric.program(zero);
    linalg::Vector v(3), h(2);
    v[0] = 1.0f;  // only visible 0 active; no hidden active
    fabric.pumpUpdate(v, h, +1, rng);
    EXPECT_NEAR(fabric.rawVisibleBias()[0], 0.02f, 1e-6);
    EXPECT_EQ(fabric.rawVisibleBias()[1], 0.0f);
    EXPECT_EQ(fabric.rawHiddenBias()[0], 0.0f);
}

TEST(AnalogFabric, StaticVariationIsFrozen)
{
    // Two fabrics with the same variationSeed behave identically.
    AnalogConfig cfg;
    cfg.noise.rmsVariation = 0.2;
    cfg.variationSeed = 42;
    Rng rngA(10), rngB(10);
    const rbm::Rbm model = randomModel(6, 4, 11);
    AnalogFabric a(6, 4, cfg), b(6, 4, cfg);
    a.program(model);
    b.program(model);
    linalg::Vector v(6, 1.0f), ha, hb;
    a.sampleHidden(v, ha, rngA);
    b.sampleHidden(v, hb, rngB);
    EXPECT_EQ(ha, hb);
}

TEST(AnalogFabric, DynamicNoiseAddsSamplingVariance)
{
    // A strongly biased unit flips essentially never without noise but
    // occasionally with 30% dynamic noise.
    // Mixed-sign couplings: the summed current is small but the
    // per-coupler noise power is large, so dynamic noise visibly
    // perturbs the sample while the noiseless unit is stable.
    Rng rng(12);
    rbm::Rbm model(4, 2);
    for (std::size_t j = 0; j < 2; ++j)
        model.hiddenBias()[j] = 4.0f;  // P(h=1) ~ 0.982
    for (std::size_t i = 0; i < 4; ++i)
        model.weights()(i, 0) = (i % 2) ? 4.0f : -4.0f;

    auto flipRate = [&](double rmsNoise) {
        AnalogConfig cfg = idealConfig();
        cfg.noise.rmsNoise = rmsNoise;
        AnalogFabric fabric(4, 2, cfg);
        fabric.program(model);
        linalg::Vector v(4, 1.0f), h;
        int zeros = 0;
        const int trials = 20000;
        for (int t = 0; t < trials; ++t) {
            fabric.sampleHidden(v, h, rng);
            zeros += h[0] < 0.5f;
        }
        return static_cast<double>(zeros) / trials;
    };
    EXPECT_GT(flipRate(0.5), flipRate(0.0) + 0.01);
}

TEST(AnalogFabric, BehavioralMatchesBrimAt32x32)
{
    // The paper validates its behavioral models against a 32x32-node
    // Cadence BGF.  Here: embed a random 32x32 RBM as an Ising
    // instance, draw clamped-visible hidden marginals from the BRIM
    // transient simulator (with Langevin noise) and from the
    // behavioral fabric, and require positive agreement between the
    // per-unit marginals.
    Rng rng(13);
    rbm::Rbm model(32, 32);
    model.initRandom(rng, 0.8f);

    // Behavioral marginals.
    AnalogFabric fabric(32, 32, idealConfig());
    fabric.program(model);
    linalg::Vector v(32);
    for (std::size_t i = 0; i < 32; ++i)
        v[i] = (i % 3 == 0) ? 1.0f : 0.0f;
    std::vector<double> behavioral(32, 0.0);
    linalg::Vector h;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleHidden(v, h, rng);
        for (std::size_t j = 0; j < 32; ++j)
            behavioral[j] += h[j];
    }
    for (auto &x : behavioral)
        x /= trials;

    // Transient-simulator marginals with visible nodes clamped.
    const machine::RbmEmbedding emb = machine::embedRbm(model);
    machine::BrimConfig bcfg;
    bcfg.dt = 0.05;
    bcfg.temperature = 0.6;
    machine::BrimSimulator sim(emb.model, bcfg, rng);
    std::vector<double> transient(32, 0.0);
    const int reads = 400;
    for (std::size_t i = 0; i < 32; ++i)
        sim.clampNode(emb.layout.visibleNode(i), v[i] > 0.5f ? 1.0 : -1.0);
    for (int r = 0; r < reads; ++r) {
        for (int s = 0; s < 40; ++s)
            sim.step(0.0);
        const auto spins = sim.spins();
        for (std::size_t j = 0; j < 32; ++j)
            transient[j] += spins[emb.layout.hiddenNode(j)] > 0 ? 1.0 : 0.0;
    }
    for (auto &x : transient)
        x /= reads;

    // The two marginal profiles must correlate strongly.
    double meanB = 0.0, meanT = 0.0;
    for (std::size_t j = 0; j < 32; ++j) {
        meanB += behavioral[j];
        meanT += transient[j];
    }
    meanB /= 32;
    meanT /= 32;
    double cov = 0.0, varB = 0.0, varT = 0.0;
    for (std::size_t j = 0; j < 32; ++j) {
        cov += (behavioral[j] - meanB) * (transient[j] - meanT);
        varB += (behavioral[j] - meanB) * (behavioral[j] - meanB);
        varT += (transient[j] - meanT) * (transient[j] - meanT);
    }
    const double corr = cov / std::sqrt(varB * varT + 1e-12);
    EXPECT_GT(corr, 0.5);
}
