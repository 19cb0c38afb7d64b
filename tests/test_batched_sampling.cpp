/**
 * @file
 * Chain-level equivalence for the batched sampling surface:
 *
 *  - the software backend's bit-packed batched kernels must reproduce
 *    the scalar float chains bit-for-bit (same per-chain RNG streams);
 *  - results must be invariant to the worker count, to the
 *    chains-over-threads vs units-over-threads kernel shape and to how
 *    a batch is split across calls, at any input activity;
 *  - backends without a native batched path (the analog fabric) must
 *    keep working through the scalar-loop default implementations;
 *  - CdTrainer's per-epoch backend, whose W^T rows the update refreshes
 *    in place, must train the bytes a fresh transpose per batch does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "accel/fabric_backend.hpp"
#include "linalg/ops.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/sampling.hpp"
#include "rbm/sampling_backend.hpp"
#include "scalar_only_backend.hpp"

using namespace ising;
using util::Rng;

namespace {

/** Ragged model (sizes not divisible by 64) with strong structure. */
rbm::Rbm
testModel(std::size_t m = 67, std::size_t n = 35)
{
    Rng rng(3);
    rbm::Rbm model(m, n);
    model.initRandom(rng, 0.6f);
    return model;
}

linalg::Matrix
randomBinaryBatch(std::size_t rows, std::size_t cols, Rng &rng,
                  double activity = 0.5)
{
    linalg::Matrix out(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            out(r, c) = rng.bernoulli(activity) ? 1.0f : 0.0f;
    return out;
}

std::vector<Rng>
streams(std::uint64_t seed, std::size_t count)
{
    std::vector<Rng> out;
    out.reserve(count);
    for (std::size_t r = 0; r < count; ++r)
        out.push_back(Rng::stream(seed, r));
    return out;
}

void
expectSameMatrix(const linalg::Matrix &a, const linalg::Matrix &b,
                 const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(linalg::maxAbsDiff(a, b), 0.0) << what;
}

/** Byte equality: operator== would let 0.0f match -0.0f. */
bool
sameBytes(const linalg::Matrix &a, const linalg::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameBytes(const linalg::Vector &a, const linalg::Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

data::Dataset
binaryDataset(std::size_t rows, std::size_t cols, std::uint64_t seed,
              double activity = 0.5)
{
    Rng rng(seed);
    data::Dataset ds;
    ds.name = "synthetic-binary";
    ds.samples = randomBinaryBatch(rows, cols, rng, activity);
    return ds;
}

} // namespace

TEST(BatchedSampling, PackedHiddenSweepMatchesScalarFloatPath)
{
    const rbm::Rbm model = testModel();
    const rbm::SoftwareGibbsBackend software(model);
    const ScalarOnlyBackend scalar(software);

    Rng init(41);
    // Half-active, empty, 2% and saturated batches, plus one set bit.
    std::vector<linalg::Matrix> inputs;
    for (const double activity : {0.5, 0.0, 0.02, 1.0})
        inputs.push_back(
            randomBinaryBatch(9, model.numVisible(), init, activity));
    inputs.emplace_back(9, model.numVisible());
    inputs.back()(4, 33) = 1.0f;

    for (const linalg::Matrix &v : inputs) {
        std::vector<Rng> a = streams(5, 9), b = streams(5, 9);
        linalg::Matrix hPacked, phPacked, hFloat, phFloat;
        software.sampleHiddenBatch(v, hPacked, phPacked, a.data());
        scalar.sampleHiddenBatch(v, hFloat, phFloat, b.data());
        expectSameMatrix(hPacked, hFloat, "hidden samples");
        expectSameMatrix(phPacked, phFloat, "hidden means");
    }
}

TEST(BatchedSampling, PackedVisibleSweepMatchesScalarFloatPath)
{
    const rbm::Rbm model = testModel();
    const rbm::SoftwareGibbsBackend software(model);
    const ScalarOnlyBackend scalar(software);

    Rng init(42);
    const linalg::Matrix h = randomBinaryBatch(9, model.numHidden(), init);

    std::vector<Rng> a = streams(6, 9), b = streams(6, 9);
    linalg::Matrix vPacked, pvPacked, vFloat, pvFloat;
    software.sampleVisibleBatch(h, vPacked, pvPacked, a.data());
    scalar.sampleVisibleBatch(h, vFloat, pvFloat, b.data());
    expectSameMatrix(vPacked, vFloat, "visible samples");
    expectSameMatrix(pvPacked, pvFloat, "visible means");
}

TEST(BatchedSampling, PackedAnnealMatchesScalarFloatChains)
{
    const rbm::Rbm model = testModel();
    const rbm::SoftwareGibbsBackend software(model);
    const ScalarOnlyBackend scalar(software);

    Rng init(43);
    const linalg::Matrix h0 = randomBinaryBatch(7, model.numHidden(), init);

    std::vector<Rng> a = streams(7, 7), b = streams(7, 7);
    linalg::Matrix vA, hA = h0, pvA, phA;
    linalg::Matrix vB, hB = h0, pvB, phB;
    software.annealBatch(4, vA, hA, pvA, phA, a.data());
    scalar.annealBatch(4, vB, hB, pvB, phB, b.data());
    expectSameMatrix(vA, vB, "visible walk");
    expectSameMatrix(hA, hB, "hidden walk");
    expectSameMatrix(pvA, pvB, "visible means");
    expectSameMatrix(phA, phB, "hidden means");

    // The packed single-chain walk from a near-empty hidden state.
    linalg::Vector v1, h1(model.numHidden()), pv1, ph1;
    linalg::Vector v2, h2(model.numHidden()), pv2, ph2;
    h1[3] = h2[3] = 1.0f;
    Rng c(53), d(53);
    software.anneal(6, v1, h1, pv1, ph1, c);
    scalar.anneal(6, v2, h2, pv2, ph2, d);
    EXPECT_TRUE(v1 == v2);
    EXPECT_TRUE(h1 == h2);
    EXPECT_TRUE(pv1 == pv2);
    EXPECT_TRUE(ph1 == ph2);
}

TEST(BatchedSampling, NonBinaryInputFallsBackToFloatPath)
{
    const rbm::Rbm model = testModel();
    const rbm::SoftwareGibbsBackend software(model);
    const ScalarOnlyBackend scalar(software);

    Rng init(44);
    linalg::Matrix v = randomBinaryBatch(4, model.numVisible(), init);
    v(2, 5) = 0.37f;  // probabilities, not bits: unpackable

    std::vector<Rng> a = streams(8, 4), b = streams(8, 4);
    linalg::Matrix hA, phA, hB, phB;
    software.sampleHiddenBatch(v, hA, phA, a.data());
    scalar.sampleHiddenBatch(v, hB, phB, b.data());
    expectSameMatrix(hA, hB, "fallback hidden samples");
    expectSameMatrix(phA, phB, "fallback hidden means");
}

TEST(BatchedSampling, KernelShapeAndWorkerCountDoNotChangeResults)
{
    const rbm::Rbm model = testModel(130, 70);
    exec::ThreadPool serial(1), wide(8);
    const rbm::SoftwareGibbsBackend one(model, &serial);
    const rbm::SoftwareGibbsBackend many(model, &wide);

    Rng init(45);
    // batch 2 < 8 workers forces the units-over-threads shape on the
    // wide pool while the serial pool runs chains-over-threads.  At 8%
    // activity most hidden words of the first sweep are empty.
    for (const double activity : {0.5, 0.08}) {
        for (const std::size_t batch : {2u, 16u}) {
            const linalg::Matrix h0 =
                randomBinaryBatch(batch, model.numHidden(), init, activity);
            std::vector<Rng> a = streams(9, batch), b = streams(9, batch);
            linalg::Matrix vA, hA = h0, pvA, phA;
            linalg::Matrix vB, hB = h0, pvB, phB;
            one.annealBatch(3, vA, hA, pvA, phA, a.data());
            many.annealBatch(3, vB, hB, pvB, phB, b.data());
            expectSameMatrix(vA, vB, "visible walk");
            expectSameMatrix(hA, hB, "hidden walk");
            expectSameMatrix(pvA, pvB, "visible means");
            expectSameMatrix(phA, phB, "hidden means");

            // The same chains annealed in two calls, each row's
            // stream travelling with the row.
            const std::size_t cut = std::max<std::size_t>(1, batch / 3);
            std::vector<Rng> c = streams(9, batch);
            linalg::Matrix vC(batch, model.numVisible()),
                hC(batch, model.numHidden());
            for (const auto &[begin, end] :
                 {std::pair<std::size_t, std::size_t>{0, cut},
                  std::pair<std::size_t, std::size_t>{cut, batch}}) {
                linalg::Matrix hPart(end - begin, model.numHidden()), vPart,
                    pvPart, phPart;
                for (std::size_t r = begin; r < end; ++r)
                    std::copy_n(h0.row(r), model.numHidden(),
                                hPart.row(r - begin));
                many.annealBatch(3, vPart, hPart, pvPart, phPart,
                                 c.data() + begin);
                for (std::size_t r = begin; r < end; ++r) {
                    std::copy_n(vPart.row(r - begin), model.numVisible(),
                                vC.row(r));
                    std::copy_n(hPart.row(r - begin), model.numHidden(),
                                hC.row(r));
                }
            }
            expectSameMatrix(vA, vC, "visible walk in two calls");
            expectSameMatrix(hA, hC, "hidden walk in two calls");
        }
    }
}

TEST(BatchedSampling, FantasySamplesIdenticalOnPackedAndFloatPaths)
{
    const rbm::Rbm model = testModel();
    const rbm::SoftwareGibbsBackend software(model);
    const ScalarOnlyBackend scalar(software);

    Rng a(51), b(51);
    const data::Dataset packed = rbm::fantasySamples(software, 12, 6, a);
    const data::Dataset ref = rbm::fantasySamples(scalar, 12, 6, b);
    expectSameMatrix(packed.samples, ref.samples, "fantasy samples");
}

TEST(BatchedSampling, ConditionalSamplesIdenticalOnPackedAndFloatPaths)
{
    const rbm::Rbm model = testModel();
    const rbm::SoftwareGibbsBackend software(model);
    const ScalarOnlyBackend scalar(software);

    std::vector<float> mask(model.numVisible(), -1.0f);
    mask[0] = 1.0f;
    mask[3] = 0.0f;
    Rng a(52), b(52);
    const data::Dataset packed =
        rbm::conditionalSamples(software, mask, 8, 5, a);
    const data::Dataset ref =
        rbm::conditionalSamples(scalar, mask, 8, 5, b);
    expectSameMatrix(packed.samples, ref.samples, "conditional samples");
}

TEST(BatchedSampling, CdTrainerIsWorkerCountInvariant)
{
    // Half-active data, and 6% data whose sweeps mostly see empty
    // words; CD and PCD for each.
    for (const double activity : {0.5, 0.06}) {
        const data::Dataset train = binaryDataset(40, 67, 61, activity);
        for (const bool persistent : {false, true}) {
            exec::ThreadPool serial(1), wide(3);
            rbm::Rbm a = testModel(), b = testModel();
            Rng rngA(71), rngB(71);

            rbm::CdConfig cfg;
            cfg.k = 2;
            cfg.batchSize = 13;  // ragged: exercises short final batches
            cfg.persistent = persistent;
            cfg.numParticles = 5;  // ragged round-robin over positions
            cfg.learningRate = 0.05;
            cfg.momentum = 0.5;
            cfg.weightDecay = 1e-4;

            rbm::CdConfig cfgA = cfg, cfgB = cfg;
            cfgA.pool = &serial;
            cfgB.pool = &wide;
            rbm::CdTrainer trainerA(a, cfgA);
            rbm::CdTrainer trainerB(b, cfgB);
            trainerA.trainEpoch(train, rngA);
            trainerA.trainEpoch(train, rngA);
            trainerB.trainEpoch(train, rngB);
            trainerB.trainEpoch(train, rngB);

            expectSameMatrix(a.weights(), b.weights(),
                             persistent ? "pcd weights" : "cd weights");
            EXPECT_TRUE(a.visibleBias() == b.visibleBias());
            EXPECT_TRUE(a.hiddenBias() == b.hiddenBias());
        }
    }
}

TEST(BatchedSampling, CdTrainEpochMatchesFreshTransposeBatches)
{
    // trainEpoch sweeps one backend for the whole epoch and refreshes
    // its W^T rows as the pooled update writes them; trainBatch
    // transposes W from scratch on every call.  Over the same plan and
    // generator they must write the same bytes.  67 visible rows are a
    // multiple of neither the 16-row update block nor the worker count.
    data::Dataset binary = binaryDataset(60, 67, 83);
    data::Dataset fractional = binaryDataset(60, 67, 83);
    Rng fracRng(89);
    for (std::size_t i = 0; i < fractional.samples.size(); i += 3)
        fractional.samples.data()[i] = fracRng.uniformFloat();

    for (const data::Dataset *train : {&binary, &fractional}) {
        for (const bool persistent : {false, true}) {
            for (const std::size_t workers : {1, 3}) {
                const std::string what =
                    std::string(train == &binary ? "binary" : "fractional") +
                    (persistent ? " pcd " : " cd ") +
                    std::to_string(workers) + " workers";
                exec::ThreadPool pool(workers);
                rbm::CdConfig cfg;
                cfg.k = 2;
                cfg.batchSize = 13;
                cfg.persistent = persistent;
                cfg.numParticles = 5;
                cfg.learningRate = 0.05;
                cfg.momentum = 0.5;
                cfg.weightDecay = 1e-3;
                cfg.pool = &pool;

                rbm::Rbm byEpoch = testModel(), byBatch = testModel();
                rbm::CdTrainer epochTrainer(byEpoch, cfg);
                rbm::CdTrainer batchTrainer(byBatch, cfg);
                Rng rngE(97), rngB(97);
                for (int epoch = 0; epoch < 2; ++epoch) {
                    epochTrainer.trainEpoch(*train, rngE);
                    data::MinibatchPlan plan(train->size(), cfg.batchSize,
                                             rngB);
                    for (std::size_t b = 0; b < plan.numBatches(); ++b)
                        batchTrainer.trainBatch(*train, plan.batch(b), rngB);
                }

                EXPECT_TRUE(sameBytes(byEpoch.weights(), byBatch.weights()))
                    << what;
                EXPECT_TRUE(sameBytes(byEpoch.visibleBias(),
                                      byBatch.visibleBias()))
                    << what;
                EXPECT_TRUE(sameBytes(byEpoch.hiddenBias(),
                                      byBatch.hiddenBias()))
                    << what;
                EXPECT_EQ(epochTrainer.updatesDone(),
                          batchTrainer.updatesDone())
                    << what;
                EXPECT_EQ(rngE.next(), rngB.next()) << what;
                rbm::TrainState stateE, stateB;
                epochTrainer.captureState(stateE, "");
                batchTrainer.captureState(stateB, "");
                for (const char *name : {"momentum_w", "momentum_bv",
                                         "momentum_bh", "particles"}) {
                    const linalg::Matrix *a = stateE.tensor(name);
                    const linalg::Matrix *b = stateB.tensor(name);
                    if (!persistent && std::string(name) == "particles") {
                        EXPECT_TRUE(!a && !b) << what;
                        continue;
                    }
                    ASSERT_TRUE(a && b) << what << " " << name;
                    EXPECT_TRUE(sameBytes(*a, *b)) << what << " " << name;
                }
            }
        }
    }
}

TEST(BatchedSampling, AnalogFabricWorksThroughBatchedDefaults)
{
    const rbm::Rbm model = testModel(20, 12);
    machine::AnalogConfig cfg;
    const accel::AnalogFabricBackend fabric(model, cfg);

    Rng init(82);
    const linalg::Matrix v = randomBinaryBatch(5, model.numVisible(), init);
    std::vector<Rng> batchRngs = streams(10, 5), rowRngs = streams(10, 5);

    linalg::Matrix h, ph;
    fabric.sampleHiddenBatch(v, h, ph, batchRngs.data());
    ASSERT_EQ(h.rows(), 5u);
    ASSERT_EQ(h.cols(), model.numHidden());
    // The default implementation must equal scalar calls row by row on
    // the same streams.
    for (std::size_t r = 0; r < 5; ++r) {
        linalg::Vector vr(model.numVisible()), hr, pr;
        std::copy_n(v.row(r), model.numVisible(), vr.data());
        fabric.sampleHidden(vr, hr, pr, rowRngs[r]);
        for (std::size_t j = 0; j < model.numHidden(); ++j) {
            EXPECT_EQ(h(r, j), hr[j]) << "row " << r << " unit " << j;
            EXPECT_TRUE(h(r, j) == 0.0f || h(r, j) == 1.0f);
        }
    }

    // Batched anneal through the defaults keeps states binary and
    // matches per-row scalar anneal on the same streams.
    linalg::Matrix vw, hw = randomBinaryBatch(5, model.numHidden(), init);
    const linalg::Matrix h0 = hw;
    linalg::Matrix pvw, phw;
    std::vector<Rng> aw = streams(11, 5), bw = streams(11, 5);
    fabric.annealBatch(3, vw, hw, pvw, phw, aw.data());
    for (std::size_t r = 0; r < 5; ++r) {
        linalg::Vector vr, hr(model.numHidden()), pvr, phr;
        std::copy_n(h0.row(r), model.numHidden(), hr.data());
        fabric.anneal(3, vr, hr, pvr, phr, bw[r]);
        for (std::size_t i = 0; i < model.numVisible(); ++i)
            EXPECT_EQ(vw(r, i), vr[i]) << "row " << r << " unit " << i;
        for (std::size_t j = 0; j < model.numHidden(); ++j)
            EXPECT_EQ(hw(r, j), hr[j]) << "row " << r << " unit " << j;
    }
}
