/**
 * @file
 * Fig. 11 (Appendix A): CDF of KL divergence between trained models
 * and ground truth on an enumerable 12-visible x 4-hidden system, for
 * ML, CD-1, CD-k (large k) and BGF.
 *
 * The paper runs 60 random training distributions x 400 restarts;
 * default scale here uses fewer runs (tens of seconds), --full raises
 * the counts.
 */

#include <benchmark/benchmark.h>

#include "accel/bgf.hpp"
#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "linalg/stats.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/exact.hpp"

using namespace ising;
using benchtool::fmt;

namespace {

constexpr std::size_t kVisible = 12;
constexpr std::size_t kHidden = 4;

/** Random training distribution of 100 images (paper Appendix A). */
data::Dataset
randomDistribution(std::uint64_t seed)
{
    util::Rng rng(seed);
    data::Dataset ds;
    ds.samples.reset(100, kVisible);
    // Draw a handful of latent prototypes and noisy copies around
    // them, so the target distribution has learnable structure.
    const int prototypes = 2;
    std::vector<std::vector<float>> proto(prototypes,
                                          std::vector<float>(kVisible));
    for (auto &p : proto)
        for (auto &x : p)
            x = rng.bernoulli(0.4) ? 1.0f : 0.0f;
    for (std::size_t r = 0; r < 100; ++r) {
        const auto &p = proto[rng.uniformInt(prototypes)];
        for (std::size_t i = 0; i < kVisible; ++i) {
            const bool flip = rng.bernoulli(0.05);
            ds.samples(r, i) = flip ? 1.0f - p[i] : p[i];
        }
    }
    return ds;
}

double
klAfterCd(const data::Dataset &train, const std::vector<double> &truth,
          int k, int epochs, std::uint64_t seed)
{
    util::Rng rng(seed);
    rbm::Rbm model(kVisible, kHidden);
    model.initRandom(rng, 0.05f);
    rbm::CdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.k = k;
    cfg.batchSize = 20;
    rbm::CdTrainer trainer(model, cfg);
    for (int e = 0; e < epochs; ++e)
        trainer.trainEpoch(train, rng);
    return eval::klDivergence(truth,
                              rbm::exact::visibleDistribution(model));
}

double
klAfterMl(const data::Dataset &train, const std::vector<double> &truth,
          int steps, std::uint64_t seed)
{
    util::Rng rng(seed);
    rbm::Rbm model(kVisible, kHidden);
    model.initRandom(rng, 0.05f);
    for (int s = 0; s < steps; ++s)
        rbm::exact::mlStep(model, train, 0.2);
    return eval::klDivergence(truth,
                              rbm::exact::visibleDistribution(model));
}

double
klAfterBgf(const data::Dataset &train, const std::vector<double> &truth,
           int epochs, std::uint64_t seed)
{
    util::Rng rng(seed);
    accel::BgfConfig cfg;
    cfg.learningRate = 0.003;
    cfg.annealSteps = 8;
    // Sharp 12-bit targets need weights beyond the default +-2 V
    // coupler headroom; provision the gate range accordingly.
    cfg.analog.weightMax = 5.0;
    // Appendix A compares the *training algorithms* (ML vs CD vs the
    // BGF update rule: minibatch-1, mid-step updates, persistent
    // particles); circuit non-idealities are studied separately in
    // Figs. 8-10, so they are disabled here.
    cfg.analog.idealComponents = true;
    accel::BoltzmannGradientFollower bgf(kVisible, kHidden, cfg);
    rbm::Rbm init(kVisible, kHidden);
    init.initRandom(rng, 0.05f);
    bgf.initialize(init);
    for (int e = 0; e < epochs; ++e)
        bgf.trainEpoch(train, rng);
    return eval::klDivergence(
        truth, rbm::exact::visibleDistribution(bgf.readOut()));
}

void
printFig11(int numDistributions, int runsPerDistribution, int bigK,
           int mlSteps, int epochs)
{
    std::vector<double> klMl, klCd1, klCdBig, klBgf;
    for (int d = 0; d < numDistributions; ++d) {
        const data::Dataset train = randomDistribution(1000 + d);
        const auto truth = rbm::exact::empiricalDistribution(train);
        for (int run = 0; run < runsPerDistribution; ++run) {
            const std::uint64_t seed = d * 97 + run * 13 + 1;
            klMl.push_back(klAfterMl(train, truth, mlSteps, seed));
            klCd1.push_back(klAfterCd(train, truth, 1, epochs, seed));
            klCdBig.push_back(klAfterCd(train, truth, bigK, epochs,
                                        seed));
            klBgf.push_back(klAfterBgf(train, truth, epochs, seed));
        }
    }

    benchtool::Table table({"algorithm", "p10", "p25", "median", "p75",
                            "p90", "mean"});
    auto row = [&](const char *name, std::vector<double> kl) {
        linalg::RunningStats stats;
        for (double x : kl)
            stats.push(x);
        table.addRow({name, fmt(linalg::percentile(kl, 10), 4),
                      fmt(linalg::percentile(kl, 25), 4),
                      fmt(linalg::percentile(kl, 50), 4),
                      fmt(linalg::percentile(kl, 75), 4),
                      fmt(linalg::percentile(kl, 90), 4),
                      fmt(stats.mean(), 4)});
    };
    row("ML", klMl);
    row(("cd" + std::to_string(bigK)).c_str(), klCdBig);
    row("BGF", klBgf);
    row("cd1", klCd1);
    table.print("Fig. 11: KL divergence to ground truth, CDF summary "
                "(paper ordering: ML <= BGF <= cd1000 <= cd1)");
}

void
BM_ExactKlEvaluation(benchmark::State &state)
{
    const data::Dataset train = randomDistribution(5);
    const auto truth = rbm::exact::empiricalDistribution(train);
    util::Rng rng(1);
    rbm::Rbm model(kVisible, kHidden);
    model.initRandom(rng, 0.1f);
    for (auto _ : state) {
        const double kl = eval::klDivergence(
            truth, rbm::exact::visibleDistribution(model));
        benchmark::DoNotOptimize(kl);
    }
}
BENCHMARK(BM_ExactKlEvaluation)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    if (benchtool::fullScale(argc, argv))
        printFig11(20, 4, 1000, 2000, 300);
    else
        printFig11(10, 1, 100, 800, 150);
    benchtool::stripFlag(argc, argv, "--full");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
