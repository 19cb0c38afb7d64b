/**
 * @file
 * Ablation study over the BGF design choices called out in Sec. 3.3
 * (our addition beyond the paper's figures):
 *
 *  1. mid-step updates vs synchronized updates;
 *  2. particle count p for the persistent negative chains;
 *  3. ideal components vs the full circuit model (sigmoid-unit rail
 *     compression, comparator offsets, 8-bit converters, pump
 *     nonlinearity);
 *  4. programming/readout converter resolution;
 *  5. anneal length of the negative phase.
 *
 * Quality metric: AIS-estimated average log probability of the
 * training data after a fixed budget of epochs.
 */

#include <benchmark/benchmark.h>

#include "accel/bgf.hpp"
#include "bench_common.hpp"
#include "data/registry.hpp"
#include "rbm/ais.hpp"

using namespace ising;
using benchtool::fmt;

namespace {

struct AblationPoint
{
    std::string label;
    accel::BgfConfig config;
};

double
qualityOf(const data::Dataset &train, const accel::BgfConfig &cfg,
          int epochs, std::size_t hidden)
{
    util::Rng rng(17);
    accel::BoltzmannGradientFollower bgf(train.dim(), hidden, cfg);
    rbm::Rbm init(train.dim(), hidden);
    init.initRandom(rng);
    bgf.initialize(init);
    for (int e = 0; e < epochs; ++e)
        bgf.trainEpoch(train, rng);
    const rbm::Rbm model = bgf.readOut();

    util::Rng aisRng(23);
    rbm::AisConfig aisCfg;
    aisCfg.numChains = 24;
    aisCfg.numBetas = 60;
    rbm::AisEstimator ais(aisCfg, aisRng);
    return ais.averageLogProb(model, train, train);
}

void
printAblation(std::size_t numSamples, std::size_t hidden, int epochs)
{
    data::Dataset raw = data::makeBenchmarkData("MNIST", numSamples, 42);
    const data::Dataset train = data::binarizeThreshold(raw);

    accel::BgfConfig base;
    base.learningRate = 0.1 / 50.0;
    base.annealSteps = 4;
    base.numParticles = 8;

    std::vector<AblationPoint> points;
    points.push_back({"baseline (mid-step, p=8, circuit, 8-bit)", base});
    {
        auto c = base;
        c.midStepUpdates = false;
        points.push_back({"synchronized updates", c});
    }
    for (std::size_t p : {1u, 4u, 32u}) {
        auto c = base;
        c.numParticles = p;
        points.push_back({"particles p=" + std::to_string(p), c});
    }
    {
        auto c = base;
        c.analog.idealComponents = true;
        points.push_back({"ideal components", c});
    }
    for (int bits : {4, 6}) {
        auto c = base;
        c.analog.adcBits = bits;
        c.analog.programBits = bits;
        points.push_back({std::to_string(bits) + "-bit converters", c});
    }
    for (int anneal : {1, 10}) {
        auto c = base;
        c.annealSteps = anneal;
        points.push_back({"anneal sweeps k=" + std::to_string(anneal),
                          c});
    }

    benchtool::Table table({"configuration", "avg log prob",
                            "vs baseline"});
    double baseQuality = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double q =
            qualityOf(train, points[i].config, epochs, hidden);
        if (i == 0)
            baseQuality = q;
        table.addRow({points[i].label, fmt(q, 1),
                      fmt(q - baseQuality, 1)});
    }
    table.print("BGF design-choice ablation (avg log prob after " +
                std::to_string(epochs) + " epochs; higher is better)");
}

void
BM_BgfSamplePipeline(benchmark::State &state)
{
    data::Dataset raw = data::makeBenchmarkData("MNIST", 100, 5);
    const data::Dataset train = data::binarizeThreshold(raw);
    util::Rng rng(3);
    accel::BgfConfig cfg;
    cfg.learningRate = 1e-3;
    accel::BoltzmannGradientFollower bgf(train.dim(), state.range(0),
                                         cfg);
    rbm::Rbm init(train.dim(), state.range(0));
    bgf.initialize(init);
    std::size_t i = 0;
    for (auto _ : state) {
        bgf.trainSample(train.sample(i % train.size()), rng);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BgfSamplePipeline)->Arg(64)->Arg(200)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    if (benchtool::fullScale(argc, argv))
        printAblation(4000, 128, 8);
    else
        printAblation(600, 48, 4);
    benchtool::stripFlag(argc, argv, "--full");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
