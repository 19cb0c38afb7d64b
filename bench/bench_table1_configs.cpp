/**
 * @file
 * Table 1: model configurations per dataset, plus throughput timers
 * for the synthetic dataset generators that stand in for the corpora.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "data/glyphs.hpp"
#include "data/patches.hpp"
#include "data/registry.hpp"

using namespace ising;

namespace {

void
printTable1()
{
    benchtool::Table table({"Dataset", "RBM", "DBN-DNN", "substitute"});
    for (const auto &cfg : data::table1Configs()) {
        std::string dbn = "-";
        if (!cfg.dbnLayers.empty()) {
            dbn.clear();
            for (std::size_t i = 0; i < cfg.dbnLayers.size(); ++i) {
                if (i)
                    dbn += '-';
                dbn += std::to_string(cfg.dbnLayers[i]);
            }
        }
        std::string source;
        if (cfg.name == "MNIST" || cfg.name == "KMNIST" ||
            cfg.name == "FMNIST" || cfg.name == "EMNIST")
            source = "synthetic glyphs (data/glyphs)";
        else if (cfg.name == "CIFAR10" || cfg.name == "SmallNorb")
            source = "synthetic patches (data/patches)";
        else if (cfg.name == "RC")
            source = "latent-factor ratings (data/ratings)";
        else
            source = "synthetic fraud (data/fraud)";
        table.addRow({cfg.name,
                      std::to_string(cfg.visible) + "-" +
                          std::to_string(cfg.hidden),
                      dbn, source});
    }
    table.print("Table 1: dataset / network configurations");
}

void
BM_GlyphGeneration(benchmark::State &state)
{
    const auto style = data::digitsStyle();
    std::uint64_t seed = 1;
    for (auto _ : state) {
        auto ds = data::makeGlyphs(style, state.range(0), seed++);
        benchmark::DoNotOptimize(ds.samples.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GlyphGeneration)->Arg(64)->Arg(256);

void
BM_PatchGeneration(benchmark::State &state)
{
    const auto style = data::cifarPatchStyle();
    std::uint64_t seed = 1;
    for (auto _ : state) {
        auto ds = data::makePatches(style, state.range(0), seed++);
        benchmark::DoNotOptimize(ds.samples.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatchGeneration)->Arg(256);

} // namespace

int
main(int argc, char **argv)
{
    printTable1();
    benchtool::stripFlag(argc, argv, "--full");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
