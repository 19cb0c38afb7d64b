/**
 * @file
 * Quickstart: train a small RBM on synthetic digits three ways --
 * software CD, the Gibbs-sampler accelerator, and the Boltzmann
 * gradient follower -- through the shared eval::TrainSpec pipeline,
 * and compare reconstruction quality.
 *
 * A final section draws fantasy samples from the CD model through the
 * unified sampling interface; --backend fabric routes those chains
 * through the noisy analog substrate instead of software math.
 *
 * The production path over the same pipeline is the isingrbm
 * multi-tool: `isingrbm train --trainer cd|gs|bgf ...` checkpoints the
 * model and `isingrbm sample / eval / serve-bench` serve it.
 *
 * Usage: quickstart [--samples N] [--hidden H] [--epochs E] [--k K]
 *                   [--backend software|fabric] [--noise 0.05]
 */

#include <cstdio>

#include "accel/fabric_backend.hpp"
#include "data/glyphs.hpp"
#include "eval/pipelines.hpp"
#include "rbm/sampling.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

using namespace ising;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const std::size_t numSamples = args.getInt("samples", 1200);
    const std::size_t hidden = args.getInt("hidden", 64);
    const int epochs = static_cast<int>(args.getInt("epochs", 3));

    data::Dataset raw = data::makeGlyphs(data::digitsStyle(), numSamples, 7);
    data::Dataset train = data::binarizeThreshold(raw);
    std::printf("dataset: %zu samples of dim %zu (%d classes)\n",
                train.size(), train.dim(), train.numClasses);

    // The same pipeline the isingrbm CLI trains through, once per
    // engine; only the trainer (and its preset k) changes.
    rbm::Rbm cdModel;
    for (const eval::Trainer trainer :
         {eval::Trainer::CdK, eval::Trainer::GibbsSampler,
          eval::Trainer::Bgf}) {
        eval::TrainSpec spec = eval::defaultTrainSpec(trainer);
        if (args.has("k"))  // else keep the per-trainer preset
            spec.k = static_cast<int>(args.getInt("k", spec.k));
        spec.epochs = epochs;
        spec.seed = 42;
        util::Stopwatch sw;
        rbm::Rbm model = eval::trainRbm(train, hidden, spec);
        std::printf("%-3s trainer: recon err %.4f  (%.2fs)\n",
                    eval::trainerName(trainer),
                    eval::reconstructionError(model, train),
                    sw.seconds());
        if (trainer == eval::Trainer::CdK)
            cdModel = model;
    }

    // --- Fantasy sampling through the unified backend interface ---
    const std::string backendName = args.get("backend", "software");
    const double noise = args.getDouble("noise", 0.05);
    machine::AnalogConfig fabricCfg;
    fabricCfg.noise = {noise, noise};
    util::Rng rng(42);
    const auto backend = accel::makeSamplingBackend(
        accel::samplingBackendKind(backendName), cdModel, fabricCfg);
    const data::Dataset fantasies =
        rbm::fantasySamples(*backend, 64, 25, rng, &train);
    std::printf("%s-backend fantasy particles: mean free energy %.2f "
                "(train data %.2f)\n",
                backend->name(),
                cdModel.meanFreeEnergy(fantasies.samples),
                cdModel.meanFreeEnergy(train.samples));
    return 0;
}
