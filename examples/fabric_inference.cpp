/**
 * @file
 * Inference-side walkthrough (Sec. 2.3: "Ising machines can accelerate
 * inference of Boltzmann machines in a straightforward manner"):
 * train a classification RBM on bars-and-stripes, persist it to disk,
 * reload, program it onto the analog fabric, and compare exact
 * free-energy classification against substrate-sampled inference under
 * increasing noise.
 *
 * Usage: fabric_inference [--side 4] [--samples 400] [--epochs 150]
 *                         [--reads 30]
 */

#include <cstdio>

#include "data/bars.hpp"
#include "rbm/class_rbm.hpp"
#include "rbm/serialize.hpp"
#include "train/strategies.hpp"
#include "util/cli.hpp"

using namespace ising;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const std::size_t side = args.getInt("side", 4);
    const std::size_t numSamples = args.getInt("samples", 400);
    const int epochs = static_cast<int>(args.getInt("epochs", 150));
    const int reads = static_cast<int>(args.getInt("reads", 30));

    util::Rng rng(7);
    const data::Dataset ds =
        data::makeBarsAndStripes(side, numSamples, rng);
    std::printf("bars-and-stripes: %zu images of %zux%zu\n", ds.size(),
                side, side);

    // Train through the unified session runtime -- the same epoch
    // loop, schedule and checkpointing path `isingrbm train` drives.
    rbm::ClassRbm init(ds.dim(), 2, 24);
    init.initRandom(rng);
    train::TrainOptions options;
    options.batchSize = 32;
    options.seed = 7;
    train::SessionConfig sessionConfig;
    sessionConfig.schedule.epochs = epochs;
    sessionConfig.schedule.learningRate = train::Ramp(0.1);
    sessionConfig.schedule.weightDecay = train::Ramp(
        train::defaultWeightDecay(rbm::ModelFamily::ClassRbm));
    sessionConfig.seed = 7;
    sessionConfig.name = "bars-classifier";
    sessionConfig.backendTag = "cd";
    train::Session session(
        train::makeClassRbmStrategy(std::move(init), ds, options),
        std::move(sessionConfig));
    session.run();
    const rbm::ClassRbm model =
        std::get<rbm::ClassRbm>(session.strategy().snapshot());
    std::printf("digital free-energy classification: %.1f%%\n",
                model.accuracy(ds) * 100);

    // Persist the classifier as a v2 checkpoint and reload it -- the
    // deploy path (the same archive `isingrbm list/serve-bench` read).
    const std::string path = "/tmp/isingrbm_classifier.ckpt";
    rbm::saveCheckpoint(session.checkpoint(), path);
    const rbm::Checkpoint loaded = rbm::loadCheckpointFile(path);
    const rbm::ClassRbm &served = std::get<rbm::ClassRbm>(loaded.model);
    const rbm::Rbm &reloaded = served.joint();
    std::printf("checkpointed to %s and reloaded (%s, %zu pixels, "
                "%d classes, trained %d epochs)\n",
                path.c_str(), rbm::familyTag(loaded.family()),
                served.numPixels(), served.numClasses(),
                loaded.meta.epoch);

    // Substrate inference at increasing noise.
    std::printf("\n%-16s %s\n", "(var, noise)", "fabric accuracy");
    for (const machine::NoiseSpec &noise : machine::paperNoiseGrid()) {
        machine::AnalogConfig fabricCfg;
        fabricCfg.noise = noise;
        machine::AnalogFabric fabric(reloaded.numVisible(),
                                     reloaded.numHidden(), fabricCfg);
        fabric.program(reloaded);
        const double acc =
            model.fabricAccuracy(fabric, ds, reads, rng);
        std::printf("%.2f_%.2f        %.1f%%\n", noise.rmsVariation,
                    noise.rmsNoise, acc * 100);
    }
    return 0;
}
