/**
 * @file
 * Generative walkthrough: train an RBM on synthetic digits with the
 * Boltzmann gradient follower, then draw fantasy samples from the
 * trained model and render them as ASCII art -- the qualitative
 * "did it learn the distribution?" check.
 *
 * The Gibbs chains run on the unified sampling interface: pass
 * --backend fabric to draw every sample through the noisy analog
 * substrate instead of exact software math.
 *
 * Usage: generate_samples [--samples N] [--hidden H] [--epochs E]
 *                         [--burnin 50] [--count 4]
 *                         [--backend software|fabric] [--noise 0.05]
 */

#include <cstdio>

#include "accel/fabric_backend.hpp"
#include "data/glyphs.hpp"
#include "eval/pipelines.hpp"
#include "rbm/sampling.hpp"
#include "util/cli.hpp"

using namespace ising;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const std::size_t numSamples = args.getInt("samples", 1200);
    const std::size_t hidden = args.getInt("hidden", 96);
    const int epochs = static_cast<int>(args.getInt("epochs", 8));
    const int burnIn = static_cast<int>(args.getInt("burnin", 100));
    const std::size_t count = args.getInt("count", 4);
    const std::string backendName = args.get("backend", "software");
    const double noise = args.getDouble("noise", 0.05);

    data::Dataset raw = data::makeGlyphs(data::digitsStyle(),
                                         numSamples, 7);
    const data::Dataset train = data::binarizeThreshold(raw);
    std::printf("training BGF on %zu digit glyphs (%zux%zu RBM)...\n",
                train.size(), train.dim(), hidden);

    eval::TrainSpec spec = eval::defaultTrainSpec(eval::Trainer::Bgf);
    spec.epochs = epochs;
    spec.seed = 3;
    const rbm::Rbm model = eval::trainRbm(train, hidden, spec);

    std::printf("\none training glyph for reference:\n%s\n",
                rbm::asciiImage(train.sample(0),
                                data::kGlyphSide).c_str());

    util::Rng rng(11);
    machine::AnalogConfig fabricCfg;
    fabricCfg.noise = {noise, noise};
    const auto backend = accel::makeSamplingBackend(
        accel::samplingBackendKind(backendName), model, fabricCfg);
    std::printf("sampling backend: %s\n", backend->name());

    const data::Dataset fantasies =
        rbm::fantasySamples(*backend, count, burnIn, rng, &train);
    for (std::size_t s = 0; s < fantasies.size(); ++s) {
        std::printf("fantasy sample %zu (after %d Gibbs sweeps):\n%s\n",
                    s, burnIn,
                    rbm::asciiImage(fantasies.sample(s),
                                    data::kGlyphSide).c_str());
    }

    // In-painting: clamp the top half of a test glyph, resample the
    // bottom half.
    std::vector<float> mask(train.dim(), -1.0f);
    for (std::size_t i = 0; i < train.dim() / 2; ++i)
        mask[i] = train.sample(1)[i];
    const data::Dataset inpainted =
        rbm::conditionalSamples(*backend, mask, 1, burnIn, rng);
    std::printf("in-painting (top half clamped from a real glyph):\n%s\n",
                rbm::asciiImage(inpainted.sample(0),
                                data::kGlyphSide).c_str());
    return 0;
}
