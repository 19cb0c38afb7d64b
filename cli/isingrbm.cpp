/**
 * @file
 * The isingrbm multi-tool: one entry point over the whole stack.
 *
 *   isingrbm train       train a model and checkpoint it in a registry
 *   isingrbm sample      draw fantasy samples from a checkpoint
 *   isingrbm eval        featurize + classifier-head (or exact
 *                        free-energy) accuracy of a checkpoint
 *   isingrbm serve       epoll network front end over the batched
 *                        server
 *   isingrbm loadgen     open-loop Poisson load client
 *   isingrbm serve-bench drive the batched inference server and report
 *                        throughput
 *   isingrbm promote     replay a seeded probe through the canary gate
 *                        and hot-swap the candidate into a registry on
 *                        pass (--live watches a running serve --canary
 *                        process's live-traffic gate instead)
 *   isingrbm list        list a registry's checkpoints (--verify
 *                        round-trips each archive)
 *
 * Every subcommand resolves datasets through data/registry, trains
 * through eval/pipelines and serves through engine/ -- the example
 * programs are demos of library APIs; this binary is the product
 * surface (train once, read the model out, ship it to inference).
 */

#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "data/ratings.hpp"
#include "data/registry.hpp"
#include "engine/server.hpp"
#include "eval/classifier.hpp"
#include "eval/pipelines.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "rbm/sampling.hpp"
#include "rbm/serialize.hpp"
#include "train/strategies.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/logging.hpp"
#include "util/shutdown.hpp"
#include "util/stopwatch.hpp"

using namespace ising;

namespace {

// ------------------------------------------------------------ helpers

/** Warn about typo'd flags, print help when asked; true = proceed. */
bool
checkFlags(const util::CliArgs &args, const std::string &usage,
           const std::vector<util::FlagHelp> &flags)
{
    if (args.helpRequested()) {
        std::fputs(util::usageText(usage, flags).c_str(), stdout);
        return false;
    }
    for (const std::string &name : args.unknown(util::knownFlagNames(flags)))
        util::warn("isingrbm: unknown flag --" + name + " (see --help)");
    return true;
}

std::string
requireFlag(const util::CliArgs &args, const std::string &name)
{
    const std::string value = args.get(name, "");
    if (value.empty())
        util::fatal("isingrbm: missing required --" + name +
                    " (see --help)");
    return value;
}

/** Non-negative size flag: a negative long would wrap to ~1.8e19 when
 *  assigned to std::size_t and blow up in the first allocation. */
std::size_t
sizeFlag(const util::CliArgs &args, const std::string &name,
         std::size_t dflt)
{
    const long v = args.getInt(name, static_cast<long>(dflt));
    if (v < 0)
        util::fatal(util::strcat("isingrbm: --", name,
                                 " must be non-negative, got ", v));
    return static_cast<std::size_t>(v);
}

/** Integer flag in 0..@p hi: a value outside exits 1 naming the flag
 *  instead of wrapping through the int cast (--epochs 4294967298
 *  would train 2 epochs). */
int
intFlag(const util::CliArgs &args, const std::string &name, int dflt,
        int hi = INT_MAX)
{
    const long v = args.getInt(name, dflt);
    if (v < 0 || v > hi)
        util::fatal(util::strcat("isingrbm: --", name, " must be in 0-",
                                 hi, ", got ", v));
    return static_cast<int>(v);
}

/** Binarized benchmark dataset shared by train/eval. */
data::Dataset
benchmarkData(const util::CliArgs &args)
{
    const std::string name = args.get("data", "MNIST");
    const std::size_t samples = sizeFlag(args, "samples", 1500);
    const std::uint64_t seed = args.getInt("data-seed", 42);
    data::Dataset raw = data::makeBenchmarkData(name, samples, seed);
    return data::binarizeThreshold(raw);
}

/** Fill spec fields from shared training flags. */
void
applyTrainFlags(const util::CliArgs &args, eval::TrainSpec &spec)
{
    spec.epochs = intFlag(args, "epochs", spec.epochs);
    spec.k = intFlag(args, "k", spec.k);
    spec.learningRate = args.getDouble("lr", spec.learningRate);
    spec.batchSize = sizeFlag(args, "batch", spec.batchSize);
    spec.seed = args.getInt("seed", spec.seed);
    const double noise = args.getDouble("noise", 0.0);
    spec.noise = {noise, noise};
}

const std::vector<util::FlagHelp> kTrainFlags = {
    {"registry", "dir", "checkpoint directory (required)"},
    {"name", "id", "checkpoint name (required)"},
    {"resume", "", "continue the existing checkpoint (family, seed and"
                   " epoch come from the archive)"},
    {"data", "id", "Table 1 benchmark dataset (default MNIST)"},
    {"samples", "N", "synthetic sample count (default 1500)"},
    {"data-seed", "S", "dataset generator seed (default 42)"},
    {"family", "fam", "rbm|class_rbm|cf_rbm|conv_rbm|dbn|dbm "
                      "(default rbm)"},
    {"hidden", "H", "hidden units for rbm/class_rbm/cf_rbm (default 64)"},
    {"layers", "a,b", "DBN widths / DBM hidden pair (default 96,48)"},
    {"filters", "K", "conv_rbm shared filters (default 12)"},
    {"filter-side", "F", "conv_rbm filter size (default 7)"},
    {"pool-grid", "P", "conv_rbm pooling grid per side (default 3)"},
    {"users", "N", "cf_rbm softmax user groups (default 943)"},
    {"items", "N", "cf_rbm items (default 100)"},
    {"trainer", "cd|gs|bgf", "training engine (default cd; per-family "
                             "support via the capability table)"},
    {"epochs", "E", "training epochs (default per trainer; per layer "
                    "for dbn)"},
    {"k", "K", "CD steps / BGF anneal sweeps (default per trainer)"},
    {"lr", "R", "learning rate (default 0.1)"},
    {"lr-end", "R", "final learning rate (linear ramp; default --lr)"},
    {"momentum", "M", "momentum for cd training (default 0)"},
    {"weight-decay", "D", "L2 weight decay (default per family)"},
    {"batch", "B", "minibatch size (default 50)"},
    {"pcd", "", "persistent-CD negative chains (cd trainer)"},
    {"replicas", "R", "BGF fleet replicas (default 1)"},
    {"pretrain-epochs", "E", "DBM greedy pre-training epochs "
                             "(default 3)"},
    {"noise", "X", "substrate (variation, noise) RMS for gs/bgf"},
    {"seed", "S", "training seed (default 1)"},
    {"checkpoint-every", "N", "periodic checkpoint cadence in epochs "
                              "(default: final only)"},
    {"epoch-sleep-ms", "M", "pause after each epoch (paces a "
                            "continuous-training publisher so serving "
                            "processes can observe every checkpoint)"},
    {"monitor-out", "path", "write per-epoch monitor records as CSV"},
    {"early-stop", "P", "stop once the held-out free-energy gap grows "
                        "for P epochs (implies monitoring; the stop "
                        "epoch rides in the checkpoint meta, so "
                        "--resume afterwards is a no-op)"},
};

/** Square side of a dataset's images; fatal when not square. */
std::size_t
imageSideOf(const data::Dataset &ds)
{
    const auto side = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(ds.dim()))));
    if (side * side != ds.dim())
        util::fatal(util::strcat("isingrbm: conv_rbm needs square "
                                 "images, got dim ", ds.dim()));
    return side;
}

int
cmdTrain(const util::CliArgs &args)
{
    if (!checkFlags(args, "isingrbm train --registry DIR --name ID [flags]",
                    kTrainFlags))
        return 0;
    engine::ModelRegistry registry(requireFlag(args, "registry"));
    const std::string name = requireFlag(args, "name");
    // Validate the name up front: failing here costs nothing, failing
    // after training would discard the whole run.
    const std::string outPath = registry.pathFor(name);

    // --resume: the archive is authoritative for family, trainer and
    // seed (construction-time randomness already used them).
    const bool resume = args.getBool("resume", false);
    std::optional<rbm::Checkpoint> prior;
    if (resume) {
        if (!registry.contains(name))
            util::fatal("isingrbm: --resume: no checkpoint '" + name +
                        "' under " + registry.dir());
        prior = rbm::loadCheckpointFile(outPath);
    }

    const rbm::ModelFamily family =
        prior ? prior->family()
              : rbm::familyFromTag(args.get("family", "rbm"));
    if (prior && args.has("family") &&
        rbm::familyFromTag(args.get("family", "rbm")) != family)
        util::fatal(std::string("isingrbm: --resume checkpoint is "
                                "family '") +
                    rbm::familyTag(family) + "', not '" +
                    args.get("family", "rbm") + "'");

    const std::string priorBackend = prior ? prior->meta.backend : "";
    const train::Trainer trainer = train::trainerFromName(
        args.get("trainer", priorBackend.empty() ? "cd" : priorBackend));
    // The capability table replaces the old per-family fatals: one
    // generated diagnostic for every unsupported combination.
    if (!train::supports(family, trainer))
        util::fatal("isingrbm: " +
                    train::unsupportedMessage(family, trainer));
    if (prior && !priorBackend.empty() &&
        priorBackend != train::trainerName(trainer))
        util::fatal("isingrbm: --resume checkpoint was trained by '" +
                    priorBackend + "', not '" +
                    train::trainerName(trainer) + "'");

    eval::TrainSpec spec = eval::defaultTrainSpec(trainer);
    applyTrainFlags(args, spec);
    if (prior) {
        if (args.has("seed") &&
            static_cast<std::uint64_t>(args.getInt("seed", 1)) !=
                prior->meta.seed)
            util::warn("isingrbm: --seed ignored on --resume (the "
                       "archive's seed governs)");
        spec.seed = prior->meta.seed;
    }

    train::TrainOptions options = eval::trainOptions(spec);
    options.persistentCd = args.getBool("pcd", false);
    options.bgfReplicas = std::max<std::size_t>(
        1, sizeFlag(args, "replicas", 1));

    train::Schedule schedule = eval::trainSchedule(spec);
    schedule.learningRate.end =
        args.getDouble("lr-end", spec.learningRate);
    schedule.momentum = train::Ramp(args.getDouble("momentum", 0.0));
    schedule.weightDecay = train::Ramp(args.getDouble(
        "weight-decay", train::defaultWeightDecay(family)));

    // ---- data + strategy, per family -------------------------------
    data::Dataset train;
    data::RatingData corpus;
    util::Rng initRng(spec.seed);
    std::unique_ptr<train::Strategy> strategy;

    if (family == rbm::ModelFamily::CfRbm) {
        data::RatingStyle style;
        style.numUsers = intFlag(args, "users", 943);
        style.numItems = intFlag(args, "items", 100);
        corpus = data::makeRatings(style, args.getInt("data-seed", 42));
        std::printf("training cf_rbm '%s': %d users x %d items, %zu "
                    "train / %zu test ratings\n",
                    name.c_str(), corpus.numUsers, corpus.numItems,
                    corpus.train.size(), corpus.test.size());
        rbm::CfRbm model =
            prior ? std::get<rbm::CfRbm>(prior->model)
                  : rbm::CfRbm(corpus.numUsers, corpus.numStars,
                               intFlag(args, "hidden", 64));
        if (!prior)
            model.initFromData(corpus, initRng);
        strategy = train::makeCfRbmStrategy(std::move(model), corpus,
                                            options);
    } else {
        train = benchmarkData(args);
        std::printf("training %s '%s' on %s: %zu samples of dim %zu\n",
                    rbm::familyTag(family), name.c_str(),
                    args.get("data", "MNIST").c_str(), train.size(),
                    train.dim());
    }

    switch (family) {
      case rbm::ModelFamily::Rbm: {
        rbm::Rbm model =
            prior ? std::get<rbm::Rbm>(prior->model)
                  : rbm::Rbm(train.dim(), sizeFlag(args, "hidden", 64));
        if (!prior)
            model.initRandom(initRng);
        strategy = train::makeRbmStrategy(std::move(model), train,
                                          options);
        break;
      }
      case rbm::ModelFamily::ClassRbm: {
        if (train.numClasses <= 0)
            util::fatal("isingrbm: dataset carries no labels");
        rbm::ClassRbm model =
            prior ? std::get<rbm::ClassRbm>(prior->model)
                  : rbm::ClassRbm(train.dim(), train.numClasses,
                                  sizeFlag(args, "hidden", 64));
        if (!prior)
            model.initRandom(initRng);
        strategy = train::makeClassRbmStrategy(std::move(model), train,
                                               options);
        break;
      }
      case rbm::ModelFamily::CfRbm:
        break;  // built above
      case rbm::ModelFamily::ConvRbm: {
        rbm::ConvRbmConfig cfg;
        cfg.imageSide = imageSideOf(train);
        cfg.filterSide = sizeFlag(args, "filter-side", 7);
        cfg.numFilters = sizeFlag(args, "filters", 12);
        cfg.poolGrid = sizeFlag(args, "pool-grid", 3);
        if (cfg.filterSide > cfg.imageSide)
            util::fatal("isingrbm: --filter-side exceeds the image "
                        "side");
        rbm::ConvRbm model = prior
            ? std::get<rbm::ConvRbm>(prior->model)
            : rbm::ConvRbm(cfg);
        if (!prior)
            model.initRandom(initRng);
        strategy = train::makeConvRbmStrategy(std::move(model), train,
                                              options);
        break;
      }
      case rbm::ModelFamily::Dbn: {
        std::optional<rbm::Dbn> model;
        if (prior) {
            model = std::get<rbm::Dbn>(prior->model);
        } else {
            std::vector<std::size_t> layers = {train.dim()};
            for (std::size_t width :
                 util::parseSizeList(args.get("layers", "96,48")))
                layers.push_back(width);
            model = rbm::Dbn(layers);
            model->initRandom(initRng);
        }
        // --epochs is per layer; the session spans the whole stack.
        const int perLayer = spec.epochs;
        schedule.epochs =
            perLayer * static_cast<int>(model->numLayers());
        strategy = train::makeDbnStrategy(std::move(*model), train,
                                          options, perLayer);
        break;
      }
      case rbm::ModelFamily::Dbm: {
        rbm::DbmConfig cfg;
        cfg.batchSize = spec.batchSize;
        cfg.pretrainEpochs =
            intFlag(args, "pretrain-epochs", cfg.pretrainEpochs);
        std::optional<rbm::Dbm> model;
        if (prior) {
            model = std::get<rbm::Dbm>(prior->model);
        } else {
            const std::vector<std::size_t> layers =
                util::parseSizeList(args.get("layers", "96,48"));
            if (layers.size() != 2)
                util::fatal("isingrbm: dbm needs exactly two hidden "
                            "widths, e.g. --layers 96,48");
            model = rbm::Dbm(train.dim(), layers[0], layers[1]);
            model->initRandom(initRng);
        }
        strategy = train::makeDbmStrategy(std::move(*model), train,
                                          options, cfg);
        break;
      }
    }

    // ---- monitor ---------------------------------------------------
    const std::string monitorOut = args.get("monitor-out", "");
    const int earlyStop = intFlag(args, "early-stop", 0);
    // The stop signal is the free-energy gap, which only the flat-RBM
    // and DBN monitors record; elsewhere the flag would silently
    // never fire, so say so up front.
    if (earlyStop > 0 && family != rbm::ModelFamily::Rbm &&
        family != rbm::ModelFamily::Dbn)
        util::warn(std::string("isingrbm: --early-stop watches the "
                               "held-out free-energy gap, which the ") +
                   rbm::familyTag(family) +
                   " monitor does not record; the stop will never "
                   "trigger");
    std::optional<rbm::TrainingMonitor> monitor;
    if (!monitorOut.empty() || earlyStop > 0) {
        if (family == rbm::ModelFamily::CfRbm) {
            // CF has no dense dataset; records carry weight stats +
            // test MAE.
            monitor.emplace(data::Dataset{}, data::Dataset{});
        } else {
            // Held-out data from the same generator, next seed over:
            // monitoring must not carve rows out of the training set.
            data::Dataset heldOut = data::binarizeThreshold(
                data::makeBenchmarkData(args.get("data", "MNIST"),
                                        sizeFlag(args, "samples", 1500),
                                        args.getInt("data-seed", 42) +
                                            1));
            monitor.emplace(train, heldOut);
        }
    }

    // ---- session ---------------------------------------------------
    train::SessionConfig config;
    config.schedule = schedule;
    config.seed = spec.seed;
    config.name = name;
    config.backendTag = train::trainerName(trainer);
    config.checkpointPath = outPath;
    config.checkpointEvery = intFlag(args, "checkpoint-every", 0);
    config.monitor = monitor ? &*monitor : nullptr;
    config.earlyStopPatience = earlyStop;
    const int epochSleepMs = intFlag(args, "epoch-sleep-ms", 0);
    config.onEpoch = [epochSleepMs](int epoch, train::Session &session) {
        std::printf("  epoch %d/%d done\n", epoch + 1,
                    session.config().schedule.epochs);
        std::fflush(stdout);
        if (epochSleepMs > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(epochSleepMs));
    };

    registry.ensureDir();
    train::Session session(std::move(strategy), std::move(config));
    if (prior) {
        session.resume(*prior);
        std::printf("resuming '%s' at epoch %d/%d\n", name.c_str(),
                    session.epochsDone(), schedule.epochs);
    }

    util::Stopwatch sw;
    session.run();
    std::printf("checkpointed %s at epoch %d (%.1fs, trainer %s) -> "
                "%s\n",
                name.c_str(), session.epochsDone(), sw.seconds(),
                train::trainerName(trainer), outPath.c_str());
    if (session.earlyStopEpoch() >= 0)
        std::printf("early-stopped at epoch %d (recorded in the "
                    "checkpoint meta; --resume will be a no-op)\n",
                    session.earlyStopEpoch());

    if (monitor && !monitorOut.empty()) {
        std::ofstream os(monitorOut);
        if (!os)
            util::fatal("isingrbm: cannot write " + monitorOut);
        monitor->writeCsv(os);
        std::printf("wrote %zu monitor records -> %s\n",
                    monitor->records().size(), monitorOut.c_str());
    }
    return 0;
}

const std::vector<util::FlagHelp> kSampleFlags = {
    {"registry", "dir", "checkpoint directory (required)"},
    {"model", "id", "checkpoint name (required)"},
    {"count", "N", "chains to draw (default 4)"},
    {"burnin", "K", "anneal sweeps per chain (default 50)"},
    {"seed", "S", "request seed (default 7)"},
    {"ascii", "", "render square samples as ASCII art"},
    {"out", "path", "write samples as a text matrix"},
};

int
cmdSample(const util::CliArgs &args)
{
    if (!checkFlags(args,
                    "isingrbm sample --registry DIR --model ID [flags]",
                    kSampleFlags))
        return 0;
    engine::ModelRegistry registry(requireFlag(args, "registry"));
    engine::Server server(registry);
    const std::string name = requireFlag(args, "model");

    engine::Request req;
    req.model = name;
    req.op = engine::Op::Sample;
    req.count = sizeFlag(args, "count", 4);
    req.steps = intFlag(args, "burnin", 50);
    req.seed = args.getInt("seed", 7);
    const engine::Response res =
        std::move(server.serve({std::move(req)}).front());
    if (!res.status.ok())
        util::fatal("isingrbm: sample request failed: " +
                    res.status.toString());

    const auto model = registry.get(name);
    std::printf("%zu samples of dim %zu from %s '%s' (backend %s, "
                "seed %llu, epoch %d)\n",
                res.output.rows(), res.output.cols(),
                model->familyName(), model->meta().name.c_str(),
                model->meta().backend.empty()
                    ? "?" : model->meta().backend.c_str(),
                static_cast<unsigned long long>(model->meta().seed),
                model->meta().epoch);

    const std::size_t side = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(res.output.cols()))));
    for (std::size_t r = 0; r < res.output.rows(); ++r) {
        double mean = 0.0;
        for (std::size_t i = 0; i < res.output.cols(); ++i)
            mean += res.output(r, i);
        std::printf("sample %zu: mean activation %.3f\n", r,
                    mean / static_cast<double>(res.output.cols()));
        if (args.has("ascii") && side * side == res.output.cols())
            std::printf("%s", rbm::asciiImage(res.output.row(r),
                                              side).c_str());
    }

    const std::string outPath = args.get("out", "");
    if (!outPath.empty()) {
        std::ofstream os(outPath);
        if (!os)
            util::fatal("isingrbm: cannot write " + outPath);
        for (std::size_t r = 0; r < res.output.rows(); ++r) {
            for (std::size_t i = 0; i < res.output.cols(); ++i)
                os << res.output(r, i)
                   << (i + 1 == res.output.cols() ? '\n' : ' ');
        }
        std::printf("wrote %s\n", outPath.c_str());
    }
    return 0;
}

const std::vector<util::FlagHelp> kEvalFlags = {
    {"registry", "dir", "checkpoint directory (required)"},
    {"model", "id", "checkpoint name (required)"},
    {"data", "id", "Table 1 benchmark dataset (default MNIST)"},
    {"samples", "N", "synthetic sample count (default 1500)"},
    {"data-seed", "S", "dataset generator seed (default 42)"},
    {"test-frac", "F", "test split fraction (default 0.25)"},
    {"seed", "S", "split/head seed (default 9)"},
    {"head-epochs", "E", "logistic head epochs (default 30)"},
};

int
cmdEval(const util::CliArgs &args)
{
    if (!checkFlags(args, "isingrbm eval --registry DIR --model ID [flags]",
                    kEvalFlags))
        return 0;
    engine::ModelRegistry registry(requireFlag(args, "registry"));
    engine::Server server(registry);
    const std::string name = requireFlag(args, "model");
    const auto model = registry.get(name);

    const data::Dataset full = benchmarkData(args);
    util::Rng splitRng(args.getInt("seed", 9));
    const data::Split split = data::trainTestSplit(
        full, args.getDouble("test-frac", 0.25), splitRng);
    std::printf("eval %s '%s' on %s: train %zu / test %zu of dim %zu\n",
                model->familyName(), name.c_str(),
                args.get("data", "MNIST").c_str(), split.train.size(),
                split.test.size(), split.train.dim());

    if (model->family() == rbm::ModelFamily::ClassRbm) {
        engine::Request req;
        req.model = name;
        req.op = engine::Op::Classify;
        req.input = split.test.samples;
        const engine::Response res =
            std::move(server.serve({std::move(req)}).front());
        if (!res.status.ok())
            util::fatal("isingrbm: classify request failed: " +
                        res.status.toString());
        std::size_t hits = 0;
        for (std::size_t r = 0; r < res.labels.size(); ++r)
            hits += res.labels[r] == split.test.labels[r];
        std::printf("exact free-energy accuracy: %.1f%%\n",
                    100.0 * hits /
                        static_cast<double>(split.test.size()));
        return 0;
    }

    auto featurize = [&](const data::Dataset &ds) {
        engine::Request req;
        req.model = name;
        req.op = engine::Op::Featurize;
        req.input = ds.samples;
        data::Dataset out;
        out.name = ds.name + "-features";
        out.numClasses = ds.numClasses;
        out.labels = ds.labels;
        engine::Response res =
            std::move(server.serve({std::move(req)}).front());
        if (!res.status.ok())
            util::fatal("isingrbm: featurize request failed: " +
                        res.status.toString());
        out.samples = std::move(res.output);
        return out;
    };
    eval::LogisticConfig head;
    head.epochs = intFlag(args, "head-epochs", 30);
    util::Rng headRng(args.getInt("seed", 9));
    const double acc = eval::classifierAccuracy(
        featurize(split.train), featurize(split.test), head, headRng);
    std::printf("feature dim %zu, logistic-head test accuracy: %.1f%%\n",
                model->outputDim(engine::Op::Featurize), acc * 100);
    return 0;
}

const std::vector<util::FlagHelp> kServeBenchFlags = {
    {"registry", "dir", "checkpoint directory (required)"},
    {"model", "id", "checkpoint name (required)"},
    {"op", "sample|featurize|reconstruct|classify",
     "request type (default featurize)"},
    {"requests", "N", "request count (default 64)"},
    {"rows", "R", "rows per request (default 4)"},
    {"steps", "K", "anneal sweeps for sample requests (default 10)"},
    {"max-batch", "B", "server kernel batch depth (default 256)"},
    {"seed", "S", "request seed root (default 13)"},
    {"reps", "N", "serve the same workload N times in-process "
                  "(default 1; with --cache-bytes, rep 2+ hits)"},
    {"cache-bytes", "B", "response-cache budget in bytes (default 0 = "
                         "cache off)"},
    {"out", "file", "write the final rep's response bytes (hex floats) "
                    "for cross-run comparison"},
};

int
cmdServeBench(const util::CliArgs &args)
{
    if (!checkFlags(args,
                    "isingrbm serve-bench --registry DIR --model ID "
                    "[flags]",
                    kServeBenchFlags))
        return 0;
    engine::ModelRegistry registry(requireFlag(args, "registry"));
    engine::ServerConfig config;
    config.maxBatchRows = sizeFlag(args, "max-batch", 256);
    config.cacheBytes = sizeFlag(args, "cache-bytes", 0);
    engine::Server server(registry, config);

    const std::string name = requireFlag(args, "model");
    const auto model = registry.get(name);
    const engine::Op op =
        engine::opFromName(args.get("op", "featurize"));
    const std::size_t requests = sizeFlag(args, "requests", 64);
    const std::size_t rows = sizeFlag(args, "rows", 4);
    const int steps = intFlag(args, "steps", 10);
    const std::uint64_t seed = args.getInt("seed", 13);
    const std::size_t reps = std::max<std::size_t>(
        1, sizeFlag(args, "reps", 1));

    // probeRequests is deterministic, so each rep serves byte-identical
    // requests: with a cache, rep 1 warms it and later reps replay.
    std::vector<engine::Response> responses;
    util::Stopwatch sw;
    for (std::size_t rep = 0; rep < reps; ++rep)
        responses = server.serve(engine::probeRequests(
            *model, name, op, requests, rows, steps, seed));
    const double seconds = sw.seconds();
    const engine::Server::Stats &stats = server.stats();
    const engine::ModelRegistry::Stats faults = registry.stats();
    std::printf("served %zu x %zu %s requests (%zu kernel rows) on "
                "%s '%s' in %.3fs\n",
                reps, responses.size(), engine::opName(op), stats.rows,
                model->familyName(), name.c_str(), seconds);
    std::printf("  %.0f requests/s, %.0f rows/s, %zu coalesced "
                "groups, %zu kernel batches (max depth %zu), "
                "%zu scratch resizes, %zu group resizes\n",
                reps * requests / seconds,
                reps * requests * rows / seconds, stats.groups,
                stats.kernelBatches, config.maxBatchRows,
                stats.scratchResizes, stats.groupResizes);
    std::printf("  cache: %zu hits, %zu misses, %zu evictions, "
                "%zu bytes (budget %zu)\n",
                stats.cacheHits, stats.cacheMisses, stats.cacheEvictions,
                stats.cacheBytes, config.cacheBytes);
    std::printf("  faults: %zu rejected, %zu reload fallbacks, "
                "%zu promotions, %zu rollbacks\n",
                stats.rejected, faults.reloadFallbacks, faults.promotions,
                faults.rollbacks);

    // Exact byte dump of the final rep: the cli_smoke canaries diff
    // these across cache on/off and against the socket-served bytes.
    const std::string outPath = args.get("out", "");
    if (!outPath.empty()) {
        std::ofstream file(outPath, std::ios::binary);
        if (!file)
            util::fatal("isingrbm: cannot write " + outPath);
        file << std::hexfloat;
        for (const engine::Response &res : responses) {
            if (!res.status.ok())
                util::fatal("isingrbm: serve-bench response failed: " +
                            res.status.toString());
            for (std::size_t r = 0; r < res.output.rows(); ++r)
                for (std::size_t c = 0; c < res.output.cols(); ++c)
                    file << res.output(r, c)
                         << (c + 1 == res.output.cols() ? '\n' : ' ');
            for (const int label : res.labels)
                file << label << '\n';
        }
    }
    return 0;
}

const std::vector<util::FlagHelp> kPromoteFlags = {
    {"registry", "dir", "checkpoint directory (required unless --live)"},
    {"name", "id", "serving name to promote into (required unless "
                   "--live)"},
    {"candidate", "path", "candidate checkpoint archive (required "
                          "unless --live)"},
    {"canary-rows", "N", "rows of the seeded probe replayed through the "
                         "canary gate (default 64)"},
    {"canary-seed", "S", "probe request seed"},
    {"tolerance", "X", "max mean-abs divergence of the candidate's probe "
                       "reconstruction from the incumbent's (default "
                       "0.05)"},
    {"live", "", "drive the live-traffic gate of a running `serve "
                 "--canary` process: poll Health frames until the "
                 "canary promotes (exit 0), is quarantined at timeout "
                 "(exit 2), or errors (exit 1)"},
    {"host", "addr", "serve address for --live (default 127.0.0.1)"},
    {"port", "P", "serve port for --live (or --port-file)"},
    {"port-file", "path", "poll this file for the port `serve "
                          "--port-file` published (--live)"},
    {"poll-ms", "M", "health poll interval for --live (default 200)"},
    {"timeout-sec", "S", "give up on --live after S seconds "
                         "(default 60)"},
};

/**
 * The one port reader (serve, loadgen, promote --live and the
 * --port-file handshake): @p text as a TCP port, or exit 1 naming
 * @p source.  Clients need a real port, 1-65535; serve also takes 0,
 * the ephemeral port.  A malformed or out-of-range value never falls
 * back or wraps, which would bind or dial a port nobody asked for.
 */
std::uint16_t
parsePort(const std::string &text, const std::string &source,
          bool allowZero)
{
    const long lowest = allowZero ? 0 : 1;
    char *end = nullptr;
    errno = 0;
    const long port = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE ||
        port < lowest || port > 65535)
        util::fatal(util::strcat("isingrbm: ", source, " must be a port in ",
                                 lowest, "-65535, got '", text, "'"));
    return static_cast<std::uint16_t>(port);
}

/** --port, or the --port-file handshake: poll up to 10 s for the port
 *  a `serve --port-file` process publishes (write + rename, so a
 *  successful read is never torn). */
std::uint16_t
resolvePort(const util::CliArgs &args)
{
    const std::string portFile = args.get("port-file", "");
    if (portFile.empty())
        return parsePort(requireFlag(args, "port"), "--port", false);
    for (int attempt = 0; attempt < 200; ++attempt) {
        std::ifstream file(portFile);
        std::string text;
        if (file >> text)
            return parsePort(text, "the port in " + portFile, false);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    util::fatal("isingrbm: no port appeared in " + portFile);
}

/**
 * promote --live: watch a running `serve --canary` process decide.
 * The gate itself lives in the server (shadowed live traffic feeds
 * it); this driver just polls Health frames -- through the
 * self-healing client, so a mid-poll server restart is survived --
 * and translates the gate's verdict into the promote exit contract:
 * 0 promoted, 2 the gate quarantined the candidate (a successful
 * rollback decision) without promoting before the timeout, 1 error
 * or no decision.
 */
int
cmdPromoteLive(const util::CliArgs &args)
{
    const std::string host = args.get("host", "127.0.0.1");
    const std::uint16_t port = resolvePort(args);
    const long pollMs = std::max(1L, args.getInt("poll-ms", 200));
    const double timeoutSec = args.getDouble("timeout-sec", 60.0);

    net::Client::RetryPolicy retry;
    retry.maxAttempts = 5;
    net::Client client(retry);
    std::string error;
    if (!client.connect(host, port, &error))
        util::fatal("isingrbm: promote --live: cannot reach " + host +
                    ":" + std::to_string(port) + ": " + error);

    util::Stopwatch sw;
    net::HealthSnapshot last;
    engine::CanaryState state = engine::CanaryState::Idle;
    bool everSeen = false, lostServer = false;
    for (;;) {
        net::Request req;
        req.type = net::FrameType::HealthRequest;
        net::Response res;
        if (!client.call(req, res) ||
            res.type != net::FrameType::HealthResponse ||
            res.code != net::kWireOk) {
            lostServer = true;
            break;
        }
        last = res.health;
        const auto shown = static_cast<engine::CanaryState>(
            last.canaryState);
        if (!everSeen || shown != state) {
            std::printf("promote --live: %s\n",
                        net::gateSummary(last).c_str());
            std::fflush(stdout);
        }
        everSeen = true;
        state = shown;
        if (state == engine::CanaryState::Promoted ||
            last.canaryPromotions > 0) {
            std::printf("promote --live: candidate promoted in %.1fs\n",
                        sw.seconds());
            return 0;
        }
        if (sw.seconds() >= timeoutSec)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(pollMs));
    }

    if (lostServer) {
        util::warn("isingrbm: promote --live: lost the server before "
                   "the gate decided");
        return 1;
    }
    if (everSeen && (state == engine::CanaryState::Quarantined ||
                     last.canaryQuarantines > 0)) {
        std::printf("promote --live: candidate quarantined, not "
                    "promoted; incumbent keeps serving (%s)\n",
                    net::gateSummary(last).c_str());
        return 2;
    }
    std::printf("promote --live: no gate decision within %.0fs (%s)\n",
                timeoutSec, net::gateSummary(last).c_str());
    return 1;
}

int
cmdPromote(const util::CliArgs &args)
{
    if (!checkFlags(args,
                    "isingrbm promote --registry DIR --name ID "
                    "--candidate PATH [flags]  |  isingrbm promote "
                    "--live --port P [flags]",
                    kPromoteFlags))
        return 0;
    if (args.getBool("live", false))
        return cmdPromoteLive(args);
    engine::ModelRegistry registry(requireFlag(args, "registry"));
    const std::string name = requireFlag(args, "name");
    const std::string candidate = requireFlag(args, "candidate");

    const auto result = engine::promoteCandidate(
        registry, name, candidate, args.getDouble("tolerance", 0.05),
        sizeFlag(args, "canary-rows", 64),
        args.getInt("canary-seed", 0x43414e41));
    if (!result.ok())
        util::fatal("isingrbm: promote failed: " +
                    result.status().toString());
    std::printf("%s\n", result.value().detail.c_str());
    // Rollback is a successful gate decision, but scripts driving a
    // promote pipeline need to see it didn't ship.
    return result.value().promoted ? 0 : 2;
}

const std::vector<util::FlagHelp> kServeFlags = {
    {"registry", "dir", "checkpoint directory (required)"},
    {"port", "P", "TCP port (default 0 = ephemeral; the bound port is "
                  "printed)"},
    {"bind", "addr", "listen address (default 127.0.0.1)"},
    {"port-file", "path", "write the bound port here once listening "
                          "(harness handshake for --port 0)"},
    {"cache-bytes", "B", "response-cache budget in bytes (default 0 = "
                         "cache off)"},
    {"max-batch", "R", "kernel batch depth / auto-flush row threshold "
                       "(default 256)"},
    {"max-pending-rows", "N", "admission budget: rows admitted per "
                              "event-loop cycle; beyond it requests "
                              "are shed OVERLOADED (default 4096)"},
    {"max-connections", "N", "accepted-connection cap (default 256)"},
    {"idle-timeout-ms", "M", "reap a connection after M ms without "
                             "traffic (default 30000)"},
    {"canary", "path", "stage this candidate checkpoint beside the "
                       "incumbent and shadow live traffic through it "
                       "(client bytes stay incumbent-served)"},
    {"canary-model", "id", "serving name the candidate shadows "
                           "(default: the registry's only model)"},
    {"canary-fraction", "F", "fraction of live infer traffic shadowed "
                             "(seeded split; default 0.05)"},
    {"canary-min-shadows", "N", "clean shadows required before "
                                "auto-promote (default 32)"},
    {"canary-max-divergence", "X", "mean-abs divergence tripwire per "
                                   "shadowed request (default 0.05)"},
    {"stats-every-ms", "M", "print a one-line serving/canary ledger to "
                            "stderr every M ms (default 0 = off)"},
};

/**
 * The networked front end: an epoll listener feeding the batched
 * engine.  SIGINT/SIGTERM (or a client Shutdown frame) stops
 * accepting, drains in-flight flushes and queued replies, prints the
 * stats ledger, and exits 0.  With --canary, the candidate checkpoint
 * is staged beside the incumbent and the engine's live gate shadows a
 * seeded fraction of traffic through it, auto-promoting after enough
 * clean shadows and quarantining on any breach -- either way, every
 * client-visible byte keeps coming from the incumbent until an atomic
 * promote lands.
 */
int
cmdServe(const util::CliArgs &args)
{
    if (!checkFlags(args, "isingrbm serve --registry DIR [flags]",
                    kServeFlags))
        return 0;
    util::installShutdownHandler();
    net::NetConfig config;
    config.port =
        args.has("port") ? parsePort(args.get("port", ""), "--port", true)
                         : 0;
    engine::ModelRegistry registry(requireFlag(args, "registry"));
    config.bindAddress = args.get("bind", "127.0.0.1");
    config.maxPendingRows = sizeFlag(args, "max-pending-rows", 4096);
    config.maxConnections = sizeFlag(args, "max-connections", 256);
    config.idleTimeoutMs = intFlag(args, "idle-timeout-ms", 30000);
    config.server.maxBatchRows = sizeFlag(args, "max-batch", 256);
    config.server.cacheBytes = sizeFlag(args, "cache-bytes", 0);
    config.statsEveryMs = intFlag(args, "stats-every-ms", 0);
    config.stopRequested = util::shutdownRequested;

    // Live canary: stage the candidate *before* the port is published
    // so a crash-injected stage never strands a handshaking client,
    // and arm the engine's shadow gate.  A bad candidate (torn bytes,
    // wrong input dim) is a warn-and-serve-without event, not a fatal:
    // the incumbent is healthy and the operator can restage.
    const std::string canaryPath = args.get("canary", "");
    std::string canaryModel = args.get("canary-model", "");
    if (!canaryPath.empty()) {
        if (canaryModel.empty()) {
            const auto names = registry.names();
            if (names.size() != 1)
                util::fatal(util::strcat(
                    "isingrbm: --canary-model is required when the "
                    "registry holds ", names.size(),
                    " models (need exactly 1 to infer the target)"));
            canaryModel = names.front();
        }
        config.server.canary.model = canaryModel;
        config.server.canary.fraction =
            args.getDouble("canary-fraction", 0.05);
        config.server.canary.minShadows =
            sizeFlag(args, "canary-min-shadows", 32);
        config.server.canary.maxDivergence =
            args.getDouble("canary-max-divergence", 0.05);
        const engine::Status staged =
            registry.stageCandidate(canaryModel, canaryPath);
        if (staged.ok())
            std::fprintf(stderr,
                         "serve: canary staged %s -> '%s' (fraction "
                         "%.3f, min shadows %zu, max divergence "
                         "%.4f)\n",
                         canaryPath.c_str(), canaryModel.c_str(),
                         config.server.canary.fraction,
                         config.server.canary.minShadows,
                         config.server.canary.maxDivergence);
        else
            util::warn("isingrbm: canary stage failed, serving "
                       "without a candidate: " + staged.toString());
    } else if (args.has("canary-fraction") ||
               args.has("canary-min-shadows") ||
               args.has("canary-max-divergence")) {
        util::warn("isingrbm: --canary-fraction/--canary-min-shadows/"
                   "--canary-max-divergence do nothing without "
                   "--canary CKPT");
    }

    net::NetServer server(registry, std::move(config));
    const std::uint16_t port = server.start();
    std::printf("serving %s on %s port %u (admission %zu rows, "
                "cache %zu bytes)\n",
                registry.dir().c_str(), args.get("bind", "127.0.0.1").c_str(),
                port, sizeFlag(args, "max-pending-rows", 4096),
                sizeFlag(args, "cache-bytes", 0));
    std::fflush(stdout);

    // Publish the bound port atomically (write + rename) so a polling
    // loadgen never reads a half-written file.  A failed publish exits
    // 1 (after the server closes its socket) and leaves no temp file.
    const std::string portFile = args.get("port-file", "");
    if (!portFile.empty()) {
        const std::string tmp = portFile + ".tmp";
        {
            std::ofstream file(tmp, std::ios::binary);
            if (!file)
                util::fatal("isingrbm: cannot write " + tmp);
            file << port << '\n';
        }
        std::error_code ec;
        std::filesystem::rename(tmp, portFile, ec);
        if (ec) {
            std::error_code ignored;
            std::filesystem::remove(tmp, ignored);
            util::logMessage(util::LogLevel::Error,
                             util::strcat("isingrbm: --port-file: cannot "
                                          "publish the port to ",
                                          portFile, ": ", ec.message()));
            return 1;
        }
    }

    server.run();

    // The final ledger goes to stderr: in piped harnesses (serve |
    // loadgen) the downstream exits first, and a stdout write here
    // would die on SIGPIPE after a clean drain.
    const net::NetServer::Stats net = server.stats();
    const engine::Server::Stats &stats = server.engine().stats();
    std::fprintf(stderr,
                 "serve: %zu accepted, %zu closed (%zu idle, %zu over "
                 "capacity), %zu frames\n",
                 net.accepted, net.closed, net.idleClosed,
                 net.overCapacity, net.frames);
    std::fprintf(stderr,
                 "  %zu admitted, %zu shed, %zu protocol errors, "
                 "%zu fault drops, %zu fault stalls, %zu "
                 "deadline-expired\n",
                 net.infers, net.shed, net.protocolErrors,
                 net.faultDrops, net.faultStalls,
                 stats.deadlineExpired);
    std::fprintf(stderr,
                 "  engine: %zu rows in %zu flushes, cache %zu hits / "
                 "%zu misses, flush p50 %.3f ms p99 %.3f ms\n",
                 stats.rows, stats.flushes, stats.cacheHits,
                 stats.cacheMisses,
                 stats.flushLatencyNs.quantile(0.5) / 1e6,
                 stats.flushLatencyNs.quantile(0.99) / 1e6);
    if (!canaryPath.empty())
        std::fprintf(stderr, "  %s\n",
                     net::gateSummary(server.healthSnapshot(), &stats)
                         .c_str());
    std::fprintf(stderr, "serve: drained, exiting\n");
    return 0;
}

const std::vector<util::FlagHelp> kLoadgenFlags = {
    {"host", "addr", "server address (default 127.0.0.1)"},
    {"port", "P", "server port (or --port-file)"},
    {"port-file", "path", "poll this file for the port `serve "
                          "--port-file` published"},
    {"model", "id", "model to drive (required)"},
    {"op", "name", "sample|featurize|classify|reconstruct "
                   "(default featurize)"},
    {"requests", "N", "request count (default 64)"},
    {"rows", "R", "rows (or sample chains) per request (default 4)"},
    {"steps", "K", "anneal sweeps for sample (default 10)"},
    {"seed", "S", "corpus seed; serve-bench with the same seed "
                  "replays identical requests (default 13)"},
    {"connections", "C", "concurrent connections (default 4)"},
    {"rate", "R", "offered load in requests/s, Poisson arrivals "
                  "(default 0 = saturate)"},
    {"hit-pct", "P", "percent of requests aimed at a small warm set "
                     "(cache traffic; default 0)"},
    {"warm", "N", "warm-set size for --hit-pct (default 16)"},
    {"float-payload", "", "send raw float rows instead of packed bits "
                          "(bit-identical; byte-diff canary)"},
    {"deadline-ms", "M", "per-request deadline budget carried on every "
                         "Infer frame; DEADLINE_EXCEEDED replies are "
                         "counted separately from failures (default 0 "
                         "= none)"},
    {"out", "path", "dump response bytes (corpus order, hex floats) "
                    "for byte-diffing against serve-bench --out"},
    {"shutdown", "", "send a Shutdown frame when done (smoke harness "
                     "teardown)"},
};

/**
 * Open-loop Poisson load generator: drives N connections with the
 * deterministic probe corpus and reports req/s, rows/s, latency
 * quantiles and the shed rate.  Exit 0 means every request got a
 * reply (OVERLOADED sheds included -- zero dropped frames); only
 * transport errors or non-shed failures exit 1.
 */
int
cmdLoadgen(const util::CliArgs &args)
{
    if (!checkFlags(args,
                    "isingrbm loadgen --model ID --port P [flags]",
                    kLoadgenFlags))
        return 0;
    net::LoadGenConfig config;
    config.host = args.get("host", "127.0.0.1");
    config.model = requireFlag(args, "model");
    config.op = engine::opFromName(args.get("op", "featurize"));
    config.requests = sizeFlag(args, "requests", 64);
    config.rows = sizeFlag(args, "rows", 4);
    config.steps = intFlag(args, "steps", 10);
    config.seed = args.getInt("seed", 13);
    config.connections = sizeFlag(args, "connections", 4);
    config.ratePerSec = args.getDouble("rate", 0);
    config.hitPct = intFlag(args, "hit-pct", 0, 100);
    config.warmCount = sizeFlag(args, "warm", 16);
    config.packedPayload = !args.has("float-payload");
    const long deadlineMs = args.getInt("deadline-ms", 0);
    if (deadlineMs < 0 || deadlineMs > 4294967295L)
        util::fatal(util::strcat("isingrbm: --deadline-ms must be in "
                                 "0-4294967295, got ", deadlineMs));
    config.deadlineMs = static_cast<std::uint32_t>(deadlineMs);
    const std::string outPath = args.get("out", "");
    config.keepResponses = !outPath.empty();
    config.port = resolvePort(args);

    const net::LoadGenReport report = net::runLoadGen(config);
    if (!report.error.empty())
        util::fatal("isingrbm: " + report.error);

    const util::Histogram &lat = report.latencyNs;
    std::printf("loadgen: %zu requests (%zu ok, %zu shed, %zu failed) "
                "in %.3fs over %zu connection(s)\n",
                report.sent, report.ok, report.shed, report.failed,
                report.seconds, config.connections);
    std::printf("  %zu deadline-expired, %zu retries, %zu reconnects "
                "(self-healed)\n",
                report.deadlineExpired, report.retries,
                report.reconnects);
    std::printf("  %.0f req/s, %.0f rows/s, shed rate %.1f%%\n",
                report.reqPerSec(), report.rowsPerSec(),
                report.sent
                    ? 100.0 * static_cast<double>(report.shed) /
                          static_cast<double>(report.sent)
                    : 0.0);
    std::printf("  latency ms: p50 %.3f  p90 %.3f  p99 %.3f  "
                "p99.9 %.3f  max %.3f\n",
                lat.quantile(0.50) / 1e6, lat.quantile(0.90) / 1e6,
                lat.quantile(0.99) / 1e6, lat.quantile(0.999) / 1e6,
                static_cast<double>(lat.max()) / 1e6);

    if (!outPath.empty()) {
        // Mirror serve-bench --out exactly: ok responses in corpus
        // order, hex floats, labels one per line -- the two files
        // byte-diff when the socket path is bit-identical.
        std::ofstream file(outPath, std::ios::binary);
        if (!file)
            util::fatal("isingrbm: cannot write " + outPath);
        file << std::hexfloat;
        for (const net::Response &res : report.responses) {
            if (res.code != net::kWireOk)
                util::fatal(std::string("isingrbm: loadgen response "
                                        "failed: [") +
                            net::wireCodeName(res.code) + "] " +
                            res.message);
            for (std::size_t r = 0; r < res.rows && res.cols; ++r)
                for (std::size_t c = 0; c < res.cols; ++c)
                    file << res.floats[r * res.cols + c]
                         << (c + 1 == res.cols ? '\n' : ' ');
            for (const std::int32_t label : res.labels)
                file << label << '\n';
        }
    }

    if (args.has("shutdown")) {
        net::Client client;
        std::string error;
        if (client.connect(config.host, config.port, &error)) {
            net::Request req;
            req.type = net::FrameType::ShutdownRequest;
            net::Response ack;
            client.call(req, ack);
        }
    }
    return report.failed == 0 ? 0 : 1;
}

const std::vector<util::FlagHelp> kListFlags = {
    {"registry", "dir", "checkpoint directory (required)"},
    {"verify", "", "re-serialize each archive and diff the round-trip"},
};

int
cmdList(const util::CliArgs &args)
{
    if (!checkFlags(args, "isingrbm list --registry DIR [--verify]",
                    kListFlags))
        return 0;
    engine::ModelRegistry registry(requireFlag(args, "registry"));
    const bool verify = args.getBool("verify", false);

    int failures = 0;
    const auto names = registry.names();
    std::printf("%-20s %-10s %-8s %-10s %-6s %s\n", "name", "family",
                "backend", "seed", "epoch", "state");
    for (const std::string &name : names) {
        // A torn or corrupt archive fails its own row, not the listing.
        std::string error;
        const std::optional<rbm::Checkpoint> loaded =
            rbm::tryLoadCheckpointFile(registry.pathFor(name), &error);
        if (!loaded) {
            std::printf("%-20s unreadable: %s\n", name.c_str(),
                        error.c_str());
            ++failures;
            continue;
        }
        const rbm::Checkpoint &ckpt = *loaded;
        std::printf("%-20s %-10s %-8s %-10llu %-6d %s", name.c_str(),
                    rbm::familyTag(ckpt.family()),
                    ckpt.meta.backend.empty() ? "-"
                                              : ckpt.meta.backend.c_str(),
                    static_cast<unsigned long long>(ckpt.meta.seed),
                    ckpt.meta.epoch,
                    ckpt.train ? "chains" : "-");
        if (verify) {
            // Round-trip diff: save(load(file)) must be byte-stable
            // under a second load/save cycle (and v2 archives must
            // reproduce themselves exactly).
            std::ostringstream first;
            rbm::saveCheckpoint(ckpt, first);
            std::istringstream back(first.str());
            std::ostringstream second;
            rbm::saveCheckpoint(rbm::loadCheckpoint(back), second);
            const bool ok = first.str() == second.str();
            std::printf("  round-trip %s", ok ? "OK" : "FAIL");
            failures += !ok;
        }
        std::printf("\n");
    }
    if (names.empty())
        std::printf("(no checkpoints under %s)\n",
                    registry.dir().c_str());
    return failures == 0 ? 0 : 1;
}

int
cmdHelp()
{
    std::printf(
        "isingrbm -- train, persist and serve Ising-substrate RBM "
        "models\n"
        "usage: isingrbm <subcommand> [--flags]   (--help per "
        "subcommand)\n\n"
        "  train        train a model and checkpoint it in a registry\n"
        "  sample       draw fantasy samples from a checkpoint\n"
        "  eval         classifier-head / free-energy accuracy of a "
        "checkpoint\n"
        "  serve        epoll network front end over the batched "
        "server (frame protocol)\n"
        "  loadgen      open-loop Poisson load client: latency "
        "quantiles, shed rate\n"
        "  serve-bench  drive the batched inference server, report "
        "throughput\n"
        "  promote      canary-gate a candidate checkpoint, hot-swap "
        "on pass (--live: watch a\n"
        "               running serve --canary process's traffic gate "
        "decide)\n"
        "  list         list a registry's checkpoints (--verify "
        "round-trips)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A reader that exits first (`isingrbm train ... | head`) must not
    // kill the command mid-run: a write to the closed pipe then fails
    // with EPIPE instead, and train still publishes its checkpoint.
    std::signal(SIGPIPE, SIG_IGN);
    const util::CliArgs args(argc, argv);
    const std::string sub = args.subcommand();
    if (sub == "train")
        return cmdTrain(args);
    if (sub == "sample")
        return cmdSample(args);
    if (sub == "eval")
        return cmdEval(args);
    if (sub == "serve")
        return cmdServe(args);
    if (sub == "loadgen")
        return cmdLoadgen(args);
    if (sub == "serve-bench")
        return cmdServeBench(args);
    if (sub == "promote")
        return cmdPromote(args);
    if (sub == "list")
        return cmdList(args);
    if (sub.empty() || sub == "help" || args.helpRequested())
        return cmdHelp();
    util::fatal("isingrbm: unknown subcommand '" + sub +
                "' (run isingrbm help)");
}
