/**
 * @file
 * Workload train_cd: CD-1 training of a 784x500 binary RBM on the
 * synthetic MNIST generator through train::Session, publishing a
 * crash-safe checkpoint (tmp -> fsync -> rename -> fsync-dir) after
 * every epoch.  The unit of work is one epoch through its published
 * archive.
 *
 * Traced runs wrap the strategy in a forwarding decorator that times
 * runEpoch and snapshot + captureState from outside the library; the
 * rest of each epoch interval is the checkpoint write.
 */

#include <cstring>
#include <filesystem>
#include <memory>

#include "common.hpp"
#include "data/registry.hpp"
#include "exec/thread_pool.hpp"
#include "probes.hpp"
#include "train/strategies.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace ising;

constexpr std::size_t kVisible = 784;
constexpr std::size_t kHidden = 500;
constexpr std::size_t kTrainRows = 5000;
constexpr std::size_t kHeldOutRows = 256;
constexpr std::size_t kBatch = 50;
/** recon_err is taken after this many epochs, so it does not depend on
 *  how many epochs fit in the time budget. */
constexpr int kQualityEpochs = 2;
constexpr int kSetups = 3;

/**
 * Mean |v - reconstruction| over held-out rows, the reconstruction
 * being the mean-field down pass of the mean-field up pass.
 */
double
reconError(const rbm::Rbm &model, const data::Dataset &rows)
{
    linalg::Vector ph, pv;
    double acc = 0.0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const float *v = rows.sample(r);
        model.hiddenProbs(v, ph);
        model.visibleProbs(ph.data(), pv);
        for (std::size_t i = 0; i < rows.dim(); ++i)
            acc += std::abs(pv[i] - v[i]);
    }
    return acc / static_cast<double>(rows.size() * rows.dim());
}

/** Forwarding strategy that times the calls Session makes into it. */
class TimedStrategy final : public train::Strategy
{
  public:
    TimedStrategy(std::unique_ptr<train::Strategy> inner, Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    /** Attribute the following calls to epoch span @p span (0: none). */
    void
    beginEpoch(std::uint32_t span)
    {
        epochSpan_ = span;
        runSec_ = snapshotSec_ = 0.0;
    }

    double runSeconds() const { return runSec_; }
    double snapshotSeconds() const { return snapshotSec_; }

    rbm::ModelFamily family() const override { return inner_->family(); }

    void
    runEpoch(const train::EpochParams &params, util::Rng &rng) override
    {
        const double start = nowSec();
        inner_->runEpoch(params, rng);
        runSec_ += timed("train.run_epoch", start);
    }

    rbm::Checkpoint::Payload
    snapshot() const override
    {
        const double start = nowSec();
        rbm::Checkpoint::Payload payload = inner_->snapshot();
        snapshotSec_ += timed("train.snapshot", start);
        return payload;
    }

    void
    restoreModel(const rbm::Checkpoint::Payload &model) override
    {
        inner_->restoreModel(model);
    }

    void
    captureState(rbm::TrainState &state) const override
    {
        const double start = nowSec();
        inner_->captureState(state);
        snapshotSec_ += timed("train.capture_state", start);
    }

    bool
    restoreState(const rbm::TrainState &state, int epochsDone) override
    {
        return inner_->restoreState(state, epochsDone);
    }

    void
    observe(rbm::TrainingMonitor &monitor, int epoch,
            util::Rng &rng) const override
    {
        inner_->observe(monitor, epoch, rng);
    }

  private:
    /** Record a span under the current epoch; returns its seconds. */
    double
    timed(const char *name, double start) const
    {
        const double end = nowSec();
        if (epochSpan_ != 0)
            tracer_.record(name, start, end, epochSpan_);
        return epochSpan_ != 0 ? end - start : 0.0;
    }

    std::unique_ptr<train::Strategy> inner_;
    Tracer &tracer_;
    std::uint32_t epochSpan_ = 0;
    double runSec_ = 0.0;
    mutable double snapshotSec_ = 0.0;
};

/** Everything one training run holds; heap-pinned because the
 *  strategy keeps a reference to the training rows. */
struct TrainRig
{
    data::Dataset train;
    data::Dataset heldOut;
    rbm::Rbm untrained;
    TimedStrategy *timed = nullptr;  ///< traced runs only
    std::unique_ptr<train::Session> session;
};

std::unique_ptr<TrainRig>
setUp(const Options &options, const std::string &archive, Tracer &tracer)
{
    auto rig = std::make_unique<TrainRig>();
    rig->train = data::binarizeThreshold(
        data::makeBenchmarkData("MNIST", kTrainRows, options.seed));
    rig->heldOut = data::binarizeThreshold(data::makeBenchmarkData(
        "MNIST", kHeldOutRows, options.seed + 7919));

    util::Rng initRng(options.seed);
    rbm::Rbm model(kVisible, kHidden);
    model.initRandom(initRng);
    rig->untrained = model;

    train::TrainOptions trainOptions;
    trainOptions.trainer = train::Trainer::CdK;
    trainOptions.batchSize = kBatch;
    trainOptions.seed = options.seed;
    std::unique_ptr<train::Strategy> strategy =
        train::makeRbmStrategy(std::move(model), rig->train, trainOptions);
    if (tracer.enabled()) {
        auto timed =
            std::make_unique<TimedStrategy>(std::move(strategy), tracer);
        rig->timed = timed.get();
        strategy = std::move(timed);
    }

    train::SessionConfig config;
    config.schedule.epochs = 1 << 20;  // the time budget ends the run
    config.schedule.learningRate = train::Ramp(0.1);
    config.schedule.weightDecay = train::Ramp(
        train::defaultWeightDecay(rbm::ModelFamily::Rbm));
    config.seed = options.seed;
    config.name = "train_cd";
    config.backendTag = train::trainerName(train::Trainer::CdK);
    config.checkpointPath = archive;
    config.checkpointEvery = 1;
    rig->session = std::make_unique<train::Session>(std::move(strategy),
                                                    std::move(config));
    return rig;
}

bool
sameParameters(const rbm::Rbm &a, const rbm::Rbm &b)
{
    const auto same = [](const float *x, const float *y, std::size_t n) {
        return std::memcmp(x, y, n * sizeof(float)) == 0;
    };
    return a.numVisible() == b.numVisible() &&
           a.numHidden() == b.numHidden() &&
           same(a.weights().data(), b.weights().data(),
                a.weights().size()) &&
           same(a.visibleBias().data(), b.visibleBias().data(),
                a.numVisible()) &&
           same(a.hiddenBias().data(), b.hiddenBias().data(),
                a.numHidden());
}

} // namespace

void
runTrain(const Options &options, Result &result, Tracer &tracer)
{
    const std::string archive = options.workDir + "/train_cd.ckpt";

    // Set up several times; the median is setup_s, the last rig runs.
    std::vector<double> setups;
    std::unique_ptr<TrainRig> rig;
    for (int i = 0; i < kSetups; ++i) {
        rig.reset();
        const double start = nowSec();
        rig = setUp(options, archive, tracer);
        setups.push_back(nowSec() - start);
    }
    train::Session &session = *rig->session;

    std::vector<double> epochSec, runMs, snapshotMs, writeMs;
    double qualityErr = 0.0;
    const double begin = nowSec();
    while (epochSec.size() < static_cast<std::size_t>(kQualityEpochs) ||
           nowSec() - begin < options.seconds) {
        const std::uint32_t span = tracer.begin("train.epoch");
        if (rig->timed)
            rig->timed->beginEpoch(span);
        const double start = nowSec();
        session.run(session.epochsDone() + 1);
        const double seconds = nowSec() - start;
        tracer.end(span);
        epochSec.push_back(seconds);
        if (rig->timed) {
            const double run = rig->timed->runSeconds();
            const double snap = rig->timed->snapshotSeconds();
            runMs.push_back(run * 1e3);
            snapshotMs.push_back(snap * 1e3);
            writeMs.push_back((seconds - run - snap) * 1e3);
            rig->timed->beginEpoch(0);
        }
        if (session.epochsDone() == kQualityEpochs)
            qualityErr = reconError(
                std::get<rbm::Rbm>(session.strategy().snapshot()),
                rig->heldOut);
    }
    const std::size_t epochs = epochSec.size();
    result.attempted = epochs;

    // Output checks: the last published archive reloads through its
    // CRC-64 trailer, holds exactly the trained parameters, and both
    // the quality snapshot and the final model beat the untrained one.
    const rbm::Rbm trained =
        std::get<rbm::Rbm>(session.strategy().snapshot());
    std::string error;
    const auto loaded = rbm::tryLoadCheckpointFile(archive, &error);
    const double untrainedErr = reconError(rig->untrained, rig->heldOut);
    if (!loaded) {
        result.fail("final archive does not load: " + error);
    } else if (loaded->family() != rbm::ModelFamily::Rbm ||
               loaded->meta.epoch != session.epochsDone() ||
               !sameParameters(std::get<rbm::Rbm>(loaded->model),
                               trained)) {
        result.fail("final archive differs from the trained model");
    } else if (reconError(std::get<rbm::Rbm>(loaded->model),
                          rig->heldOut) >= untrainedErr) {
        result.fail("final model reconstructs no better than untrained");
    }
    if (!(qualityErr < untrainedErr))
        result.fail("recon_err " + std::to_string(qualityErr) +
                    " not below the untrained " +
                    std::to_string(untrainedErr));

    std::vector<double> sorted = epochSec;
    std::sort(sorted.begin(), sorted.end());
    double total = 0.0;
    for (const double s : epochSec)
        total += s;
    result.add("setup_s", median(setups), "s");
    result.add("gen.p50_ms", median(epochSec) * 1e3, "ms");
    result.add("gen.p99_ms", tailQuantile(sorted) * 1e3, "ms");
    result.add("goodput_per_s",
               static_cast<double>(epochs * kTrainRows) / total, "1/s");
    result.add("recon_err", qualityErr, "mae");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    stampHost(result, exec::globalPool().numWorkers(), 0);
    if (!tracer.enabled())
        return;

    // Per-layer: the epoch split, then kernel probes at the CD shape
    // (one minibatch of training rows through the trained model).
    result.add("train.run_epoch_ms", median(runMs), "ms");
    result.add("train.snapshot_ms", median(snapshotMs), "ms");
    result.add("train.ckpt_write_ms", median(writeMs), "ms");
    result.add("train.ckpt_bytes",
               static_cast<double>(fs::file_size(archive)), "bytes");
    linalg::BitMatrix batch(kBatch, kVisible);
    for (std::size_t r = 0; r < kBatch; ++r)
        batch.packRowFrom(r, rig->train.sample(r));
    double probeStart = nowSec();
    result.add("rbm.halfsweep_ns_per_row",
               halfsweepNsPerRow(trained, batch), "ns");
    tracer.record("probe.halfsweep", probeStart, nowSec());
    result.add("linalg.halfsweep_bytes",
               halfsweepBytes(kVisible, kHidden, kBatch), "bytes");
    probeStart = nowSec();
    result.add("linalg.reduce_us", reduceUs(trained, batch), "us");
    tracer.record("probe.reduce", probeStart, nowSec());
    probeStart = nowSec();
    result.add("exec.parallel_for_us", parallelForUs(), "us");
    tracer.record("probe.parallel_for", probeStart, nowSec());
    result.add("gen.latency_samples", static_cast<double>(epochs), "count");
}

} // namespace perfbench
