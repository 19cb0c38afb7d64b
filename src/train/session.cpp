/**
 * @file
 * Session implementation: the one epoch loop, plus the family/trainer
 * capability table the CLI queries.
 */

#include "train/session.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/logging.hpp"

namespace ising::train {

const char *
trainerName(Trainer trainer)
{
    switch (trainer) {
      case Trainer::CdK: return "cd";
      case Trainer::GibbsSampler: return "gs";
      case Trainer::Bgf: return "bgf";
    }
    util::fatal("train: unknown trainer");
}

Trainer
trainerFromName(const std::string &name)
{
    for (const Trainer trainer :
         {Trainer::CdK, Trainer::GibbsSampler, Trainer::Bgf})
        if (name == trainerName(trainer))
            return trainer;
    util::fatal("train: unknown trainer '" + name +
                "' (use cd, gs or bgf)");
}

namespace {

/**
 * The family x trainer capability table.  cf_rbm's "bgf" row is its
 * hardware mode (per-event charge-pump updates through the emulated
 * substrate); families without a flat binary-visible layer cannot run
 * on the sampling substrates at all.
 */
struct CapabilityRow
{
    rbm::ModelFamily family;
    bool cd, gs, bgf;
};

constexpr CapabilityRow kCapabilities[] = {
    {rbm::ModelFamily::Rbm, true, true, true},
    {rbm::ModelFamily::ClassRbm, true, false, false},
    {rbm::ModelFamily::CfRbm, true, false, true},
    {rbm::ModelFamily::ConvRbm, true, false, false},
    {rbm::ModelFamily::Dbn, true, true, true},
    {rbm::ModelFamily::Dbm, true, false, false},
};

const CapabilityRow &
rowFor(rbm::ModelFamily family)
{
    for (const CapabilityRow &row : kCapabilities)
        if (row.family == family)
            return row;
    util::fatal("train: family missing from the capability table");
}

// Checkpoint-write retry budget and its capped linear backoff.
constexpr int kSaveAttempts = 3;
constexpr int kSaveRetryBackoffMs = 50;
constexpr int kSaveRetryBackoffMaxMs = 1000;

} // namespace

bool
supports(rbm::ModelFamily family, Trainer trainer)
{
    const CapabilityRow &row = rowFor(family);
    switch (trainer) {
      case Trainer::CdK: return row.cd;
      case Trainer::GibbsSampler: return row.gs;
      case Trainer::Bgf: return row.bgf;
    }
    return false;
}

std::string
supportedTrainerNames(rbm::ModelFamily family)
{
    std::string out;
    for (const Trainer trainer :
         {Trainer::CdK, Trainer::GibbsSampler, Trainer::Bgf}) {
        if (!supports(family, trainer))
            continue;
        out += out.empty() ? "" : ", ";
        out += trainerName(trainer);
    }
    return out;
}

std::string
unsupportedMessage(rbm::ModelFamily family, Trainer trainer)
{
    return std::string("family '") + rbm::familyTag(family) +
           "' does not support trainer '" + trainerName(trainer) +
           "' (supported: " + supportedTrainerNames(family) + ")";
}

Session::Session(std::unique_ptr<Strategy> strategy, SessionConfig config)
    : strategy_(std::move(strategy)), config_(std::move(config))
{
    if (!strategy_)
        util::fatal("session: null strategy");
}

util::Rng
Session::epochRng(std::uint64_t seed, int epoch)
{
    return util::Rng::stream(seed, static_cast<std::uint64_t>(epoch));
}

rbm::Checkpoint
Session::checkpoint() const
{
    rbm::Checkpoint ckpt;
    ckpt.meta.name = config_.name;
    ckpt.meta.backend = config_.backendTag;
    ckpt.meta.seed = config_.seed;
    ckpt.meta.epoch = epochsDone_;
    ckpt.meta.earlyStopEpoch = earlyStopEpoch_;
    ckpt.model = strategy_->snapshot();
    rbm::TrainState state;
    strategy_->captureState(state);
    if (!state.empty())
        ckpt.train = std::move(state);
    return ckpt;
}

void
Session::save() const
{
    // A continuously training session should survive a transient write
    // failure (full disk clearing up, a hiccuping network filesystem):
    // retry with a capped growing backoff, and only the *final*
    // attempt's failure is allowed to take the process down.  The
    // publish is atomic underneath (tmp + fsync + rename), so a failed
    // attempt never leaves a torn archive behind.
    const rbm::Checkpoint ckpt = checkpoint();
    for (int attempt = 1; attempt < kSaveAttempts; ++attempt) {
        try {
            util::FatalThrowScope scope;
            rbm::saveCheckpoint(ckpt, config_.checkpointPath);
            return;
        } catch (const util::FatalError &e) {
            const int backoffMs = std::min(attempt * kSaveRetryBackoffMs,
                                           kSaveRetryBackoffMaxMs);
            util::warn(util::strcat("session: checkpoint save attempt ",
                                    attempt, "/", kSaveAttempts,
                                    " failed (retrying in ", backoffMs,
                                    " ms): ", e.what()));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffMs));
        }
    }
    rbm::saveCheckpoint(ckpt, config_.checkpointPath);
}

void
Session::resume(const rbm::Checkpoint &ckpt)
{
    if (ckpt.family() != strategy_->family())
        util::fatal(std::string("session: cannot resume a '") +
                    rbm::familyTag(ckpt.family()) + "' checkpoint into a '" +
                    rbm::familyTag(strategy_->family()) + "' session");
    if (ckpt.meta.seed != config_.seed)
        util::fatal("session: resume seed mismatch (checkpoint "
                    "trained with a different --seed; construction-time "
                    "randomness already diverged)");
    if (ckpt.meta.epoch > config_.schedule.epochs)
        util::warn("session: checkpoint already has " +
                   std::to_string(ckpt.meta.epoch) +
                   " epochs, beyond the scheduled " +
                   std::to_string(config_.schedule.epochs));

    strategy_->restoreModel(ckpt.model);
    epochsDone_ = ckpt.meta.epoch;
    earlyStopEpoch_ = ckpt.meta.earlyStopEpoch;

    static const rbm::TrainState kEmpty;
    const rbm::TrainState &state = ckpt.train ? *ckpt.train : kEmpty;
    if (!strategy_->restoreState(state, epochsDone_))
        util::warn("session: checkpoint carries no persistent-chain "
                   "state; chains re-initialize (resume will not be "
                   "bit-identical to an uninterrupted run)");
}

void
Session::run()
{
    run(config_.schedule.epochs);
}

void
Session::run(int upToEpoch)
{
    // An early-stopped archive is a finished run: resuming it must
    // not restart the epoch loop (the stop epoch rode in the meta).
    if (earlyStopEpoch_ >= 0) {
        util::warn("session: checkpoint early-stopped at epoch " +
                   std::to_string(earlyStopEpoch_) +
                   "; resume is a no-op (start a fresh run to train "
                   "further)");
        return;
    }

    const Schedule &schedule = config_.schedule;
    const int last = std::min(upToEpoch, schedule.epochs);
    bool saved = false;
    for (int e = epochsDone_; e < last; ++e) {
        util::Rng rng = epochRng(config_.seed, e);
        strategy_->runEpoch(schedule.at(e), rng);
        epochsDone_ = e + 1;

        if (config_.monitor) {
            // The monitor draws from its own stream so switching it
            // on or off cannot perturb the training trajectory.
            util::Rng monitorRng =
                util::Rng::stream(config_.seed ^ 0x4d4f4e49544f52ull, e);
            strategy_->observe(*config_.monitor, e, monitorRng);
        }
        if (config_.onEpoch)
            config_.onEpoch(e, *this);

        if (config_.monitor && config_.earlyStopPatience > 0 &&
            config_.monitor->overfittingDetected(
                config_.earlyStopPatience)) {
            earlyStopEpoch_ = epochsDone_;
            util::warn("session: early stop at epoch " +
                       std::to_string(epochsDone_) +
                       " (held-out free-energy gap grew for " +
                       std::to_string(config_.earlyStopPatience) +
                       " epochs)");
            if (!config_.checkpointPath.empty())
                save();
            return;
        }

        saved = false;
        if (!config_.checkpointPath.empty()) {
            const bool last = epochsDone_ == schedule.epochs;
            if (last || (config_.checkpointEvery > 0 &&
                         epochsDone_ % config_.checkpointEvery == 0)) {
                save();
                saved = true;
            }
        }
    }
    // Sessions that were already complete (or scheduled zero epochs)
    // still leave an archive behind when one was requested.
    if (!config_.checkpointPath.empty() && !saved)
        save();
}

} // namespace ising::train
