/**
 * @file
 * The unified training runtime: a type-erased Session that owns the
 * epoch loop for every model family.
 *
 * Mirroring how engine::Model unified *serving* across the six
 * families, train::Session unifies *training*: the epoch iteration,
 * hyper-parameter schedule, RNG threading, monitoring hooks and
 * periodic v2 checkpointing live here once, and family code
 * contributes only its gradient math through the Strategy interface.
 *
 * Determinism contract (tested per family at worker counts 1 and 4):
 * epoch e draws exclusively from util::Rng::stream(seed, e), and all
 * cross-epoch state (PCD particles, DBM chains, momentum buffers,
 * fabric voltages) round-trips through the checkpoint's train-state
 * section.  Training N epochs in one run is therefore bit-identical
 * to training k epochs, checkpointing, and resuming for N-k: the two
 * final archives match byte for byte.
 */

#ifndef ISINGRBM_TRAIN_SESSION_HPP
#define ISINGRBM_TRAIN_SESSION_HPP

#include <functional>
#include <memory>
#include <string>

#include "rbm/monitor.hpp"
#include "rbm/serialize.hpp"
#include "train/schedule.hpp"

namespace ising::train {

/** Training engines a session can schedule. */
enum class Trainer { CdK, GibbsSampler, Bgf };

/** CLI/checkpoint-meta tag of a trainer ("cd", "gs", "bgf"). */
const char *trainerName(Trainer trainer);

/** Parse a trainer spelling ("cd" | "gs" | "bgf"); fatal on unknown. */
Trainer trainerFromName(const std::string &name);

/** True when @p family can be trained by @p trainer. */
bool supports(rbm::ModelFamily family, Trainer trainer);

/** Comma-separated trainer tags a family supports ("cd, gs, bgf"). */
std::string supportedTrainerNames(rbm::ModelFamily family);

/**
 * The generated unsupported-combination diagnostic, shared by every
 * caller so the message never drifts per family again.
 */
std::string unsupportedMessage(rbm::ModelFamily family, Trainer trainer);

/**
 * What a family implements: one epoch of gradient math plus state IO.
 * A strategy is bound to its model and training data at construction;
 * the session owns iteration, schedule and persistence.
 */
class Strategy
{
  public:
    virtual ~Strategy() = default;

    /** Family persisted by snapshot(). */
    virtual rbm::ModelFamily family() const = 0;

    /** One full pass over the bound training data. */
    virtual void runEpoch(const EpochParams &params, util::Rng &rng) = 0;

    /** Copy of the current model as a checkpoint payload. */
    virtual rbm::Checkpoint::Payload snapshot() const = 0;

    /** Replace the model from a checkpoint payload (resume). */
    virtual void restoreModel(const rbm::Checkpoint::Payload &model) = 0;

    /** Persist cross-epoch state; default: stateless. */
    virtual void
    captureState(rbm::TrainState &state) const
    {
        (void)state;
    }

    /**
     * Restore captured state.  Returns false when expected state was
     * absent (the session warns: chains re-initialize on the next
     * epoch); stateless families return true.
     */
    virtual bool
    restoreState(const rbm::TrainState &state, int epochsDone)
    {
        (void)state;
        (void)epochsDone;
        return true;
    }

    /** Contribute per-epoch diagnostics; default: nothing. */
    virtual void
    observe(rbm::TrainingMonitor &monitor, int epoch,
            util::Rng &rng) const
    {
        (void)monitor;
        (void)epoch;
        (void)rng;
    }
};

/** Session knobs beyond the schedule. */
struct SessionConfig
{
    Schedule schedule;
    std::uint64_t seed = 1;
    std::string name;        ///< stamped into checkpoint meta ("" ok)
    std::string backendTag;  ///< checkpoint meta.backend ("cd", ...)

    /** Checkpoint archive path ("" disables persistence). */
    std::string checkpointPath;
    /** Periodic save cadence in epochs (0 = final snapshot only). */
    int checkpointEvery = 0;
    /** Observed after every epoch when set (borrowed). */
    rbm::TrainingMonitor *monitor = nullptr;

    /**
     * Early stopping: when positive and a monitor is set, the run
     * stops (and checkpoints) as soon as the monitor's held-out
     * free-energy gap has grown for this many consecutive epochs.
     * The stop epoch is recorded in the checkpoint meta, so resuming
     * an early-stopped archive is a no-op rather than a restart.
     */
    int earlyStopPatience = 0;

    /** Called after every completed epoch (0-based index). */
    std::function<void(int epoch, class Session &session)> onEpoch;
};

/** The type-erased epoch loop. */
class Session
{
  public:
    Session(std::unique_ptr<Strategy> strategy, SessionConfig config);

    const SessionConfig &config() const { return config_; }
    Strategy &strategy() { return *strategy_; }
    const Strategy &strategy() const { return *strategy_; }

    /** Epochs completed so far (resume sets this from the archive). */
    int epochsDone() const { return epochsDone_; }

    /** Epoch the run early-stopped at; -1 while never stopped. */
    int earlyStopEpoch() const { return earlyStopEpoch_; }

    /**
     * Adopt a checkpoint: model payload, completed-epoch count and
     * persistent chain state.  The checkpoint's seed must match the
     * session's (construction-time draws already used it).  Missing
     * train state warns and falls back to re-initialized chains.
     */
    void resume(const rbm::Checkpoint &ckpt);

    /**
     * Run epochs [epochsDone, schedule.epochs).  Epoch e draws from
     * util::Rng::stream(seed, e); periodic checkpoints per config;
     * a final checkpoint is always written when a path is set.
     */
    void run();

    /**
     * Interrupted run: stop after epoch upToEpoch even though the
     * schedule continues (ramps keep their full-schedule shape, which
     * is what makes a later resume bit-identical to never stopping).
     */
    void run(int upToEpoch);

    /** Current state as a checkpoint (model + meta + train state). */
    rbm::Checkpoint checkpoint() const;

    /** The epoch-e training stream (exposed for tests/tools). */
    static util::Rng epochRng(std::uint64_t seed, int epoch);

  private:
    void save() const;

    std::unique_ptr<Strategy> strategy_;
    SessionConfig config_;
    int epochsDone_ = 0;
    int earlyStopEpoch_ = -1;  ///< set once the monitor stops the run
};

} // namespace ising::train

#endif // ISINGRBM_TRAIN_SESSION_HPP
