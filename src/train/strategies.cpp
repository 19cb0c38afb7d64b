/**
 * @file
 * Family strategy implementations.
 */

#include "train/strategies.hpp"

#include <algorithm>
#include <utility>

#include "accel/gibbs_sampler.hpp"
#include "accel/parallel_bgf.hpp"
#include "data/dataset.hpp"
#include "rbm/cd_trainer.hpp"
#include "util/logging.hpp"

namespace ising::train {

namespace {

// Stream salts keeping layer-entry and binarization randomness
// disjoint from the session's per-epoch streams.
constexpr std::uint64_t kDbnLayerSalt = 0x44424e4cull;     // "DBNL"
constexpr std::uint64_t kDbnBinarizeSalt = 0x44424e42ull;  // "DBNB"

machine::AnalogConfig
analogFor(const TrainOptions &options)
{
    machine::AnalogConfig cfg;
    cfg.noise = options.noise;
    cfg.idealComponents = options.idealComponents;
    cfg.variationSeed = options.seed * 7919 + 13;
    return cfg;
}

void
requireSupport(rbm::ModelFamily family, const TrainOptions &options)
{
    if (!supports(family, options.trainer))
        util::fatal("train: " +
                    unsupportedMessage(family, options.trainer));
}

// ------------------------------------------------------- RBM engines
//
// The per-layer gradient math behind the Rbm and Dbn strategies: one
// epoch over a dataset through cd, gs or bgf, plus state IO.  Engines
// borrow the Rbm they train and keep it current after every epoch.

class RbmEngine
{
  public:
    virtual ~RbmEngine() = default;
    virtual void runEpoch(const data::Dataset &train,
                          const EpochParams &params, util::Rng &rng) = 0;
    virtual void capture(rbm::TrainState &state,
                         const std::string &prefix) const = 0;
    virtual bool restore(const rbm::TrainState &state,
                         const std::string &prefix) = 0;
    /** Called after the borrowed model was overwritten (resume). */
    virtual void onModelRestored() {}
};

class CdEngine : public RbmEngine
{
  public:
    CdEngine(rbm::Rbm &model, const TrainOptions &options)
        : trainer_(model, configFor(options))
    {
    }

    void
    runEpoch(const data::Dataset &train, const EpochParams &params,
             util::Rng &rng) override
    {
        trainer_.setSchedule(params.learningRate, params.k,
                             params.momentum, params.weightDecay);
        trainer_.trainEpoch(train, rng);
    }

    void
    capture(rbm::TrainState &state,
            const std::string &prefix) const override
    {
        trainer_.captureState(state, prefix + "cd.");
    }

    bool
    restore(const rbm::TrainState &state,
            const std::string &prefix) override
    {
        return trainer_.restoreState(state, prefix + "cd.");
    }

  private:
    static rbm::CdConfig
    configFor(const TrainOptions &options)
    {
        rbm::CdConfig cfg;
        cfg.batchSize = options.batchSize;
        cfg.persistent = options.persistentCd;
        cfg.numParticles = options.cdParticles;
        cfg.pool = options.pool;
        return cfg;
    }

    rbm::CdTrainer trainer_;
};

class GsEngine : public RbmEngine
{
  public:
    GsEngine(rbm::Rbm &model, const TrainOptions &options)
        : accel_(model, configFor(options))
    {
    }

    void
    runEpoch(const data::Dataset &train, const EpochParams &params,
             util::Rng &rng) override
    {
        accel_.setSchedule(params.learningRate, params.k,
                           params.weightDecay);
        accel_.trainEpoch(train, rng);
    }

    // The GS substrate is stateless across epochs: the host model (in
    // the checkpoint payload) is the whole state, and the fabric's
    // fabrication lottery regenerates from the construction seed.
    void
    capture(rbm::TrainState &, const std::string &) const override
    {
    }

    bool
    restore(const rbm::TrainState &, const std::string &) override
    {
        return true;
    }

  private:
    static accel::GsConfig
    configFor(const TrainOptions &options)
    {
        accel::GsConfig cfg;
        cfg.batchSize = options.batchSize;
        cfg.analog = analogFor(options);
        return cfg;
    }

    accel::GibbsSamplerAccel accel_;
};

class BgfEngine : public RbmEngine
{
  public:
    BgfEngine(rbm::Rbm &model, const TrainOptions &options,
              std::uint64_t stream)
        : model_(model), rootSeed_(options.seed + stream),
          fleet_(model.numVisible(), model.numHidden(), configFor(options))
    {
        fleet_.initialize(model_);
    }

    void
    runEpoch(const data::Dataset &train, const EpochParams &params,
             util::Rng &rng) override
    {
        // The fleet derives every stream from (rootSeed, epoch); the
        // session's epoch rng is unused here.  Pump step and anneal
        // depth are fabric properties, so the lr/k ramps do not apply.
        (void)rng;
        fleet_.trainEpoch(train, rootSeed_, params.epoch);
        // Keep the borrowed host model current: snapshot() and the
        // monitor read it.  meanModel() is a pure readout.
        model_ = fleet_.meanModel();
    }

    void
    capture(rbm::TrainState &state,
            const std::string &prefix) const override
    {
        fleet_.captureState(state, prefix + "bgf.");
    }

    bool
    restore(const rbm::TrainState &state,
            const std::string &prefix) override
    {
        return fleet_.restoreState(state, prefix + "bgf.");
    }

    void
    onModelRestored() override
    {
        // Fallback programming (quantized); an exact raw-state restore
        // follows when the checkpoint carries the train section.
        fleet_.initialize(model_);
    }

  private:
    accel::ParallelBgfConfig
    configFor(const TrainOptions &options)
    {
        accel::ParallelBgfConfig cfg;
        cfg.numReplicas = std::max<std::size_t>(1, options.bgfReplicas);
        cfg.pool = options.pool;
        cfg.replica.learningRate = options.bgfPumpStep;
        cfg.replica.annealSteps = options.bgfAnnealSteps;
        cfg.replica.numParticles = options.bgfParticles;
        cfg.replica.analog = analogFor(options);
        return cfg;
    }

    rbm::Rbm &model_;
    std::uint64_t rootSeed_;
    accel::ParallelBgf fleet_;
};

/** @p stream keeps each DBN layer's BGF fleet seed distinct. */
std::unique_ptr<RbmEngine>
makeEngine(rbm::Rbm &model, const TrainOptions &options,
           std::uint64_t stream)
{
    switch (options.trainer) {
      case Trainer::CdK:
        return std::make_unique<CdEngine>(model, options);
      case Trainer::GibbsSampler:
        return std::make_unique<GsEngine>(model, options);
      case Trainer::Bgf:
        return std::make_unique<BgfEngine>(model, options, stream);
    }
    util::fatal("train: unknown trainer");
}

// ------------------------------------------------------ RbmStrategy

class RbmStrategy : public Strategy
{
  public:
    RbmStrategy(rbm::Rbm model, const data::Dataset &train,
                const TrainOptions &options)
        : model_(std::move(model)), train_(train),
          engine_(makeEngine(model_, options, 0))
    {
    }

    rbm::ModelFamily family() const override
    {
        return rbm::ModelFamily::Rbm;
    }

    void
    runEpoch(const EpochParams &params, util::Rng &rng) override
    {
        engine_->runEpoch(train_, params, rng);
    }

    rbm::Checkpoint::Payload snapshot() const override { return model_; }

    void
    restoreModel(const rbm::Checkpoint::Payload &model) override
    {
        model_ = std::get<rbm::Rbm>(model);
        engine_->onModelRestored();
    }

    void
    captureState(rbm::TrainState &state) const override
    {
        engine_->capture(state, "");
    }

    bool
    restoreState(const rbm::TrainState &state, int) override
    {
        return engine_->restore(state, "");
    }

    void
    observe(rbm::TrainingMonitor &monitor, int epoch,
            util::Rng &rng) const override
    {
        monitor.observe(epoch, model_, rng);
    }

  private:
    rbm::Rbm model_;
    const data::Dataset &train_;
    std::unique_ptr<RbmEngine> engine_;
};

// ------------------------------------------------- ClassRbmStrategy

class ClassRbmStrategy : public Strategy
{
  public:
    ClassRbmStrategy(rbm::ClassRbm model, const data::Dataset &train,
                     const TrainOptions &options)
        : model_(std::move(model)), train_(train),
          batchSize_(options.batchSize)
    {
    }

    rbm::ModelFamily family() const override
    {
        return rbm::ModelFamily::ClassRbm;
    }

    void
    runEpoch(const EpochParams &params, util::Rng &rng) override
    {
        rbm::ClassRbmConfig cfg;
        cfg.learningRate = params.learningRate;
        cfg.k = params.k;
        cfg.batchSize = batchSize_;
        cfg.weightDecay = params.weightDecay;
        model_.trainEpoch(train_, cfg, rng);
    }

    rbm::Checkpoint::Payload snapshot() const override { return model_; }

    void
    restoreModel(const rbm::Checkpoint::Payload &model) override
    {
        model_ = std::get<rbm::ClassRbm>(model);
    }

    void
    observe(rbm::TrainingMonitor &monitor, int epoch,
            util::Rng &) const override
    {
        const data::Dataset &sample = monitor.trainSample();
        const double errorRate =
            sample.labels.empty() ? 0.0 : 1.0 - model_.accuracy(sample);
        monitor.observeWeights(epoch, -1, model_.joint().weights(),
                               errorRate);
    }

  private:
    rbm::ClassRbm model_;
    const data::Dataset &train_;
    std::size_t batchSize_;
};

// --------------------------------------------------- CfRbmStrategy

class CfRbmStrategy : public Strategy
{
  public:
    CfRbmStrategy(rbm::CfRbm model, const data::RatingData &corpus,
                  const TrainOptions &options)
        : model_(std::move(model)), corpus_(corpus),
          index_(model_.itemIndex(corpus))  // immutable across epochs
    {
        baseConfig_.k = 1;
        if (options.trainer == Trainer::Bgf) {
            rbm::CfHardwareMode hw;
            hw.noise = options.noise;
            hw.variationSeed = options.seed * 7919 + 13;
            baseConfig_.hardware = hw;
        }
    }

    rbm::ModelFamily family() const override
    {
        return rbm::ModelFamily::CfRbm;
    }

    void
    runEpoch(const EpochParams &params, util::Rng &rng) override
    {
        rbm::CfConfig cfg = baseConfig_;
        cfg.learningRate = params.learningRate;
        cfg.k = params.k;
        cfg.weightDecay = params.weightDecay;
        model_.trainEpoch(corpus_, index_, cfg, rng);
    }

    rbm::Checkpoint::Payload snapshot() const override { return model_; }

    void
    restoreModel(const rbm::Checkpoint::Payload &model) override
    {
        model_ = std::get<rbm::CfRbm>(model);
    }

    void
    observe(rbm::TrainingMonitor &monitor, int epoch,
            util::Rng &) const override
    {
        monitor.observeWeights(epoch, -1, model_.weights(),
                               model_.testMae(corpus_));
    }

  private:
    rbm::CfRbm model_;
    const data::RatingData &corpus_;
    rbm::CfRbm::ItemIndex index_;
    rbm::CfConfig baseConfig_;
};

// -------------------------------------------------- ConvRbmStrategy

class ConvRbmStrategy : public Strategy
{
  public:
    ConvRbmStrategy(rbm::ConvRbm model, const data::Dataset &train)
        : model_(std::move(model)), train_(train)
    {
    }

    rbm::ModelFamily family() const override
    {
        return rbm::ModelFamily::ConvRbm;
    }

    void
    runEpoch(const EpochParams &params, util::Rng &rng) override
    {
        model_.config().learningRate = params.learningRate;
        model_.config().weightDecay = params.weightDecay;
        model_.trainEpoch(train_, rng);
    }

    rbm::Checkpoint::Payload snapshot() const override { return model_; }

    void
    restoreModel(const rbm::Checkpoint::Payload &model) override
    {
        model_ = std::get<rbm::ConvRbm>(model);
    }

    void
    observe(rbm::TrainingMonitor &monitor, int epoch,
            util::Rng &) const override
    {
        monitor.observeWeights(
            epoch, -1, model_.filters(),
            model_.reconstructionError(monitor.trainSample()));
    }

  private:
    rbm::ConvRbm model_;
    const data::Dataset &train_;
};

// ------------------------------------------------------ DbnStrategy

class DbnStrategy : public Strategy
{
  public:
    DbnStrategy(rbm::Dbn model, const data::Dataset &train,
                const TrainOptions &options, int epochsPerLayer)
        : model_(std::move(model)), train_(train), options_(options),
          epochsPerLayer_(std::max(1, epochsPerLayer))
    {
    }

    rbm::ModelFamily family() const override
    {
        return rbm::ModelFamily::Dbn;
    }

    void
    runEpoch(const EpochParams &params, util::Rng &rng) override
    {
        const int layer = layerOf(params.epoch);
        if (layer != currentLayer_)
            enterLayer(layer);
        EpochParams local = params;
        local.epoch = params.epoch - layer * epochsPerLayer_;
        engine_->runEpoch(*active_, local, rng);
    }

    rbm::Checkpoint::Payload snapshot() const override { return model_; }

    void
    restoreModel(const rbm::Checkpoint::Payload &model) override
    {
        model_ = std::get<rbm::Dbn>(model);
        currentLayer_ = -1;  // forces re-entry (layer data, engine)
        engine_.reset();
    }

    void
    captureState(rbm::TrainState &state) const override
    {
        // Persisted so a resume cannot silently remap epochs onto the
        // wrong layers when --epochs changes between runs.
        state.setCounter("dbn.epochs_per_layer",
                         static_cast<std::uint64_t>(epochsPerLayer_));
        if (engine_)
            engine_->capture(state, layerPrefix(currentLayer_));
    }

    bool
    restoreState(const rbm::TrainState &state, int epochsDone) override
    {
        if (const std::uint64_t *perLayer =
                state.counter("dbn.epochs_per_layer"))
            if (*perLayer != static_cast<std::uint64_t>(epochsPerLayer_))
                util::fatal(
                    "train: dbn checkpoint was trained at " +
                    std::to_string(*perLayer) +
                    " epochs per layer, this session at " +
                    std::to_string(epochsPerLayer_) +
                    " (pass the original --epochs on resume)");
        if (epochsDone <= 0 ||
            epochsDone >= epochsPerLayer_ *
                              static_cast<int>(model_.numLayers()))
            return true;  // nothing mid-flight to restore
        const int layer = epochsDone / epochsPerLayer_;
        enterLayer(layer);
        if (epochsDone % epochsPerLayer_ == 0)
            return true;  // the layer starts fresh next epoch
        return engine_->restore(state, layerPrefix(layer));
    }

    void
    observe(rbm::TrainingMonitor &monitor, int epoch,
            util::Rng &rng) const override
    {
        const int trained = std::min(layerOf(epoch),
                                     static_cast<int>(model_.numLayers()) - 1);
        // Layer 0 matches the monitor's datasets: full record.  Upper
        // layers contribute weight statistics.
        monitor.observe(epoch, 0, model_.layer(0), rng);
        for (int l = 1; l <= trained; ++l)
            monitor.observeWeights(epoch, l,
                                   model_.layer(l).weights(), 0.0);
    }

  private:
    int
    layerOf(int epoch) const
    {
        const int layer = epoch / epochsPerLayer_;
        const int top = static_cast<int>(model_.numLayers()) - 1;
        return layer > top ? top : layer;
    }

    static std::string
    layerPrefix(int layer)
    {
        return "dbn.l" + std::to_string(layer) + ".";
    }

    void
    enterLayer(int layer)
    {
        // Layer data: propagated mean activations, binarized through a
        // pure (seed, layer) stream so resume rebuilds the same bits.
        if (layer == 0) {
            active_ = &train_;
        } else {
            util::Rng binRng = util::Rng::stream(
                options_.seed ^ kDbnBinarizeSalt,
                static_cast<std::uint64_t>(layer));
            layerData_ = data::binarize(
                model_.transform(train_, static_cast<std::size_t>(layer)),
                binRng);
            active_ = &layerData_;
        }
        engine_ = makeEngine(model_.layer(layer), options_,
                             kDbnLayerSalt + static_cast<std::uint64_t>(layer));
        currentLayer_ = layer;
    }

    rbm::Dbn model_;
    const data::Dataset &train_;
    TrainOptions options_;
    int epochsPerLayer_;

    int currentLayer_ = -1;
    data::Dataset layerData_;
    const data::Dataset *active_ = nullptr;
    std::unique_ptr<RbmEngine> engine_;
};

// ------------------------------------------------------ DbmStrategy

class DbmStrategy : public Strategy
{
  public:
    DbmStrategy(rbm::Dbm model, const data::Dataset &train,
                const rbm::DbmConfig &config)
        : model_(std::move(model)), train_(train), config_(config)
    {
    }

    rbm::ModelFamily family() const override
    {
        return rbm::ModelFamily::Dbm;
    }

    void
    runEpoch(const EpochParams &params, util::Rng &rng) override
    {
        rbm::DbmConfig cfg = config_;
        cfg.learningRate = params.learningRate;
        cfg.weightDecay = params.weightDecay;
        cfg.gibbsStepsPerUpdate = params.k;
        // Greedy pre-training is part of epoch 0, so a resumed session
        // (model restored from the archive) never repeats it.
        if (params.epoch == 0)
            model_.pretrain(train_, cfg, rng);
        model_.trainEpoch(train_, cfg, rng);
    }

    rbm::Checkpoint::Payload snapshot() const override { return model_; }

    void
    restoreModel(const rbm::Checkpoint::Payload &model) override
    {
        model_ = std::get<rbm::Dbm>(model);
    }

    void
    captureState(rbm::TrainState &state) const override
    {
        model_.captureChains(state, "dbm.");
    }

    bool
    restoreState(const rbm::TrainState &state, int epochsDone) override
    {
        if (epochsDone <= 0)
            return true;  // chains materialize during epoch 0
        return model_.restoreChains(state, "dbm.");
    }

    void
    observe(rbm::TrainingMonitor &monitor, int epoch,
            util::Rng &) const override
    {
        monitor.observeWeights(
            epoch, 0, model_.w1(),
            model_.reconstructionError(monitor.trainSample(),
                                       config_.meanFieldIters));
        monitor.observeWeights(epoch, 1, model_.w2(), 0.0);
    }

  private:
    rbm::Dbm model_;
    const data::Dataset &train_;
    rbm::DbmConfig config_;
};

} // namespace

double
defaultWeightDecay(rbm::ModelFamily family)
{
    switch (family) {
      case rbm::ModelFamily::Rbm: return 0.0;
      case rbm::ModelFamily::ClassRbm: return 2e-4;
      case rbm::ModelFamily::CfRbm: return 1e-3;
      case rbm::ModelFamily::ConvRbm: return 1e-4;
      case rbm::ModelFamily::Dbn: return 0.0;
      case rbm::ModelFamily::Dbm: return 1e-3;
    }
    return 0.0;
}

std::unique_ptr<Strategy>
makeRbmStrategy(rbm::Rbm model, const data::Dataset &train,
                const TrainOptions &options)
{
    requireSupport(rbm::ModelFamily::Rbm, options);
    return std::make_unique<RbmStrategy>(std::move(model), train,
                                         options);
}

std::unique_ptr<Strategy>
makeClassRbmStrategy(rbm::ClassRbm model, const data::Dataset &train,
                     const TrainOptions &options)
{
    requireSupport(rbm::ModelFamily::ClassRbm, options);
    if (train.labels.empty())
        util::fatal("train: class_rbm requires labeled data");
    return std::make_unique<ClassRbmStrategy>(std::move(model), train,
                                              options);
}

std::unique_ptr<Strategy>
makeCfRbmStrategy(rbm::CfRbm model, const data::RatingData &corpus,
                  const TrainOptions &options)
{
    requireSupport(rbm::ModelFamily::CfRbm, options);
    if (model.numUsers() != corpus.numUsers ||
        model.numStars() != corpus.numStars)
        util::fatal("train: cf_rbm model is sized for " +
                    std::to_string(model.numUsers()) + " users x " +
                    std::to_string(model.numStars()) +
                    " stars, but the corpus has " +
                    std::to_string(corpus.numUsers) + " x " +
                    std::to_string(corpus.numStars) +
                    " (pass the original --users/--items on resume)");
    return std::make_unique<CfRbmStrategy>(std::move(model), corpus,
                                           options);
}

std::unique_ptr<Strategy>
makeConvRbmStrategy(rbm::ConvRbm model, const data::Dataset &train,
                    const TrainOptions &options)
{
    requireSupport(rbm::ModelFamily::ConvRbm, options);
    const std::size_t side = model.config().imageSide;
    if (train.dim() != side * side)
        util::fatal("train: conv_rbm expects " + std::to_string(side) +
                    "x" + std::to_string(side) + " images, got dim " +
                    std::to_string(train.dim()));
    return std::make_unique<ConvRbmStrategy>(std::move(model), train);
}

std::unique_ptr<Strategy>
makeDbnStrategy(rbm::Dbn model, const data::Dataset &train,
                const TrainOptions &options, int epochsPerLayer)
{
    requireSupport(rbm::ModelFamily::Dbn, options);
    return std::make_unique<DbnStrategy>(std::move(model), train,
                                         options, epochsPerLayer);
}

std::unique_ptr<Strategy>
makeDbmStrategy(rbm::Dbm model, const data::Dataset &train,
                const TrainOptions &options, const rbm::DbmConfig &config)
{
    requireSupport(rbm::ModelFamily::Dbm, options);
    (void)options;
    return std::make_unique<DbmStrategy>(std::move(model), train,
                                         config);
}

} // namespace ising::train
