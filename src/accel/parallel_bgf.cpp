/**
 * @file
 * Data-parallel BGF implementation.
 */

#include "accel/parallel_bgf.hpp"

#include <numeric>

#include "exec/parallel_for.hpp"
#include "linalg/ops.hpp"

namespace ising::accel {

ParallelBgf::ParallelBgf(std::size_t numVisible, std::size_t numHidden,
                         const ParallelBgfConfig &config)
    : config_(config)
{
    const std::size_t r = std::max<std::size_t>(1, config.numReplicas);
    machines_.reserve(r);
    for (std::size_t i = 0; i < r; ++i) {
        BgfConfig replicaCfg = config.replica;
        // Each replica is a distinct die: its own fabrication lottery.
        replicaCfg.analog.variationSeed =
            config.replica.analog.variationSeed + i * 7919;
        machines_.push_back(std::make_unique<BoltzmannGradientFollower>(
            numVisible, numHidden, replicaCfg));
    }
}

void
ParallelBgf::initialize(const rbm::Rbm &initial)
{
    for (auto &machine : machines_)
        machine->initialize(initial);
}

void
ParallelBgf::streamShards(const data::Dataset &train,
                          const std::vector<std::size_t> &order,
                          std::uint64_t epochSeed)
{
    const std::size_t r = machines_.size();
    exec::ThreadPool &pool =
        config_.pool ? *config_.pool : exec::globalPool();
    // Replica m only touches machines_[m] and its own stream, and
    // consumes the same sample sequence a serial round-robin would,
    // so the result is schedule-independent.
    exec::parallelFor(pool, r, [&](std::size_t m) {
        util::Rng rng = util::Rng::stream(epochSeed, m);
        for (std::size_t i = m; i < order.size(); i += r)
            machines_[m]->trainSample(train.sample(order[i]), rng);
    });
}

void
ParallelBgf::trainEpoch(const data::Dataset &train,
                        std::uint64_t rootSeed, int epoch)
{
    const std::size_t r = machines_.size();
    // Every stream this epoch uses is a pure function of
    // (rootSeed, epoch): replica i draws from stream i and the shard
    // shuffle from stream r, so neither call history nor worker count
    // can change the bits.
    util::Rng root = util::Rng::stream(
        rootSeed, static_cast<std::uint64_t>(epoch));
    const std::uint64_t epochSeed = root.next();
    util::Rng orderRng = util::Rng::stream(epochSeed, r);

    std::vector<std::size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);
    orderRng.shuffle(order.data(), order.size());
    streamShards(train, order, epochSeed);

    if (config_.syncEveryEpochs > 0 &&
        (epoch + 1) % config_.syncEveryEpochs == 0)
        synchronize();
}

void
ParallelBgf::synchronize()
{
    if (machines_.size() == 1)
        return;
    const rbm::Rbm mean = meanModel();
    for (auto &machine : machines_)
        machine->reprogram(mean);  // particles survive the sync
}

rbm::Rbm
ParallelBgf::meanModel() const
{
    rbm::Rbm mean = machines_[0]->readOut();
    for (std::size_t i = 1; i < machines_.size(); ++i) {
        const rbm::Rbm other = machines_[i]->readOut();
        linalg::axpy(1.0f, other.weights(), mean.weights());
        linalg::axpy(1.0f, other.visibleBias(), mean.visibleBias());
        linalg::axpy(1.0f, other.hiddenBias(), mean.hiddenBias());
    }
    const float inv = 1.0f / static_cast<float>(machines_.size());
    const auto scale = [inv](float x) { return x * inv; };
    linalg::apply(mean.weights(), scale);
    linalg::apply(mean.visibleBias(), scale);
    linalg::apply(mean.hiddenBias(), scale);
    return mean;
}

void
ParallelBgf::captureState(rbm::TrainState &state,
                          const std::string &prefix) const
{
    for (std::size_t i = 0; i < machines_.size(); ++i)
        machines_[i]->captureState(
            state, prefix + "r" + std::to_string(i) + ".");
}

bool
ParallelBgf::restoreState(const rbm::TrainState &state,
                          const std::string &prefix)
{
    bool ok = true;
    for (std::size_t i = 0; i < machines_.size(); ++i)
        ok = machines_[i]->restoreState(
                 state, prefix + "r" + std::to_string(i) + ".") &&
             ok;
    return ok;
}

std::size_t
ParallelBgf::samplesProcessed() const
{
    std::size_t acc = 0;
    for (const auto &machine : machines_)
        acc += machine->counters().samplesProcessed;
    return acc;
}

} // namespace ising::accel
