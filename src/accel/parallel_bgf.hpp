/**
 * @file
 * Training-set parallelism over multiple BGF fabrics.
 *
 * Sec. 4.6 lists "support for exploiting training set parallelism" as
 * a research direction that would improve the system's versatility.
 * This module implements the straightforward data-parallel variant: R
 * replica fabrics stream disjoint shards of the training set, and a
 * lightweight synchronizer periodically averages their coupler states
 * (read out through the ADCs, averaged, and reprogrammed), which is
 * the standard model-averaging recipe for SGD-style learners.
 */

#ifndef ISINGRBM_ACCEL_PARALLEL_BGF_HPP
#define ISINGRBM_ACCEL_PARALLEL_BGF_HPP

#include <memory>
#include <vector>

#include "accel/bgf.hpp"
#include "exec/thread_pool.hpp"

namespace ising::accel {

/** Data-parallel configuration. */
struct ParallelBgfConfig
{
    std::size_t numReplicas = 4;
    /** Average replica weights every this many epochs (0 = never;
     *  meanModel() still averages the readouts). */
    int syncEveryEpochs = 1;
    BgfConfig replica;  ///< per-fabric configuration
    /**
     * Pool running the replica fabrics (borrowed; nullptr selects
     * exec::globalPool()).  Results are bit-identical for any worker
     * count: each replica trains on its own shard with its own
     * index-derived RNG stream.
     */
    exec::ThreadPool *pool = nullptr;
};

/** A fleet of BGF fabrics with periodic model averaging. */
class ParallelBgf
{
  public:
    ParallelBgf(std::size_t numVisible, std::size_t numHidden,
                const ParallelBgfConfig &config);

    std::size_t numReplicas() const { return machines_.size(); }

    /** Program every replica with the same initial model. */
    void initialize(const rbm::Rbm &initial);

    /**
     * One epoch: shard the shuffled dataset across replicas, stream
     * every shard into its fabric concurrently on the configured
     * pool, and sync (readout -> average -> reprogram) when
     * (epoch + 1) is a syncEveryEpochs multiple.  Replica streams and
     * the shard shuffle are pure functions of (rootSeed, epoch), so
     * any epoch reproduces bit-for-bit whether reached in one run or
     * after a checkpoint resume, at any worker count.
     */
    void trainEpoch(const data::Dataset &train, std::uint64_t rootSeed,
                    int epoch);

    /**
     * Readout-average across replicas *without* reprogramming: the
     * trained model, and the pure snapshot a mid-training checkpoint
     * stores (synchronize() mutates fabric state, so it must not run
     * at snapshot points).
     */
    rbm::Rbm meanModel() const;

    /** Total samples processed across all replicas. */
    std::size_t samplesProcessed() const;

    /**
     * Persist every replica's exact machine state (prefix + "r<i>.").
     * restoreState returns false unless all replicas restore.
     */
    void captureState(rbm::TrainState &state,
                      const std::string &prefix) const;
    bool restoreState(const rbm::TrainState &state,
                      const std::string &prefix);

  private:
    /** Read out all replicas, average, reprogram everywhere. */
    void synchronize();

    /**
     * Deal @p order round-robin into shards and stream them
     * concurrently; replica m draws from stream m of @p epochSeed.
     */
    void streamShards(const data::Dataset &train,
                      const std::vector<std::size_t> &order,
                      std::uint64_t epochSeed);

    ParallelBgfConfig config_;
    std::vector<std::unique_ptr<BoltzmannGradientFollower>> machines_;
};

} // namespace ising::accel

#endif // ISINGRBM_ACCEL_PARALLEL_BGF_HPP
