/**
 * @file
 * GS accelerator implementation.
 */

#include "accel/gibbs_sampler.hpp"

#include <cassert>

namespace ising::accel {

GibbsSamplerAccel::GibbsSamplerAccel(rbm::Rbm &model, const GsConfig &config)
    : model_(model), config_(config),
      fabric_(model.numVisible(), model.numHidden(), config.analog),
      backend_(fabric_)
{
    const std::size_t m = model.numVisible(), n = model.numHidden();
    dw_.reset(m, n);
    dbv_.resize(m);
    dbh_.resize(n);
}

void
GibbsSamplerAccel::setSchedule(double learningRate, int k,
                               double weightDecay)
{
    config_.learningRate = learningRate;
    config_.k = k;
    config_.weightDecay = weightDecay;
}

void
GibbsSamplerAccel::trainBatch(const data::Dataset &train,
                              const std::vector<std::size_t> &indices,
                              util::Rng &rng)
{
    assert(!indices.empty());
    const std::size_t m = model_.numVisible(), n = model_.numHidden();

    // Step 2: program the current model onto the substrate.
    fabric_.program(model_);
    ++counters_.reprograms;
    counters_.bitsToDevice +=
        (m * n + m + n) * static_cast<std::size_t>(
            config_.analog.programBits);

    dw_.fill(0.0f);
    dbv_.fill(0.0f);
    dbh_.fill(0.0f);

    linalg::Vector v, hpos, vneg, hneg, pv, ph;
    for (const std::size_t idx : indices) {
        // Step 3: clamp the training sample through the DTCs.
        fabric_.clampVisible(train.sample(idx), v);
        // Step 4: positive-phase hidden sample (unified settle path).
        backend_.sampleHidden(v, hpos, ph, rng);
        ++counters_.fabricSweeps;
        counters_.bitsToHost += n;

        // Host accumulates <v+ h+>.
        for (std::size_t i = 0; i < m; ++i) {
            const float vi = v[i];
            if (vi == 0.0f)
                continue;
            float *drow = dw_.row(i);
            for (std::size_t j = 0; j < n; ++j)
                drow[j] += vi * hpos[j];
        }
        for (std::size_t i = 0; i < m; ++i)
            dbv_[i] += v[i];
        for (std::size_t j = 0; j < n; ++j)
            dbh_[j] += hpos[j];

        // Step 5: free-running negative phase, k anneal sweeps.
        hneg = hpos;
        backend_.anneal(config_.k, vneg, hneg, pv, ph, rng);
        counters_.fabricSweeps += 2 * static_cast<std::size_t>(config_.k);
        // Step 6: read out both layers.
        counters_.bitsToHost += m + n;

        for (std::size_t i = 0; i < m; ++i) {
            const float vi = vneg[i];
            if (vi == 0.0f)
                continue;
            float *drow = dw_.row(i);
            for (std::size_t j = 0; j < n; ++j)
                drow[j] -= vi * hneg[j];
        }
        for (std::size_t i = 0; i < m; ++i)
            dbv_[i] -= vneg[i];
        for (std::size_t j = 0; j < n; ++j)
            dbh_[j] -= hneg[j];

        ++counters_.samplesProcessed;
    }

    // Step 8: host parameter update.
    const float scale = static_cast<float>(
        config_.learningRate / static_cast<double>(indices.size()));
    const float decay = static_cast<float>(
        config_.weightDecay * config_.learningRate);
    float *wd = model_.weights().data();
    const float *dwd = dw_.data();
    for (std::size_t i = 0; i < model_.weights().size(); ++i)
        wd[i] += scale * dwd[i] - decay * wd[i];
    for (std::size_t i = 0; i < m; ++i)
        model_.visibleBias()[i] += scale * dbv_[i];
    for (std::size_t j = 0; j < n; ++j)
        model_.hiddenBias()[j] += scale * dbh_[j];
    ++counters_.hostUpdates;
}

void
GibbsSamplerAccel::trainEpoch(const data::Dataset &train, util::Rng &rng)
{
    data::MinibatchPlan plan(train.size(), config_.batchSize, rng);
    for (std::size_t b = 0; b < plan.numBatches(); ++b)
        trainBatch(train, plan.batch(b), rng);
}

} // namespace ising::accel
