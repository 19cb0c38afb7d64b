/**
 * @file
 * DBM implementation.
 */

#include "rbm/dbm.hpp"

#include <cassert>
#include <cmath>

#include "rbm/cd_trainer.hpp"
#include "util/math.hpp"

namespace ising::rbm {

Dbm::Dbm(std::size_t numVisible, std::size_t hidden1, std::size_t hidden2)
    : w1_(numVisible, hidden1), w2_(hidden1, hidden2), bv_(numVisible),
      b1_(hidden1), b2_(hidden2)
{
}

void
Dbm::initRandom(util::Rng &rng, float stddev)
{
    for (std::size_t i = 0; i < w1_.size(); ++i)
        w1_.data()[i] = static_cast<float>(rng.gaussian(0.0, stddev));
    for (std::size_t i = 0; i < w2_.size(); ++i)
        w2_.data()[i] = static_cast<float>(rng.gaussian(0.0, stddev));
    bv_.fill(0.0f);
    b1_.fill(0.0f);
    b2_.fill(0.0f);
}

void
Dbm::pretrain(const data::Dataset &train, const DbmConfig &config,
              util::Rng &rng)
{
    // Layer 1 as an RBM on the data.
    Rbm layer1(numVisible(), hidden1());
    layer1.initRandom(rng);
    CdConfig cd;
    cd.learningRate = config.learningRate;
    cd.batchSize = config.batchSize;
    CdTrainer trainer1(layer1, cd);
    for (int e = 0; e < config.pretrainEpochs; ++e)
        trainer1.trainEpoch(train, rng);
    w1_ = layer1.weights();
    bv_ = layer1.visibleBias();
    b1_ = layer1.hiddenBias();

    // Layer 2 as an RBM on layer-1 samples.
    data::Dataset up;
    up.samples.reset(train.size(), hidden1());
    linalg::Vector ph, h;
    for (std::size_t r = 0; r < train.size(); ++r) {
        layer1.hiddenProbs(train.sample(r), ph);
        Rbm::sampleBinary(ph, h, rng);
        std::copy(h.begin(), h.end(), up.samples.row(r));
    }
    Rbm layer2(hidden1(), hidden2());
    layer2.initRandom(rng);
    CdTrainer trainer2(layer2, cd);
    for (int e = 0; e < config.pretrainEpochs; ++e)
        trainer2.trainEpoch(up, rng);
    w2_ = layer2.weights();
    b2_ = layer2.hiddenBias();
}

void
Dbm::meanField(const float *v, int iters, std::vector<double> &mu1,
               std::vector<double> &mu2) const
{
    const std::size_t m = numVisible(), n1 = hidden1(), n2 = hidden2();
    mu1.assign(n1, 0.5);
    mu2.assign(n2, 0.5);

    // Bottom-up input to h1 is fixed given v.
    std::vector<double> bottomUp(n1);
    for (std::size_t j = 0; j < n1; ++j)
        bottomUp[j] = b1_[j];
    for (std::size_t i = 0; i < m; ++i) {
        const float vi = v[i];
        if (vi == 0.0f)
            continue;
        const float *row = w1_.row(i);
        for (std::size_t j = 0; j < n1; ++j)
            bottomUp[j] += vi * row[j];
    }

    for (int it = 0; it < iters; ++it) {
        // mu1 <- sigmoid(bottomUp + W2 mu2), damped for stability.
        for (std::size_t j = 0; j < n1; ++j) {
            const float *row = w2_.row(j);
            double act = bottomUp[j];
            for (std::size_t k = 0; k < n2; ++k)
                act += row[k] * mu2[k];
            mu1[j] = 0.5 * mu1[j] + 0.5 * util::sigmoid(act);
        }
        // mu2 <- sigmoid(W2^T mu1 + b2).
        for (std::size_t k = 0; k < n2; ++k)
            mu2[k] = b2_[k];
        for (std::size_t j = 0; j < n1; ++j) {
            const double m1 = mu1[j];
            const float *row = w2_.row(j);
            for (std::size_t k = 0; k < n2; ++k)
                mu2[k] += m1 * row[k];
        }
        for (std::size_t k = 0; k < n2; ++k)
            mu2[k] = util::sigmoid(mu2[k]);
    }
}

void
Dbm::gibbsSweep(linalg::Vector &v, linalg::Vector &h1,
                linalg::Vector &h2, util::Rng &rng) const
{
    const std::size_t m = numVisible(), n1 = hidden1(), n2 = hidden2();
    // h1 | v, h2
    std::vector<double> act(n1);
    for (std::size_t j = 0; j < n1; ++j)
        act[j] = b1_[j];
    for (std::size_t i = 0; i < m; ++i) {
        if (v[i] == 0.0f)
            continue;
        const float *row = w1_.row(i);
        for (std::size_t j = 0; j < n1; ++j)
            act[j] += row[j];
    }
    for (std::size_t j = 0; j < n1; ++j) {
        const float *row = w2_.row(j);
        double extra = 0.0;
        for (std::size_t k = 0; k < n2; ++k)
            extra += row[k] * h2[k];
        h1[j] = rng.bernoulli(util::sigmoid(act[j] + extra)) ? 1.0f
                                                             : 0.0f;
    }
    // v | h1 and h2 | h1 (conditionally independent given h1).
    for (std::size_t i = 0; i < m; ++i) {
        const float *row = w1_.row(i);
        double a = bv_[i];
        for (std::size_t j = 0; j < n1; ++j)
            a += row[j] * h1[j];
        v[i] = rng.bernoulli(util::sigmoid(a)) ? 1.0f : 0.0f;
    }
    std::vector<double> act2(n2);
    for (std::size_t k = 0; k < n2; ++k)
        act2[k] = b2_[k];
    for (std::size_t j = 0; j < n1; ++j) {
        if (h1[j] == 0.0f)
            continue;
        const float *row = w2_.row(j);
        for (std::size_t k = 0; k < n2; ++k)
            act2[k] += row[k];
    }
    for (std::size_t k = 0; k < n2; ++k)
        h2[k] = rng.bernoulli(util::sigmoid(act2[k])) ? 1.0f : 0.0f;
}

void
Dbm::trainEpoch(const data::Dataset &train, const DbmConfig &config,
                util::Rng &rng)
{
    const std::size_t m = numVisible(), n1 = hidden1(), n2 = hidden2();
    assert(train.dim() == m);

    if (chainV_.empty()) {
        chainV_.resize(config.numChains);
        chainH1_.resize(config.numChains);
        chainH2_.resize(config.numChains);
        for (std::size_t c = 0; c < config.numChains; ++c) {
            chainV_[c].resize(m);
            chainH1_[c].resize(n1);
            chainH2_[c].resize(n2);
            const float *seed =
                train.sample(rng.uniformInt(train.size()));
            std::copy_n(seed, m, chainV_[c].data());
            for (std::size_t j = 0; j < n1; ++j)
                chainH1_[c][j] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
            for (std::size_t k = 0; k < n2; ++k)
                chainH2_[c][k] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
        }
    }

    data::MinibatchPlan plan(train.size(), config.batchSize, rng);
    linalg::Matrix dw1(m, n1), dw2(n1, n2);
    linalg::Vector dbv(m), db1(n1), db2(n2);
    std::vector<double> mu1, mu2;

    for (std::size_t b = 0; b < plan.numBatches(); ++b) {
        const auto batch = plan.batch(b);
        dw1.fill(0.0f);
        dw2.fill(0.0f);
        dbv.fill(0.0f);
        db1.fill(0.0f);
        db2.fill(0.0f);

        // Data-dependent statistics via mean field.
        for (const std::size_t idx : batch) {
            const float *v = train.sample(idx);
            meanField(v, config.meanFieldIters, mu1, mu2);
            for (std::size_t i = 0; i < m; ++i) {
                const float vi = v[i];
                if (vi == 0.0f)
                    continue;
                float *row = dw1.row(i);
                for (std::size_t j = 0; j < n1; ++j)
                    row[j] += vi * static_cast<float>(mu1[j]);
            }
            for (std::size_t j = 0; j < n1; ++j) {
                float *row = dw2.row(j);
                const float m1 = static_cast<float>(mu1[j]);
                for (std::size_t k = 0; k < n2; ++k)
                    row[k] += m1 * static_cast<float>(mu2[k]);
            }
            for (std::size_t i = 0; i < m; ++i)
                dbv[i] += v[i];
            for (std::size_t j = 0; j < n1; ++j)
                db1[j] += static_cast<float>(mu1[j]);
            for (std::size_t k = 0; k < n2; ++k)
                db2[k] += static_cast<float>(mu2[k]);
        }

        // Model statistics via the persistent chains.
        for (std::size_t c = 0; c < chainV_.size(); ++c)
            for (int s = 0; s < config.gibbsStepsPerUpdate; ++s)
                gibbsSweep(chainV_[c], chainH1_[c], chainH2_[c], rng);
        const float negScale = static_cast<float>(
            static_cast<double>(batch.size()) /
            static_cast<double>(chainV_.size()));
        for (std::size_t c = 0; c < chainV_.size(); ++c) {
            const auto &cv = chainV_[c];
            const auto &ch1 = chainH1_[c];
            const auto &ch2 = chainH2_[c];
            for (std::size_t i = 0; i < m; ++i) {
                if (cv[i] == 0.0f)
                    continue;
                float *row = dw1.row(i);
                for (std::size_t j = 0; j < n1; ++j)
                    row[j] -= negScale * ch1[j];
            }
            for (std::size_t j = 0; j < n1; ++j) {
                if (ch1[j] == 0.0f)
                    continue;
                float *row = dw2.row(j);
                for (std::size_t k = 0; k < n2; ++k)
                    row[k] -= negScale * ch2[k];
            }
            for (std::size_t i = 0; i < m; ++i)
                dbv[i] -= negScale * cv[i];
            for (std::size_t j = 0; j < n1; ++j)
                db1[j] -= negScale * ch1[j];
            for (std::size_t k = 0; k < n2; ++k)
                db2[k] -= negScale * ch2[k];
        }

        // Sparsity regularizer: pull the mean data-dependent hidden
        // activations toward the target.  Mean-field statistics
        // overestimate correlations (E_MF[h1 h2] = mu1 mu2), which
        // otherwise inflates the top-layer biases until mu2 saturates.
        const double bs = static_cast<double>(batch.size());
        double mean1 = 0.0, mean2 = 0.0;
        for (std::size_t j = 0; j < n1; ++j)
            mean1 += db1[j];
        for (std::size_t k = 0; k < n2; ++k)
            mean2 += db2[k];
        mean1 /= bs * static_cast<double>(n1);
        mean2 /= bs * static_cast<double>(n2);
        const float nudge1 = static_cast<float>(
            config.sparsityCost * (config.sparsityTarget - mean1) * bs);
        const float nudge2 = static_cast<float>(
            config.sparsityCost * (config.sparsityTarget - mean2) * bs);

        const float lr = static_cast<float>(
            config.learningRate / static_cast<double>(batch.size()));
        const float keep = 1.0f - static_cast<float>(
            config.weightDecay * config.learningRate);
        for (std::size_t i = 0; i < w1_.size(); ++i)
            w1_.data()[i] = keep * w1_.data()[i] + lr * dw1.data()[i];
        for (std::size_t i = 0; i < w2_.size(); ++i)
            w2_.data()[i] = keep * w2_.data()[i] + lr * dw2.data()[i];
        for (std::size_t i = 0; i < m; ++i)
            bv_[i] += lr * dbv[i];
        for (std::size_t j = 0; j < n1; ++j)
            b1_[j] += lr * (db1[j] + nudge1);
        for (std::size_t k = 0; k < n2; ++k)
            b2_[k] += lr * (db2[k] + nudge2);
    }
}

double
Dbm::energy(const float *v, const float *h1, const float *h2) const
{
    const std::size_t m = numVisible(), n1 = hidden1(), n2 = hidden2();
    double e = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        e -= bv_[i] * v[i];
        if (v[i] == 0.0f)
            continue;
        const float *row = w1_.row(i);
        double acc = 0.0;
        for (std::size_t j = 0; j < n1; ++j)
            acc += row[j] * h1[j];
        e -= v[i] * acc;
    }
    for (std::size_t j = 0; j < n1; ++j) {
        e -= b1_[j] * h1[j];
        if (h1[j] == 0.0f)
            continue;
        const float *row = w2_.row(j);
        double acc = 0.0;
        for (std::size_t k = 0; k < n2; ++k)
            acc += row[k] * h2[k];
        e -= h1[j] * acc;
    }
    for (std::size_t k = 0; k < n2; ++k)
        e -= b2_[k] * h2[k];
    return e;
}

double
Dbm::reconstructionError(const data::Dataset &ds,
                         int meanFieldIters) const
{
    std::vector<double> mu1, mu2;
    double acc = 0.0;
    for (std::size_t r = 0; r < ds.size(); ++r) {
        const float *v = ds.sample(r);
        meanField(v, meanFieldIters, mu1, mu2);
        // Reconstruct v from mu1.
        for (std::size_t i = 0; i < numVisible(); ++i) {
            const float *row = w1_.row(i);
            double a = bv_[i];
            for (std::size_t j = 0; j < hidden1(); ++j)
                a += row[j] * mu1[j];
            const double d = util::sigmoid(a) - v[i];
            acc += d * d;
        }
    }
    return ds.size()
        ? acc / static_cast<double>(ds.size() * ds.dim())
        : 0.0;
}

void
Dbm::captureChains(TrainState &state, const std::string &prefix) const
{
    if (!hasChains())
        return;
    state.setTensor(prefix + "chain_v",
                    packChainTensor(chainV_, numVisible()));
    state.setTensor(prefix + "chain_h1",
                    packChainTensor(chainH1_, hidden1()));
    state.setTensor(prefix + "chain_h2",
                    packChainTensor(chainH2_, hidden2()));
}

bool
Dbm::restoreChains(const TrainState &state, const std::string &prefix)
{
    std::vector<linalg::Vector> v, h1, h2;
    if (!unpackChainTensor(state.tensor(prefix + "chain_v"),
                           numVisible(), v) ||
        !unpackChainTensor(state.tensor(prefix + "chain_h1"), hidden1(),
                           h1) ||
        !unpackChainTensor(state.tensor(prefix + "chain_h2"), hidden2(),
                           h2) ||
        v.size() != h1.size() || v.size() != h2.size())
        return false;
    chainV_ = std::move(v);
    chainH1_ = std::move(h1);
    chainH2_ = std::move(h2);
    return true;
}

data::Dataset
Dbm::transform(const data::Dataset &ds, int meanFieldIters) const
{
    data::Dataset out;
    out.name = ds.name + "-dbm";
    out.numClasses = ds.numClasses;
    out.labels = ds.labels;
    out.samples.reset(ds.size(), hidden1() + hidden2());
    std::vector<double> mu1, mu2;
    for (std::size_t r = 0; r < ds.size(); ++r) {
        meanField(ds.sample(r), meanFieldIters, mu1, mu2);
        for (std::size_t j = 0; j < hidden1(); ++j)
            out.samples(r, j) = static_cast<float>(mu1[j]);
        for (std::size_t k = 0; k < hidden2(); ++k)
            out.samples(r, hidden1() + k) = static_cast<float>(mu2[k]);
    }
    return out;
}

} // namespace ising::rbm
