/**
 * @file
 * CD-k / PCD trainer implementation (paper Algorithm 1).
 */

#include "rbm/cd_trainer.hpp"

#include <algorithm>
#include <cassert>

#include "exec/parallel_for.hpp"
#include "linalg/bitops.hpp"
#include "linalg/ops.hpp"
#include "rbm/sampling_backend.hpp"

namespace ising::rbm {

CdTrainer::CdTrainer(Rbm &model, const CdConfig &config)
    : model_(model), config_(config)
{
    const std::size_t m = model.numVisible(), n = model.numHidden();
    dw_.reset(m, n);
    dbv_.resize(m);
    dbh_.resize(n);
    mw_.reset(m, n);
    mbv_.resize(m);
    mbh_.resize(n);
}

void
CdTrainer::setSchedule(double learningRate, int k, double momentum,
                       double weightDecay)
{
    config_.learningRate = learningRate;
    config_.k = k;
    config_.momentum = momentum;
    config_.weightDecay = weightDecay;
}

void
CdTrainer::ensureParticles(const data::Dataset &train, util::Rng &rng)
{
    if (!config_.persistent || !particles_.empty())
        return;
    // At least one particle: numParticles == 0 would otherwise leave
    // the round-robin negative phase with nothing to advance.
    const std::size_t count =
        std::max<std::size_t>(1, config_.numParticles);
    particles_.reserve(count);
    linalg::Vector ph, h;
    for (std::size_t p = 0; p < count; ++p) {
        const std::size_t idx = rng.uniformInt(train.size());
        model_.hiddenProbs(train.sample(idx), ph);
        Rbm::sampleBinary(ph, h, rng);
        particles_.push_back(h);
    }
}

void
CdTrainer::trainBatch(const data::Dataset &train,
                      const std::vector<std::size_t> &indices,
                      util::Rng &rng)
{
    assert(!indices.empty());
    ensureParticles(train, rng);

    const std::size_t m = model_.numVisible(), n = model_.numHidden();
    const std::size_t batch = indices.size();
    exec::ThreadPool &pool =
        config_.pool ? *config_.pool : exec::globalPool();

    // One serial draw roots every stream this batch uses; positions get
    // streams [0, batch) and PCD particles [batch, batch + p), so the
    // chains reproduce bit-for-bit regardless of worker count.
    const std::uint64_t batchSeed = rng.next();

    // All chains this batch run on the unified sampling surface; the
    // model is frozen until the update below, so one cached-transpose
    // backend serves every worker.  The whole minibatch moves through
    // the *batched* surface -- on binary data that is the bit-packed
    // tiled walk over W, one traversal per half-sweep instead of one
    // per chain.  CD-k is ill-defined below one sweep (the negative
    // sample would not exist), hence the clamp.
    const SoftwareGibbsBackend backend(model_, &pool);
    const int k = std::max(1, config_.k);

    // --- Positive phase (Algorithm 1 lines 9-10), one chain per batch
    // position with its own stream; CD-k continues each stream through
    // the sample-rooted negative chain (lines 11-15).
    vpos_.reset(batch, m);
    for (std::size_t pos = 0; pos < batch; ++pos)
        std::copy_n(train.sample(indices[pos]), m, vpos_.row(pos));
    std::vector<util::Rng> rngs;
    rngs.reserve(batch);
    for (std::size_t pos = 0; pos < batch; ++pos)
        rngs.push_back(util::Rng::stream(batchSeed, pos));

    // The positive hidden sample lands directly in hnegs_: it is both
    // the h+ statistic source and the CD-k negative-chain start, and
    // the member scratch (resized once by the backend) spares a
    // per-batch allocation.
    backend.sampleHiddenBatch(vpos_, hnegs_, phpos_, rngs.data());
    hstat_ = hnegs_;
    if (!config_.persistent)
        backend.annealBatch(k, vnegs_, hnegs_, pvScratch_, phScratch_,
                            rngs.data());

    // --- PCD negative phase: positions are dealt round-robin to the
    // persistent particles, and each round advances all active
    // particles one batched anneal; per particle the positions run in
    // ascending order on its own stream, so chain continuity and
    // bit-reproducibility are preserved for any worker count.
    if (config_.persistent) {
        const std::size_t p = particles_.size();
        const std::size_t chains = std::min(p, batch);
        const std::size_t base = nextParticle_;
        std::vector<util::Rng> prngs;
        prngs.reserve(chains);
        for (std::size_t pi = 0; pi < chains; ++pi)
            prngs.push_back(util::Rng::stream(batchSeed, batch + pi));

        vnegs_.reset(batch, m);
        hnegs_.reset(batch, n);
        linalg::Matrix hcur(chains, n);
        for (std::size_t pi = 0; pi < chains; ++pi)
            std::copy_n(particles_[(base + pi) % p].data(), n,
                        hcur.row(pi));

        linalg::Matrix vRound, pvRound, phRound;
        for (std::size_t start = 0; start < batch; start += p) {
            const std::size_t active = std::min(chains, batch - start);
            linalg::Matrix hRound(active, n);
            for (std::size_t pi = 0; pi < active; ++pi)
                std::copy_n(hcur.row(pi), n, hRound.row(pi));
            backend.annealBatch(k, vRound, hRound, pvRound, phRound,
                                prngs.data());
            for (std::size_t pi = 0; pi < active; ++pi) {
                const std::size_t pos = start + pi;
                std::copy_n(vRound.row(pi), m, vnegs_.row(pos));
                std::copy_n(hRound.row(pi), n, hnegs_.row(pos));
                std::copy_n(hRound.row(pi), n, hcur.row(pi));
            }
        }
        for (std::size_t pi = 0; pi < chains; ++pi) {
            linalg::Vector &particle = particles_[(base + pi) % p];
            std::copy_n(hcur.row(pi), n, particle.data());
        }
        nextParticle_ = (base + batch) % p;
    }

    // --- Reduce <v+ h+> - <v- h-> into the accumulators.  Rows of W
    // (and dbv) are disjoint across chunks: deterministic for any
    // worker count.  The reduce runs the backend's kernel table, the
    // same tier as the sweeps.
    const linalg::simd::KernelTable &kt = backend.kernelTable();
    if (linalg::isBinary01(vpos_) && linalg::isBinary01(vnegs_)) {
        // Binary visible states (hidden statistics are always sampled
        // bits): every dW entry is a count of batch positions where
        // both units fired, reduced by AND+popcount over per-unit bit
        // columns.  The counts are exactly the float-accumulated
        // result under any summation order.
        linalg::packTransposed(vpos_, posT_);
        linalg::packTransposed(vnegs_, negT_);
        linalg::packTransposed(hstat_, hposT_);
        linalg::packTransposed(hnegs_, hnegT_);
        exec::parallelForChunks(pool, m, [&](std::size_t rowBegin,
                                             std::size_t rowEnd) {
            linalg::outerCountDiff(kt, posT_, hposT_, negT_, hnegT_, dw_,
                                   rowBegin, rowEnd);
        });
        linalg::Vector tmp(std::max(m, n));
        linalg::rowCounts(kt, posT_, dbv_.data());
        linalg::rowCounts(kt, negT_, tmp.data());
        for (std::size_t i = 0; i < m; ++i)
            dbv_[i] -= tmp[i];
        linalg::rowCounts(kt, hposT_, dbh_.data());
        linalg::rowCounts(kt, hnegT_, tmp.data());
        for (std::size_t j = 0; j < n; ++j)
            dbh_[j] -= tmp[j];
    } else {
        // Float reduce: non-binary visible data.
        dw_.fill(0.0f);
        dbv_.fill(0.0f);
        dbh_.fill(0.0f);
        exec::parallelForChunks(pool, m, [&](std::size_t rowBegin,
                                             std::size_t rowEnd) {
            for (std::size_t pos = 0; pos < batch; ++pos) {
                const float *vpos = vpos_.row(pos);
                const float *hp = hstat_.row(pos);
                const float *hn = hnegs_.row(pos);
                const float *vneg = vnegs_.row(pos);
                for (std::size_t i = rowBegin; i < rowEnd; ++i) {
                    float *drow = dw_.row(i);
                    if (vpos[i] != 0.0f)
                        for (std::size_t j = 0; j < n; ++j)
                            drow[j] += vpos[i] * hp[j];
                    if (vneg[i] != 0.0f)
                        for (std::size_t j = 0; j < n; ++j)
                            drow[j] -= vneg[i] * hn[j];
                }
            }
        });
        for (std::size_t pos = 0; pos < batch; ++pos) {
            const float *vpos = vpos_.row(pos);
            const float *vneg = vnegs_.row(pos);
            for (std::size_t i = 0; i < m; ++i)
                dbv_[i] += vpos[i] - vneg[i];
            const float *hp = hstat_.row(pos);
            const float *hn = hnegs_.row(pos);
            for (std::size_t j = 0; j < n; ++j)
                dbh_[j] += hp[j] - hn[j];
        }
    }

    // --- Parameter update (lines 17-19) ---
    const float scale = static_cast<float>(
        config_.learningRate / static_cast<double>(indices.size()));
    const float mom = static_cast<float>(config_.momentum);
    const float decay = static_cast<float>(
        config_.weightDecay * config_.learningRate);

    // Weight rows are disjoint across chunks and each element runs the
    // same expression, so the pool moves time, never bits.
    float *wd = model_.weights().data(), *dwd = dw_.data(),
          *mwd = mw_.data();
    exec::parallelForChunks(pool, m, [&](std::size_t rowBegin,
                                         std::size_t rowEnd) {
        for (std::size_t i = rowBegin * n; i < rowEnd * n; ++i) {
            mwd[i] = mom * mwd[i] + scale * dwd[i] - decay * wd[i];
            wd[i] += mwd[i];
        }
    });
    linalg::Vector &bv = model_.visibleBias();
    for (std::size_t i = 0; i < m; ++i) {
        mbv_[i] = mom * mbv_[i] + scale * dbv_[i];
        bv[i] += mbv_[i];
    }
    linalg::Vector &bh = model_.hiddenBias();
    for (std::size_t j = 0; j < n; ++j) {
        mbh_[j] = mom * mbh_[j] + scale * dbh_[j];
        bh[j] += mbh_[j];
    }
    ++updates_;
}

void
CdTrainer::trainEpoch(const data::Dataset &train, util::Rng &rng)
{
    data::MinibatchPlan plan(train.size(), config_.batchSize, rng);
    for (std::size_t b = 0; b < plan.numBatches(); ++b)
        trainBatch(train, plan.batch(b), rng);
}

double
CdTrainer::reconstructionError(const data::Dataset &ds, util::Rng &rng)
{
    linalg::Vector ph, h, pv;
    double acc = 0.0;
    for (std::size_t r = 0; r < ds.size(); ++r) {
        const float *v = ds.sample(r);
        model_.hiddenProbs(v, ph);
        Rbm::sampleBinary(ph, h, rng);
        model_.visibleProbs(h.data(), pv);
        for (std::size_t i = 0; i < ds.dim(); ++i) {
            const double d = pv[i] - v[i];
            acc += d * d;
        }
    }
    return ds.size() ? acc / static_cast<double>(ds.size() * ds.dim()) : 0.0;
}

namespace {

bool
anyNonZero(const float *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (data[i] != 0.0f)
            return true;
    return false;
}

} // namespace

void
CdTrainer::captureState(TrainState &state, const std::string &prefix) const
{
    state.setCounter(prefix + "updates", updates_);
    if (config_.persistent && !particles_.empty()) {
        state.setCounter(prefix + "next_particle", nextParticle_);
        state.setTensor(prefix + "particles",
                        packChainTensor(particles_, model_.numHidden()));
    }
    // Momentum buffers matter only once momentum has pushed them off
    // zero; the zero-state is what a fresh trainer starts from anyway.
    if (anyNonZero(mw_.data(), mw_.size()) ||
        anyNonZero(mbv_.data(), mbv_.size()) ||
        anyNonZero(mbh_.data(), mbh_.size())) {
        state.setTensor(prefix + "momentum_w", mw_);
        linalg::Matrix bv(1, mbv_.size()), bh(1, mbh_.size());
        std::copy_n(mbv_.data(), mbv_.size(), bv.row(0));
        std::copy_n(mbh_.data(), mbh_.size(), bh.row(0));
        state.setTensor(prefix + "momentum_bv", std::move(bv));
        state.setTensor(prefix + "momentum_bh", std::move(bh));
    }
}

bool
CdTrainer::restoreState(const TrainState &state, const std::string &prefix)
{
    if (const std::uint64_t *updates = state.counter(prefix + "updates"))
        updates_ = static_cast<std::size_t>(*updates);
    if (const linalg::Matrix *mw = state.tensor(prefix + "momentum_w")) {
        const linalg::Matrix *bv = state.tensor(prefix + "momentum_bv");
        const linalg::Matrix *bh = state.tensor(prefix + "momentum_bh");
        if (mw->rows() == mw_.rows() && mw->cols() == mw_.cols() && bv &&
            bh && bv->cols() == mbv_.size() && bh->cols() == mbh_.size()) {
            mw_ = *mw;
            std::copy_n(bv->row(0), mbv_.size(), mbv_.data());
            std::copy_n(bh->row(0), mbh_.size(), mbh_.data());
        }
    }
    if (!config_.persistent)
        return true;
    if (!unpackChainTensor(state.tensor(prefix + "particles"),
                           model_.numHidden(), particles_))
        return false;
    nextParticle_ = 0;
    if (const std::uint64_t *next =
            state.counter(prefix + "next_particle"))
        nextParticle_ = static_cast<std::size_t>(*next);
    return true;
}

} // namespace ising::rbm
