/**
 * @file
 * SamplingBackend default behavior and the software backend.
 */

#include "rbm/sampling_backend.hpp"

#include <algorithm>
#include <cassert>

#include "exec/parallel_for.hpp"
#include "linalg/bitops.hpp"
#include "linalg/ops.hpp"

namespace ising::rbm {

namespace {

/**
 * reset() only on shape mismatch: every caller overwrites the full
 * extent, so the zero-fill reset() performs is pure overhead on the
 * (steady-state) reuse path -- e.g. the per-step means matrices of a
 * long annealBatch walk.
 */
void
ensureShape(linalg::Matrix &m, std::size_t rows, std::size_t cols)
{
    if (m.rows() != rows || m.cols() != cols)
        m.reset(rows, cols);
}

void
ensureShape(linalg::BitMatrix &m, std::size_t rows, std::size_t cols)
{
    if (m.rows() != rows || m.cols() != cols)
        m.reset(rows, cols);
}

} // namespace

void
SamplingBackend::anneal(int steps, linalg::Vector &v, linalg::Vector &h,
                        linalg::Vector &pv, linalg::Vector &ph,
                        util::Rng &rng) const
{
    for (int s = 0; s < steps; ++s) {
        sampleVisible(h, v, pv, rng);
        sampleHidden(v, h, ph, rng);
    }
}

void
SamplingBackend::sampleHiddenBatch(const linalg::Matrix &v,
                                   linalg::Matrix &h, linalg::Matrix &ph,
                                   util::Rng *rngs) const
{
    const std::size_t batch = v.rows(), m = numVisible(), n = numHidden();
    assert(v.cols() == m);
    ensureShape(h, batch, n);
    ensureShape(ph, batch, n);
    exec::ThreadPool &pool = batchPool() ? *batchPool() : exec::globalPool();
    // Scratch vectors hoisted per chunk (at most one chunk per
    // worker), not per row: the fan-out path of backends without a
    // batched kernel -- the analog fabric among them -- must not spend
    // its serving time in the allocator.
    exec::parallelForChunks(pool, batch, [&](std::size_t begin,
                                             std::size_t end) {
        linalg::Vector vr(m), hr, pr;
        for (std::size_t r = begin; r < end; ++r) {
            std::copy_n(v.row(r), m, vr.data());
            sampleHidden(vr, hr, pr, rngs[r]);
            std::copy_n(hr.data(), n, h.row(r));
            std::copy_n(pr.data(), n, ph.row(r));
        }
    });
}

void
SamplingBackend::sampleVisibleBatch(const linalg::Matrix &h,
                                    linalg::Matrix &v, linalg::Matrix &pv,
                                    util::Rng *rngs) const
{
    const std::size_t batch = h.rows(), m = numVisible(), n = numHidden();
    assert(h.cols() == n);
    ensureShape(v, batch, m);
    ensureShape(pv, batch, m);
    exec::ThreadPool &pool = batchPool() ? *batchPool() : exec::globalPool();
    exec::parallelForChunks(pool, batch, [&](std::size_t begin,
                                             std::size_t end) {
        linalg::Vector hr(n), vr, pr;
        for (std::size_t r = begin; r < end; ++r) {
            std::copy_n(h.row(r), n, hr.data());
            sampleVisible(hr, vr, pr, rngs[r]);
            std::copy_n(vr.data(), m, v.row(r));
            std::copy_n(pr.data(), m, pv.row(r));
        }
    });
}

void
SamplingBackend::annealBatch(int steps, linalg::Matrix &v,
                             linalg::Matrix &h, linalg::Matrix &pv,
                             linalg::Matrix &ph, util::Rng *rngs) const
{
    if (steps <= 0)
        return;
    const std::size_t batch = h.rows(), m = numVisible(), n = numHidden();
    assert(h.cols() == n);
    ensureShape(v, batch, m);
    ensureShape(pv, batch, m);
    ensureShape(ph, batch, n);
    exec::ThreadPool &pool = batchPool() ? *batchPool() : exec::globalPool();
    exec::parallelForChunks(pool, batch, [&](std::size_t begin,
                                             std::size_t end) {
        linalg::Vector vr, hr(n), pvr, phr;
        for (std::size_t r = begin; r < end; ++r) {
            hr.resize(n);
            std::copy_n(h.row(r), n, hr.data());
            anneal(steps, vr, hr, pvr, phr, rngs[r]);
            std::copy_n(vr.data(), m, v.row(r));
            std::copy_n(hr.data(), n, h.row(r));
            std::copy_n(pvr.data(), m, pv.row(r));
            std::copy_n(phr.data(), n, ph.row(r));
        }
    });
}

SoftwareGibbsBackend::SoftwareGibbsBackend(const Rbm &model,
                                           exec::ThreadPool *pool)
    : model_(&model), pool_(pool),
      // The process's tier: ISINGRBM_ISA, else CPUID.
      kt_(linalg::simd::activeTable())
{
    linalg::transposeInto(model.weights(), wT_);
}

void
SoftwareGibbsBackend::refreshTranspose(std::size_t rowBegin,
                                       std::size_t rowEnd)
{
    linalg::transposeInto(model_->weights(), wT_, rowBegin, rowEnd);
}

void
SoftwareGibbsBackend::sampleHidden(const linalg::Vector &v,
                                   linalg::Vector &h, linalg::Vector &ph,
                                   util::Rng &rng) const
{
    assert(v.size() == numVisible());
    linalg::affineSigmoid(model_->weights(), v.data(),
                          model_->hiddenBias(), ph);
    Rbm::sampleBinary(ph, h, rng);
}

void
SoftwareGibbsBackend::sampleVisible(const linalg::Vector &h,
                                    linalg::Vector &v, linalg::Vector &pv,
                                    util::Rng &rng) const
{
    assert(h.size() == numHidden());
    linalg::affineSigmoid(wT_, h.data(), model_->visibleBias(), pv);
    Rbm::sampleBinary(pv, v, rng);
}

void
SoftwareGibbsBackend::anneal(int steps, linalg::Vector &v,
                             linalg::Vector &h, linalg::Vector &pv,
                             linalg::Vector &ph, util::Rng &rng) const
{
    if (steps <= 0)
        return;
    assert(h.size() == numHidden());
    if (!linalg::isBinary01(h.data(), h.size())) {
        // Non-binary state: the float pipeline, the only one that can
        // carry it.
        SamplingBackend::anneal(steps, v, h, pv, ph, rng);
        return;
    }
    // A chain is a one-row batch: the state stays packed across every
    // sweep, each half-sweep is the serial batched walk on the calling
    // thread (one row gains nothing from the pool), and only the means
    // and the final samples are materialized as floats.
    const std::size_t m = numVisible(), n = numHidden();
    linalg::BitMatrix hb(1, n), vb;
    hb.packRowFrom(0, h.data());
    linalg::Matrix pvb, phb;
    for (int s = 0; s < steps; ++s) {
        linalg::sampleBatch(kt_, wT_, hb, model_->visibleBias(), vb, pvb,
                            &rng);
        linalg::sampleBatch(kt_, model_->weights(), vb,
                            model_->hiddenBias(), hb, phb, &rng);
    }
    v.resize(m);
    vb.unpackRowTo(0, v.data());
    hb.unpackRowTo(0, h.data());
    pv.resize(m);
    std::copy_n(pvb.row(0), m, pv.data());
    ph.resize(n);
    std::copy_n(phb.row(0), n, ph.data());
}

void
SoftwareGibbsBackend::packedLayerBatch(const linalg::Matrix &w,
                                       const linalg::Vector &b,
                                       const linalg::BitMatrix &in,
                                       linalg::BitMatrix &out,
                                       linalg::Matrix &means,
                                       util::Rng *rngs) const
{
    exec::ThreadPool &pool = pool_ ? *pool_ : exec::globalPool();
    const std::size_t batch = in.rows(), q = w.cols();
    ensureShape(means, batch, q);
    ensureShape(out, batch, q);
    // Deep batches: chains over threads (each chunk runs its own
    // cache-tiled accumulate + sample).  Shallow batches: units over
    // threads within the sweep -- the pre-activation dominates, and
    // column tiles of W are independent -- then sample per chain.
    // Both shapes produce identical results: per (chain, unit) the
    // accumulation order is fixed and all randomness is per-chain.
    if (batch >= pool.numWorkers()) {
        exec::parallelForChunks(pool, batch, [&](std::size_t rowBegin,
                                                 std::size_t rowEnd) {
            linalg::accumulateBatchTile(kt_, w, in, b, means, rowBegin,
                                        rowEnd, 0, q);
            for (std::size_t r = rowBegin; r < rowEnd; ++r)
                linalg::sampleBatchRow(kt_, means, r, out, rngs[r]);
        });
    } else {
        exec::parallelForChunks(pool, q, [&](std::size_t colBegin,
                                             std::size_t colEnd) {
            linalg::accumulateBatchTile(kt_, w, in, b, means, 0, batch,
                                        colBegin, colEnd);
        });
        exec::parallelFor(pool, batch, [&](std::size_t r) {
            linalg::sampleBatchRow(kt_, means, r, out, rngs[r]);
        });
    }
}

void
SoftwareGibbsBackend::sampleHiddenBatch(const linalg::Matrix &v,
                                        linalg::Matrix &h,
                                        linalg::Matrix &ph,
                                        util::Rng *rngs) const
{
    const std::size_t batch = v.rows(), m = numVisible(), n = numHidden();
    assert(v.cols() == m);
    if (!linalg::isBinary01(v)) {
        SamplingBackend::sampleHiddenBatch(v, h, ph, rngs);
        return;
    }
    linalg::BitMatrix vb(batch, m), hb;
    for (std::size_t r = 0; r < batch; ++r)
        vb.packRowFrom(r, v.row(r));
    packedLayerBatch(model_->weights(), model_->hiddenBias(), vb, hb, ph,
                     rngs);
    ensureShape(h, batch, n);
    for (std::size_t r = 0; r < batch; ++r)
        hb.unpackRowTo(r, h.row(r));
}

void
SoftwareGibbsBackend::sampleVisibleBatch(const linalg::Matrix &h,
                                         linalg::Matrix &v,
                                         linalg::Matrix &pv,
                                         util::Rng *rngs) const
{
    const std::size_t batch = h.rows(), m = numVisible(), n = numHidden();
    assert(h.cols() == n);
    if (!linalg::isBinary01(h)) {
        SamplingBackend::sampleVisibleBatch(h, v, pv, rngs);
        return;
    }
    linalg::BitMatrix hb(batch, n), vb;
    for (std::size_t r = 0; r < batch; ++r)
        hb.packRowFrom(r, h.row(r));
    packedLayerBatch(wT_, model_->visibleBias(), hb, vb, pv, rngs);
    ensureShape(v, batch, m);
    for (std::size_t r = 0; r < batch; ++r)
        vb.unpackRowTo(r, v.row(r));
}

void
SoftwareGibbsBackend::sampleHiddenBatchPacked(const linalg::BitMatrix &v,
                                              linalg::BitMatrix &h,
                                              linalg::Matrix &ph,
                                              util::Rng *rngs) const
{
    assert(v.cols() == numVisible());
    packedLayerBatch(model_->weights(), model_->hiddenBias(), v, h, ph,
                     rngs);
}

void
SoftwareGibbsBackend::sampleVisibleBatchPacked(const linalg::BitMatrix &h,
                                               linalg::BitMatrix &v,
                                               linalg::Matrix &pv,
                                               util::Rng *rngs) const
{
    assert(h.cols() == numHidden());
    packedLayerBatch(wT_, model_->visibleBias(), h, v, pv, rngs);
}

void
SoftwareGibbsBackend::annealBatch(int steps, linalg::Matrix &v,
                                  linalg::Matrix &h, linalg::Matrix &pv,
                                  linalg::Matrix &ph,
                                  util::Rng *rngs) const
{
    if (steps <= 0)
        return;
    const std::size_t batch = h.rows(), m = numVisible(), n = numHidden();
    assert(h.cols() == n);
    if (!linalg::isBinary01(h)) {
        SamplingBackend::annealBatch(steps, v, h, pv, ph, rngs);
        return;
    }
    // States stay packed for the whole walk: per step the minibatch
    // does two tiled passes over W / W^T instead of 2 * batch gemv's.
    linalg::BitMatrix hb(batch, n), vb;
    for (std::size_t r = 0; r < batch; ++r)
        hb.packRowFrom(r, h.row(r));
    for (int s = 0; s < steps; ++s) {
        packedLayerBatch(wT_, model_->visibleBias(), hb, vb, pv, rngs);
        packedLayerBatch(model_->weights(), model_->hiddenBias(), vb, hb,
                         ph, rngs);
    }
    ensureShape(v, batch, m);
    ensureShape(h, batch, n);
    for (std::size_t r = 0; r < batch; ++r) {
        vb.unpackRowTo(r, v.row(r));
        hb.unpackRowTo(r, h.row(r));
    }
}

} // namespace ising::rbm
