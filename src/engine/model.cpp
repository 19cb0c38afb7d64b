/**
 * @file
 * engine::Model implementation.
 */

#include "engine/model.hpp"

#include <algorithm>
#include <cassert>

#include "exec/parallel_for.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace ising::engine {

namespace {

/** DBM variational sweeps used for serving (its training default). */
constexpr int kMeanFieldIters = 10;

/** Root seed of the scratch streams deterministic ops hand the
 *  backends (their means do not depend on the draws). */
constexpr std::uint64_t kScratchSeed = 0x5EEDF00Dull;

/** Refill the scratch stream vector in place (capacity is reused). */
void
fillScratchRngs(std::vector<util::Rng> &rngs, std::size_t rows)
{
    rngs.clear();
    rngs.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r)
        rngs.push_back(util::Rng::stream(kScratchSeed, r));
}

void
ensureShape(linalg::Matrix &m, std::size_t rows, std::size_t cols)
{
    if (m.rows() != rows || m.cols() != cols)
        m.reset(rows, cols);
}

} // namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::Sample: return "sample";
      case Op::Featurize: return "featurize";
      case Op::Classify: return "classify";
      case Op::Reconstruct: return "reconstruct";
    }
    util::fatal("engine: unknown op");
}

Op
opFromName(const std::string &name)
{
    for (const Op op : {Op::Sample, Op::Featurize, Op::Classify,
                        Op::Reconstruct})
        if (name == opName(op))
            return op;
    util::fatal("engine: unknown op '" + name +
                "' (use sample, featurize, classify or reconstruct)");
}

Model::Model(rbm::Checkpoint ckpt, exec::ThreadPool *pool)
    : ckpt_(std::move(ckpt)), pool_(pool)
{
    switch (family()) {
      case rbm::ModelFamily::Rbm:
        flat_ = std::make_unique<rbm::SoftwareGibbsBackend>(
            std::get<rbm::Rbm>(ckpt_.model), pool_);
        break;
      case rbm::ModelFamily::ClassRbm:
        flat_ = std::make_unique<rbm::SoftwareGibbsBackend>(
            std::get<rbm::ClassRbm>(ckpt_.model).joint(), pool_);
        break;
      case rbm::ModelFamily::CfRbm: {
        // Re-host the softmax-group parameters as a plain RBM: the
        // conditionals over the dense (user x star) indicator layout
        // are exactly the flat RBM conditionals.
        const auto &cf = std::get<rbm::CfRbm>(ckpt_.model);
        cfFlat_ = rbm::Rbm(cf.weights().rows(), cf.weights().cols());
        cfFlat_.weights() = cf.weights();
        cfFlat_.visibleBias() = cf.visibleBias();
        cfFlat_.hiddenBias() = cf.hiddenBias();
        flat_ = std::make_unique<rbm::SoftwareGibbsBackend>(cfFlat_,
                                                            pool_);
        break;
      }
      case rbm::ModelFamily::Dbn: {
        const auto &stack = std::get<rbm::Dbn>(ckpt_.model);
        for (std::size_t l = 0; l < stack.numLayers(); ++l)
            layers_.push_back(
                std::make_unique<rbm::SoftwareGibbsBackend>(
                    stack.layer(l), pool_));
        break;
      }
      case rbm::ModelFamily::ConvRbm:
      case rbm::ModelFamily::Dbm:
        break;  // no flat joint RBM; served through family math
    }
}

exec::ThreadPool &
Model::pool() const
{
    return pool_ ? *pool_ : exec::globalPool();
}

const rbm::SoftwareGibbsBackend *
Model::sampler() const
{
    if (flat_)
        return flat_.get();
    return layers_.empty() ? nullptr : layers_.front().get();
}

bool
Model::supports(Op op) const
{
    switch (family()) {
      case rbm::ModelFamily::Rbm:
      case rbm::ModelFamily::CfRbm:
      case rbm::ModelFamily::Dbn:
        return op != Op::Classify;
      case rbm::ModelFamily::ClassRbm:
        return op == Op::Sample || op == Op::Classify;
      case rbm::ModelFamily::ConvRbm:
      case rbm::ModelFamily::Dbm:
        return op == Op::Featurize || op == Op::Reconstruct;
    }
    return false;
}

bool
Model::supportsPackedInput(Op op) const
{
    if (op != Op::Featurize && op != Op::Reconstruct)
        return false;
    switch (family()) {
      case rbm::ModelFamily::Rbm:
      case rbm::ModelFamily::CfRbm:
      case rbm::ModelFamily::Dbn:
        return supports(op);
      case rbm::ModelFamily::ClassRbm:
      case rbm::ModelFamily::ConvRbm:
      case rbm::ModelFamily::Dbm:
        return false;
    }
    return false;
}

std::size_t
Model::inputDim() const
{
    switch (family()) {
      case rbm::ModelFamily::Rbm:
        return std::get<rbm::Rbm>(ckpt_.model).numVisible();
      case rbm::ModelFamily::ClassRbm:
        return std::get<rbm::ClassRbm>(ckpt_.model).numPixels();
      case rbm::ModelFamily::CfRbm:
        return cfFlat_.numVisible();
      case rbm::ModelFamily::ConvRbm: {
        const auto &cfg = std::get<rbm::ConvRbm>(ckpt_.model).config();
        return cfg.imageSide * cfg.imageSide;
      }
      case rbm::ModelFamily::Dbn:
        return std::get<rbm::Dbn>(ckpt_.model).layer(0).numVisible();
      case rbm::ModelFamily::Dbm:
        return std::get<rbm::Dbm>(ckpt_.model).numVisible();
    }
    return 0;
}

std::size_t
Model::outputDim(Op op) const
{
    switch (op) {
      case Op::Classify:
        return 0;
      case Op::Reconstruct:
        return inputDim();
      case Op::Sample:
        // The flat joint's visible layer (joint pixels+labels for
        // ClassRbm, the first layer for a DBN).
        return sampler() ? sampler()->numVisible() : 0;
      case Op::Featurize:
        switch (family()) {
          case rbm::ModelFamily::Rbm:
            return std::get<rbm::Rbm>(ckpt_.model).numHidden();
          case rbm::ModelFamily::CfRbm:
            return cfFlat_.numHidden();
          case rbm::ModelFamily::ConvRbm:
            return std::get<rbm::ConvRbm>(ckpt_.model).featureDim();
          case rbm::ModelFamily::Dbn: {
            const auto &stack = std::get<rbm::Dbn>(ckpt_.model);
            return stack.layer(stack.numLayers() - 1).numHidden();
          }
          case rbm::ModelFamily::Dbm: {
            const auto &dbm = std::get<rbm::Dbm>(ckpt_.model);
            return dbm.hidden1() + dbm.hidden2();
          }
          case rbm::ModelFamily::ClassRbm:
            return 0;
        }
        return 0;
    }
    return 0;
}

void
Model::sampleRows(int burnIn, std::size_t rows, util::Rng *rngs,
                  linalg::Matrix &out, BatchScratch &scratch) const
{
    if (!supports(Op::Sample))
        util::fatal(std::string("engine: family ") + familyName() +
                    " does not support sampling");
    burnIn = std::max(1, burnIn);
    linalg::Matrix &h = scratch.a, &v = scratch.b, &pv = scratch.c,
                   &ph = scratch.d;

    if (family() == rbm::ModelFamily::Dbn) {
        // Standard DBN generation: anneal in the top RBM, then one
        // deterministic mean-field pass down the directed stack.
        const rbm::SoftwareGibbsBackend &top = *layers_.back();
        ensureShape(h, rows, top.numHidden());
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t j = 0; j < top.numHidden(); ++j)
                h(r, j) = rngs[r].bernoulli(0.5) ? 1.0f : 0.0f;
        top.annealBatch(burnIn, v, h, pv, ph, rngs);
        linalg::Matrix &cur = scratch.stage;
        cur = pv;
        for (std::size_t l = layers_.size() - 1; l-- > 0;) {
            // ph receives the means; the swap makes them the next
            // layer's input without copying (both buffers are fully
            // overwritten by the following sweep).
            layers_[l]->sampleVisibleBatch(cur, v, ph, rngs);
            std::swap(cur, ph);
        }
        out = cur;
        return;
    }

    const rbm::SoftwareGibbsBackend &backend = *sampler();
    ensureShape(h, rows, backend.numHidden());
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t j = 0; j < backend.numHidden(); ++j)
            h(r, j) = rngs[r].bernoulli(0.5) ? 1.0f : 0.0f;
    backend.annealBatch(burnIn, v, h, pv, ph, rngs);
    out = pv;
}

void
Model::featurizeRows(const linalg::Matrix &in, linalg::Matrix &out,
                     BatchScratch &scratch) const
{
    if (!supports(Op::Featurize))
        util::fatal(std::string("engine: family ") + familyName() +
                    " does not support featurize");
    const std::size_t rows = in.rows();
    assert(in.cols() == inputDim());

    switch (family()) {
      case rbm::ModelFamily::Rbm:
      case rbm::ModelFamily::CfRbm: {
        fillScratchRngs(scratch.rngs, rows);
        sampler()->sampleHiddenBatch(in, scratch.a, out,
                                     scratch.rngs.data());
        return;
      }
      case rbm::ModelFamily::Dbn: {
        fillScratchRngs(scratch.rngs, rows);
        linalg::Matrix &cur = scratch.stage;
        cur = in;
        for (const auto &layer : layers_) {
            layer->sampleHiddenBatch(cur, scratch.a, scratch.b,
                                     scratch.rngs.data());
            std::swap(cur, scratch.b);
        }
        out = cur;
        return;
      }
      case rbm::ModelFamily::ConvRbm: {
        const auto &conv = std::get<rbm::ConvRbm>(ckpt_.model);
        ensureShape(out, rows, conv.featureDim());
        exec::parallelForChunks(pool(), rows, [&](std::size_t begin,
                                                  std::size_t end) {
            for (std::size_t r = begin; r < end; ++r)
                conv.features(in.row(r), out.row(r));
        });
        return;
      }
      case rbm::ModelFamily::Dbm: {
        const auto &dbm = std::get<rbm::Dbm>(ckpt_.model);
        const std::size_t n1 = dbm.hidden1(), n2 = dbm.hidden2();
        ensureShape(out, rows, n1 + n2);
        exec::parallelForChunks(pool(), rows, [&](std::size_t begin,
                                                  std::size_t end) {
            std::vector<double> mu1, mu2;
            for (std::size_t r = begin; r < end; ++r) {
                dbm.meanField(in.row(r), kMeanFieldIters, mu1, mu2);
                float *dst = out.row(r);
                for (std::size_t j = 0; j < n1; ++j)
                    dst[j] = static_cast<float>(mu1[j]);
                for (std::size_t k = 0; k < n2; ++k)
                    dst[n1 + k] = static_cast<float>(mu2[k]);
            }
        });
        return;
      }
      case rbm::ModelFamily::ClassRbm:
        break;
    }
    util::fatal("engine: featurize unreachable");
}

void
Model::featurizeRowsPacked(const linalg::BitMatrix &in,
                           linalg::Matrix &out,
                           BatchScratch &scratch) const
{
    if (!supportsPackedInput(Op::Featurize))
        util::fatal(std::string("engine: family ") + familyName() +
                    " does not support packed featurize");
    assert(in.cols() == inputDim());
    fillScratchRngs(scratch.rngs, in.rows());
    if (family() == rbm::ModelFamily::Dbn) {
        // Only the first layer sees binary rows; the upper layers
        // consume the means below them and stay on the float path,
        // exactly as featurizeRows dispatches them.
        layers_.front()->sampleHiddenBatchPacked(in, scratch.pa,
                                                 scratch.b,
                                                 scratch.rngs.data());
        linalg::Matrix &cur = scratch.stage;
        std::swap(cur, scratch.b);
        for (std::size_t l = 1; l < layers_.size(); ++l) {
            layers_[l]->sampleHiddenBatch(cur, scratch.a, scratch.b,
                                          scratch.rngs.data());
            std::swap(cur, scratch.b);
        }
        out = cur;
        return;
    }
    flat_->sampleHiddenBatchPacked(in, scratch.pa, out,
                                   scratch.rngs.data());
}

void
Model::reconstructRows(const linalg::Matrix &in, util::Rng *rngs,
                       linalg::Matrix &out, BatchScratch &scratch) const
{
    if (!supports(Op::Reconstruct))
        util::fatal(std::string("engine: family ") + familyName() +
                    " does not support reconstruct");
    const std::size_t rows = in.rows();
    assert(in.cols() == inputDim());

    switch (family()) {
      case rbm::ModelFamily::Rbm:
      case rbm::ModelFamily::CfRbm: {
        sampler()->sampleHiddenBatch(in, scratch.a, scratch.b, rngs);
        sampler()->sampleVisibleBatch(scratch.a, scratch.c, out, rngs);
        return;
      }
      case rbm::ModelFamily::Dbn: {
        // Mean-field both ways through the stack (deterministic).
        fillScratchRngs(scratch.rngs, rows);
        linalg::Matrix &cur = scratch.stage;
        cur = in;
        for (const auto &layer : layers_) {
            layer->sampleHiddenBatch(cur, scratch.a, scratch.b,
                                     scratch.rngs.data());
            std::swap(cur, scratch.b);
        }
        for (std::size_t l = layers_.size(); l-- > 0;) {
            layers_[l]->sampleVisibleBatch(cur, scratch.a, scratch.b,
                                           scratch.rngs.data());
            std::swap(cur, scratch.b);
        }
        out = cur;
        return;
      }
      case rbm::ModelFamily::ConvRbm: {
        const auto &conv = std::get<rbm::ConvRbm>(ckpt_.model);
        ensureShape(out, rows, inputDim());
        exec::parallelForChunks(pool(), rows, [&](std::size_t begin,
                                                  std::size_t end) {
            std::vector<float> maps, image;
            for (std::size_t r = begin; r < end; ++r) {
                conv.hiddenMaps(in.row(r), maps);
                conv.reconstruct(maps, image);
                std::copy(image.begin(), image.end(), out.row(r));
            }
        });
        return;
      }
      case rbm::ModelFamily::Dbm: {
        const auto &dbm = std::get<rbm::Dbm>(ckpt_.model);
        const std::size_t m = dbm.numVisible(), n1 = dbm.hidden1();
        ensureShape(out, rows, m);
        exec::parallelForChunks(pool(), rows, [&](std::size_t begin,
                                                  std::size_t end) {
            std::vector<double> mu1, mu2;
            for (std::size_t r = begin; r < end; ++r) {
                dbm.meanField(in.row(r), kMeanFieldIters, mu1, mu2);
                float *dst = out.row(r);
                for (std::size_t i = 0; i < m; ++i) {
                    double a = dbm.visibleBias()[i];
                    const float *row = dbm.w1().row(i);
                    for (std::size_t j = 0; j < n1; ++j)
                        a += row[j] * mu1[j];
                    dst[i] = static_cast<float>(util::sigmoid(a));
                }
            }
        });
        return;
      }
      case rbm::ModelFamily::ClassRbm:
        break;
    }
    util::fatal("engine: reconstruct unreachable");
}

void
Model::reconstructRowsPacked(const linalg::BitMatrix &in, util::Rng *rngs,
                             linalg::Matrix &out,
                             BatchScratch &scratch) const
{
    if (!supportsPackedInput(Op::Reconstruct))
        util::fatal(std::string("engine: family ") + familyName() +
                    " does not support packed reconstruct");
    assert(in.cols() == inputDim());

    if (family() == rbm::ModelFamily::Dbn) {
        // Mean-field both ways: after the packed first up-sweep the
        // staging rows are means, so the rest of the stack walks the
        // float path exactly as reconstructRows does.
        fillScratchRngs(scratch.rngs, in.rows());
        layers_.front()->sampleHiddenBatchPacked(in, scratch.pa,
                                                 scratch.b,
                                                 scratch.rngs.data());
        linalg::Matrix &cur = scratch.stage;
        std::swap(cur, scratch.b);
        for (std::size_t l = 1; l < layers_.size(); ++l) {
            layers_[l]->sampleHiddenBatch(cur, scratch.a, scratch.b,
                                          scratch.rngs.data());
            std::swap(cur, scratch.b);
        }
        for (std::size_t l = layers_.size(); l-- > 0;) {
            layers_[l]->sampleVisibleBatch(cur, scratch.a, scratch.b,
                                           scratch.rngs.data());
            std::swap(cur, scratch.b);
        }
        out = cur;
        return;
    }

    // Latch hidden from the packed rows, then the down half-sweep: the
    // intermediate hidden sample never leaves the bit domain, and only
    // the reported visible means materialize as floats.
    flat_->sampleHiddenBatchPacked(in, scratch.pa, scratch.b, rngs);
    flat_->sampleVisibleBatchPacked(scratch.pa, scratch.pb, out, rngs);
}

void
Model::classifyRows(const linalg::Matrix &in, std::vector<int> &out) const
{
    if (!supports(Op::Classify))
        util::fatal(std::string("engine: family ") + familyName() +
                    " does not support classify");
    const auto &model = std::get<rbm::ClassRbm>(ckpt_.model);
    const std::size_t rows = in.rows();
    assert(in.cols() == inputDim());
    out.assign(rows, -1);
    exec::parallelForChunks(pool(), rows, [&](std::size_t begin,
                                              std::size_t end) {
        for (std::size_t r = begin; r < end; ++r)
            out[r] = model.classify(in.row(r));
    });
}

} // namespace ising::engine
