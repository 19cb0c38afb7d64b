/**
 * @file
 * Per-layer probes of the traced run.
 */

#include "probes.hpp"

#include <vector>

#include "common.hpp"
#include "exec/parallel_for.hpp"
#include "linalg/bitops.hpp"
#include "rbm/sampling_backend.hpp"

namespace perfbench {

namespace {

using namespace ising;

/** One deterministic stream per chain row. */
std::vector<util::Rng>
rowStreams(std::size_t rows)
{
    std::vector<util::Rng> rngs;
    for (std::size_t r = 0; r < rows; ++r)
        rngs.push_back(util::Rng::stream(0x70726f6265ull, r));
    return rngs;
}

} // namespace

double
halfsweepNsPerRow(const rbm::Rbm &model, const linalg::BitMatrix &rows)
{
    const rbm::SoftwareGibbsBackend backend(model);
    std::vector<util::Rng> rngs = rowStreams(rows.rows());
    linalg::BitMatrix hidden, visible;
    linalg::Matrix ph, pv;
    const double perCall = secondsPerCall(kProbeSeconds, [&] {
        backend.sampleHiddenBatchPacked(rows, hidden, ph, rngs.data());
        backend.sampleVisibleBatchPacked(hidden, visible, pv, rngs.data());
    });
    return perCall * 1e9 / (2.0 * static_cast<double>(rows.rows()));
}

double
halfsweepBytes(std::size_t visible, std::size_t hidden, std::size_t rows)
{
    const auto packed = [rows](std::size_t units) {
        return static_cast<double>(rows * linalg::bitWords(units) * 8);
    };
    const double weights =
        static_cast<double>(visible * hidden * sizeof(float));
    const double up = weights + packed(visible) + packed(hidden) +
                      static_cast<double>(rows * hidden * sizeof(float));
    const double down = weights + packed(hidden) + packed(visible) +
                        static_cast<double>(rows * visible * sizeof(float));
    return 0.5 * (up + down);
}

double
reduceUs(const rbm::Rbm &model, const linalg::BitMatrix &batch)
{
    // The CD-1 statistics the trainer reduces: data, hidden sample,
    // reconstruction, hidden sample of the reconstruction.
    const rbm::SoftwareGibbsBackend backend(model);
    std::vector<util::Rng> rngs = rowStreams(batch.rows());
    linalg::Matrix vpos(batch.rows(), batch.cols()), hpos, vneg, hneg, p;
    for (std::size_t r = 0; r < batch.rows(); ++r)
        batch.unpackRowTo(r, vpos.row(r));
    backend.sampleHiddenBatch(vpos, hpos, p, rngs.data());
    backend.sampleVisibleBatch(hpos, vneg, p, rngs.data());
    backend.sampleHiddenBatch(vneg, hneg, p, rngs.data());

    linalg::BitMatrix posT, hposT, negT, hnegT;
    linalg::packTransposed(vpos, posT);
    linalg::packTransposed(hpos, hposT);
    linalg::packTransposed(vneg, negT);
    linalg::packTransposed(hneg, hnegT);
    linalg::Matrix dw(model.numVisible(), model.numHidden());
    const linalg::simd::KernelTable &kt = linalg::simd::activeTable();
    return 1e6 * secondsPerCall(kProbeSeconds, [&] {
        linalg::outerCountDiff(kt, posT, hposT, negT, hnegT, dw, 0,
                               dw.rows());
    });
}

double
parallelForUs()
{
    exec::ThreadPool &pool = exec::globalPool();
    return 1e6 * secondsPerCall(kProbeSeconds, [&] {
        exec::parallelFor(pool, pool.numWorkers(), [](std::size_t) {});
    });
}

} // namespace perfbench
