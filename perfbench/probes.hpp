/**
 * @file
 * Per-layer probes of the traced run: timed calls into one module's
 * public functions at the workload's shape, made from the benchmark's
 * own files so the library carries no instrumentation.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstddef>

#include "linalg/bits.hpp"
#include "rbm/rbm.hpp"

namespace perfbench {

/** How long each probe times its call (seconds). */
constexpr double kProbeSeconds = 0.15;

/**
 * rbm.halfsweep_ns_per_row: one packed up half-sweep plus one packed
 * down half-sweep (SamplingBackend::sample*BatchPacked) over @p rows,
 * in nanoseconds per row and half-sweep.
 */
double halfsweepNsPerRow(const ising::rbm::Rbm &model,
                         const ising::linalg::BitMatrix &rows);

/**
 * linalg.halfsweep_bytes: bytes one half-sweep of @p rows chains
 * touches, computed from the tensor sizes (weights, packed input and
 * output states, float means), averaged over the two directions.
 */
double halfsweepBytes(std::size_t visible, std::size_t hidden,
                      std::size_t rows);

/**
 * linalg.reduce_us: one CD-1 gradient reduce (linalg::outerCountDiff
 * over the whole weight matrix, one thread) for the CD-1 statistics of
 * @p batch, in microseconds.
 */
double reduceUs(const ising::rbm::Rbm &model,
                const ising::linalg::BitMatrix &batch);

/** exec.parallel_for_us: one empty parallelFor over the global pool. */
double parallelForUs();

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
