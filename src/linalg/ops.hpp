/**
 * @file
 * Dense kernels used by the RBM trainers and behavioral accelerator
 * models: matrix-vector products in both orientations, the affine
 * sigmoid, transposes, reductions and elementwise maps.
 *
 * All kernels operate on the row-major containers from matrix.hpp.
 */

#ifndef ISINGRBM_LINALG_OPS_HPP
#define ISINGRBM_LINALG_OPS_HPP

#include <cstddef>

#include "linalg/matrix.hpp"

namespace ising::linalg {

/**
 * y = W^T x + b where W is (m x n), x is length m, y/b length n.
 *
 * This is the visible->hidden projection of an RBM: column sums of
 * current in the analog coupling fabric.
 */
void gemvT(const Matrix &w, const Vector &x, const Vector &b, Vector &y);

/**
 * y = W h + b where W is (m x n), h is length n, y/b length m.
 *
 * The hidden->visible projection (row sums of current).
 */
void gemv(const Matrix &w, const Vector &h, const Vector &b, Vector &y);

/**
 * out = sigmoid(b + X^T x) where X is (p x q), x length p, out/b
 * length q.
 *
 * The one conditional-mean product both Gibbs half-sweeps share: pass
 * W with a visible state to get P(h|v), or the cached transpose W^T
 * with a hidden state to get P(v|h).  Rows accumulate contiguously
 * into the output and zero inputs are skipped, which on binary states
 * removes roughly half the work.
 */
void affineSigmoid(const Matrix &x, const float *in, const Vector &b,
                   Vector &out);

/** dst = src^T with a cache-blocked traversal (reuses dst storage). */
void transposeInto(const Matrix &src, Matrix &dst);

/** y += alpha * x elementwise. */
void axpy(float alpha, const Vector &x, Vector &y);
void axpy(float alpha, const Matrix &x, Matrix &y);

/** Sum of all entries. */
double sum(const Vector &v);
double sum(const Matrix &m);

/**
 * Elementwise transform in place.  Header templates so the functor
 * inlines into the loop -- the former std::function signature paid an
 * indirect call per element, which defeated vectorization in the
 * weight-decay/momentum update paths.
 */
template <typename Fn>
void
apply(Vector &v, Fn &&fn)
{
    float *d = v.data();
    for (std::size_t i = 0; i < v.size(); ++i)
        d[i] = fn(d[i]);
}

template <typename Fn>
void
apply(Matrix &m, Fn &&fn)
{
    float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        d[i] = fn(d[i]);
}

/** Maximum absolute difference between two matrices (shape-checked). */
double maxAbsDiff(const Matrix &a, const Matrix &b);

} // namespace ising::linalg

#endif // ISINGRBM_LINALG_OPS_HPP
