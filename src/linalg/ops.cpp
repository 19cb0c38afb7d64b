/**
 * @file
 * Kernel implementations.  The loops are written so GCC auto-vectorizes
 * the inner dimension; profiling showed this is within ~2x of OpenBLAS
 * for the matrix shapes RBM training uses (hundreds to ~1k per side),
 * which is plenty for a behavioral simulator.
 */

#include "linalg/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/simd_dispatch.hpp"

namespace ising::linalg {

void
gemvT(const Matrix &w, const Vector &x, const Vector &b, Vector &y)
{
    const std::size_t m = w.rows(), n = w.cols();
    assert(x.size() == m && b.size() == n);
    y.resize(n);
    for (std::size_t j = 0; j < n; ++j)
        y[j] = b[j];
    // Traverse W row-wise (contiguous) and accumulate into y.
    for (std::size_t i = 0; i < m; ++i) {
        const float xi = x[i];
        if (xi == 0.0f)
            continue;
        const float *wrow = w.row(i);
        float *yd = y.data();
        for (std::size_t j = 0; j < n; ++j)
            yd[j] += xi * wrow[j];
    }
}

void
gemv(const Matrix &w, const Vector &h, const Vector &b, Vector &y)
{
    const std::size_t m = w.rows(), n = w.cols();
    assert(h.size() == n && b.size() == m);
    y.resize(m);
    const float *hd = h.data();
    for (std::size_t i = 0; i < m; ++i) {
        const float *wrow = w.row(i);
        float acc = 0.0f;
        for (std::size_t j = 0; j < n; ++j)
            acc += wrow[j] * hd[j];
        y[i] = acc + b[i];
    }
}

void
affineSigmoid(const Matrix &x, const float *in, const Vector &b,
              Vector &out)
{
    const std::size_t p = x.rows(), q = x.cols();
    assert(b.size() == q);
    out.resize(q);
    float *yd = out.data();
    for (std::size_t j = 0; j < q; ++j)
        yd[j] = b[j];
    // Rows are accumulated contiguously into y (which stays cache
    // resident); zero inputs -- roughly half of any binary state --
    // skip their row entirely.
    for (std::size_t i = 0; i < p; ++i) {
        const float xi = in[i];
        if (xi == 0.0f)
            continue;
        const float *xrow = x.row(i);
        for (std::size_t j = 0; j < q; ++j)
            yd[j] += xi * xrow[j];
    }
    simd::activeTable().sigmoid(yd, q);
}

void
transposeInto(const Matrix &src, Matrix &dst)
{
    const std::size_t m = src.rows(), n = src.cols();
    dst.reset(n, m);
    constexpr std::size_t kBlock = 32;
    for (std::size_t ib = 0; ib < m; ib += kBlock) {
        const std::size_t iEnd = std::min(m, ib + kBlock);
        for (std::size_t jb = 0; jb < n; jb += kBlock) {
            const std::size_t jEnd = std::min(n, jb + kBlock);
            for (std::size_t i = ib; i < iEnd; ++i) {
                const float *srow = src.row(i);
                for (std::size_t j = jb; j < jEnd; ++j)
                    dst(j, i) = srow[j];
            }
        }
    }
}

void
axpy(float alpha, const Vector &x, Vector &y)
{
    assert(x.size() == y.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] += alpha * x[i];
}

void
axpy(float alpha, const Matrix &x, Matrix &y)
{
    assert(x.rows() == y.rows() && x.cols() == y.cols());
    const float *xd = x.data();
    float *yd = y.data();
    for (std::size_t i = 0; i < x.size(); ++i)
        yd[i] += alpha * xd[i];
}

double
sum(const Vector &v)
{
    double acc = 0.0;
    for (float x : v)
        acc += x;
    return acc;
}

double
sum(const Matrix &m)
{
    double acc = 0.0;
    const float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        acc += d[i];
    return acc;
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    assert(a.rows() == b.rows() && a.cols() == b.cols());
    double worst = 0.0;
    const float *ad = a.data(), *bd = b.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, static_cast<double>(std::fabs(ad[i] - bd[i])));
    return worst;
}

} // namespace ising::linalg
