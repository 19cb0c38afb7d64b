/**
 * @file
 * Small numeric helpers shared across modules.
 */

#ifndef ISINGRBM_UTIL_MATH_HPP
#define ISINGRBM_UTIL_MATH_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace ising::util {

/**
 * Numerically safe logistic function 1 / (1 + exp(-x)).  The float
 * sigmoid of the sampling kernels is linalg::simd::KernelTable::sigmoid.
 */
inline double
sigmoid(double x)
{
    if (x >= 0.0) {
        const double z = std::exp(-x);
        return 1.0 / (1.0 + z);
    }
    const double z = std::exp(x);
    return z / (1.0 + z);
}

/** log(1 + exp(x)) without overflow: the softplus function. */
inline double
softplus(double x)
{
    if (x > 30.0)
        return x;
    if (x < -30.0)
        return std::exp(x);
    return std::log1p(std::exp(x));
}

/** Clamp helper mirroring std::clamp but tolerant of reversed bounds. */
inline double
clampTo(double x, double lo, double hi)
{
    if (lo > hi)
        std::swap(lo, hi);
    return std::min(hi, std::max(lo, x));
}

/**
 * Numerically stable log-sum-exp over a buffer.
 *
 * Returns log(sum_i exp(v[i])).  Used by the exact partition-function
 * enumeration and by AIS weight averaging.
 */
double logSumExp(const double *v, std::size_t n);

/** Convenience overload. */
inline double
logSumExp(const std::vector<double> &v)
{
    return logSumExp(v.data(), v.size());
}

/** Geometric mean of strictly positive values. */
double geometricMean(const std::vector<double> &v);

/** Spin <-> bit conversions used by the QUBO/Ising mapping sigma = 2b-1. */
inline int
bitToSpin(int b)
{
    return 2 * b - 1;
}

inline int
spinToBit(int s)
{
    return (s + 1) / 2;
}

} // namespace ising::util

#endif // ISINGRBM_UTIL_MATH_HPP
