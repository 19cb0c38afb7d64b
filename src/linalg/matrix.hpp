/**
 * @file
 * Dense row-major matrix and vector containers.
 *
 * The library deliberately uses a small self-contained dense package:
 * RBM training touches every weight every step, so a cache-friendly
 * contiguous layout plus the blocked kernels in linalg/ops.hpp covers
 * everything the simulator needs without an external BLAS.
 */

#ifndef ISINGRBM_LINALG_MATRIX_HPP
#define ISINGRBM_LINALG_MATRIX_HPP

#include <cassert>
#include <cstddef>
#include <vector>

namespace ising::linalg {

/** Contiguous float vector with size checking in debug builds. */
class Vector
{
  public:
    Vector() = default;
    explicit Vector(std::size_t n, float value = 0.0f) : data_(n, value) {}

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &
    operator[](std::size_t i)
    {
        assert(i < data_.size());
        return data_[i];
    }

    float
    operator[](std::size_t i) const
    {
        assert(i < data_.size());
        return data_[i];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    auto begin() { return data_.begin(); }
    auto end() { return data_.end(); }
    auto begin() const { return data_.begin(); }
    auto end() const { return data_.end(); }

    /** Set every entry to the given value. */
    void fill(float value) { std::fill(data_.begin(), data_.end(), value); }

    /** Resize, zero-filling new entries. */
    void resize(std::size_t n) { data_.resize(n, 0.0f); }

    bool operator==(const Vector &other) const = default;

  private:
    std::vector<float> data_;
};

/** Row-major dense matrix of float. */
class Matrix
{
  public:
    Matrix() = default;

    Matrix(std::size_t rows, std::size_t cols, float value = 0.0f)
        : rows_(rows), cols_(cols), data_(rows * cols, value)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &
    operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float
    operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Pointer to the start of row r. */
    float *row(std::size_t r) { return data_.data() + r * cols_; }
    const float *row(std::size_t r) const { return data_.data() + r * cols_; }

    /** Set every entry to the given value. */
    void fill(float value) { std::fill(data_.begin(), data_.end(), value); }

    /** Reshape to new dimensions, discarding old contents. */
    void
    reset(std::size_t rows, std::size_t cols, float value = 0.0f)
    {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, value);
    }

    bool operator==(const Matrix &other) const = default;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace ising::linalg

#endif // ISINGRBM_LINALG_MATRIX_HPP
