/**
 * @file
 * Bit-packed binary state containers.
 *
 * Gibbs chains over Bernoulli RBMs only ever hold {0,1} states, yet
 * the float containers spend 32 bits per unit and force the kernels to
 * test every entry against zero.  BitMatrix packs one unit per bit
 * into uint64 words (32x smaller, cache-resident for every model size
 * the paper uses) so the packed kernels in bitops.hpp can iterate set
 * units with count-trailing-zeros, and pass over 64 inactive units
 * with one test of an empty word, instead of branching on floats.  A
 * single state is a one-row BitMatrix.
 *
 * Packing convention: unit i lives in word i/64 at bit i%64; a float
 * entry packs to 1 iff it is nonzero (binary states are exactly 0.0f
 * or 1.0f, so this matches the float kernels' zero-skip test).  Rows
 * of a BitMatrix are padded to a whole word, and the pad bits are kept
 * zero so whole-word iteration needs no tail masking.
 */

#ifndef ISINGRBM_LINALG_BITS_HPP
#define ISINGRBM_LINALG_BITS_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ising::linalg {

/** Words needed to hold @p bits bits. */
inline std::size_t
bitWords(std::size_t bits)
{
    return (bits + 63) / 64;
}

/**
 * Copy @p count bits from bit offset @p srcBit of @p src to bit offset
 * @p dstBit of @p dst.  Word-aligned offsets (the common case: rows of
 * a BitMatrix start on word boundaries) take a whole-word copy with a
 * masked tail; misaligned offsets shift across word boundaries.  Bits
 * of the destination outside [dstBit, dstBit + count) are preserved,
 * so a copy into a row whose pad bits are already zero keeps them
 * zero.  Regions must not overlap.
 */
void copyBits(std::uint64_t *dst, std::size_t dstBit,
              const std::uint64_t *src, std::size_t srcBit,
              std::size_t count);

/** A batch of packed binary states, one state per (padded) row. */
class BitMatrix
{
  public:
    BitMatrix() = default;
    BitMatrix(std::size_t rows, std::size_t cols) { reset(rows, cols); }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t wordsPerRow() const { return wordsPerRow_; }

    /** Reshape to (rows x cols) bits, clearing everything. */
    void
    reset(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        wordsPerRow_ = bitWords(cols);
        words_.assign(rows * wordsPerRow_, 0);
    }

    std::uint64_t *row(std::size_t r) { return words_.data() + r * wordsPerRow_; }
    const std::uint64_t *
    row(std::size_t r) const
    {
        return words_.data() + r * wordsPerRow_;
    }

    bool
    test(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return (row(r)[c >> 6] >> (c & 63)) & 1u;
    }

    void
    set(std::size_t r, std::size_t c, bool value)
    {
        assert(r < rows_ && c < cols_);
        const std::uint64_t mask = 1ull << (c & 63);
        if (value)
            row(r)[c >> 6] |= mask;
        else
            row(r)[c >> 6] &= ~mask;
    }

    /** Pack cols() floats into row r (bit set iff nonzero; branchless). */
    void
    packRowFrom(std::size_t r, const float *src)
    {
        assert(r < rows_);
        std::uint64_t *w = row(r);
        std::fill(w, w + wordsPerRow_, 0);
        for (std::size_t c = 0; c < cols_; ++c)
            w[c >> 6] |=
                static_cast<std::uint64_t>(src[c] != 0.0f) << (c & 63);
    }

    /**
     * Copy row @p srcRow of @p src (same column count) into row @p r:
     * a whole-word memcpy, no per-bit work.  Rows start on word
     * boundaries and pad bits are zero in both matrices, so the
     * invariant is preserved for free -- this is what makes the packed
     * request gather of the serving path a pure row copy.
     */
    void
    copyRowFrom(std::size_t r, const BitMatrix &src, std::size_t srcRow)
    {
        assert(r < rows_ && srcRow < src.rows() && src.cols_ == cols_);
        std::copy_n(src.row(srcRow), wordsPerRow_, row(r));
    }

    /** Unpack row r into dst[0..cols) as 1.0f / 0.0f (branchless). */
    void
    unpackRowTo(std::size_t r, float *dst) const
    {
        assert(r < rows_);
        const std::uint64_t *w = row(r);
        for (std::size_t c = 0; c < cols_; ++c)
            dst[c] = static_cast<float>((w[c >> 6] >> (c & 63)) & 1u);
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t wordsPerRow_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace ising::linalg

#endif // ISINGRBM_LINALG_BITS_HPP
