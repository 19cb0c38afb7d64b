/**
 * @file
 * Packed kernel implementations.
 *
 * The shape checks, bias fill, packing and latch logic live here; the
 * tiled accumulate walk, the sigmoid and the popcount loops route
 * through the caller's simd::KernelTable, whose tier compiled them
 * (see linalg/kernel_bodies.hpp).
 */

#include "linalg/bitops.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace ising::linalg {

void
copyBits(std::uint64_t *dst, std::size_t dstBit,
         const std::uint64_t *src, std::size_t srcBit, std::size_t count)
{
    if (count == 0)
        return;
    // Masked read-modify-write of one destination word.
    const auto blend = [](std::uint64_t &word, std::uint64_t bits,
                          std::uint64_t mask) {
        word = (word & ~mask) | (bits & mask);
    };
    // Fetch @p n bits (n <= 64) starting at an arbitrary source bit,
    // right-aligned.  Reads the second word only when the run actually
    // crosses into it, so the read never strays past the source span.
    const auto fetch = [&](std::size_t bit, std::size_t n) {
        const std::size_t word = bit >> 6, shift = bit & 63;
        std::uint64_t bits = src[word] >> shift;
        if (shift != 0 && shift + n > 64)
            bits |= src[word + 1] << (64 - shift);
        return bits;
    };

    dst += dstBit >> 6;
    dstBit &= 63;
    if (dstBit != 0) {
        // Head: fill the destination up to its next word boundary.
        const std::size_t n = std::min(count, 64 - dstBit);
        const std::uint64_t mask =
            (n == 64 ? ~0ull : (1ull << n) - 1) << dstBit;
        blend(*dst, fetch(srcBit, n) << dstBit, mask);
        srcBit += n;
        count -= n;
        ++dst;
    }
    if ((srcBit & 63) == 0) {
        // Both sides word-aligned from here: the fast path the packed
        // request gather takes -- whole-word copies, one masked tail.
        const std::uint64_t *from = src + (srcBit >> 6);
        const std::size_t words = count >> 6;
        std::copy_n(from, words, dst);
        if (const std::size_t tail = count & 63)
            blend(dst[words], from[words], (1ull << tail) - 1);
        return;
    }
    for (; count >= 64; count -= 64, srcBit += 64)
        *dst++ = fetch(srcBit, 64);
    if (count)
        blend(*dst, fetch(srcBit, count), (1ull << count) - 1);
}

bool
isBinary01(const float *x, std::size_t n)
{
    // Accumulate the predicate instead of early-exiting: the scan
    // vectorizes and never mispredicts on the (usual) all-binary case.
    int bad = 0;
    for (std::size_t i = 0; i < n; ++i)
        bad |= static_cast<int>(x[i] != 0.0f) &
               static_cast<int>(x[i] != 1.0f);
    return bad == 0;
}

bool
isBinary01(const Matrix &m)
{
    return isBinary01(m.data(), m.size());
}

void
accumulateBatchTile(const simd::KernelTable &kt, const Matrix &w,
                    const BitMatrix &in, const Vector &b, Matrix &act,
                    std::size_t rowBegin, std::size_t rowEnd,
                    std::size_t colBegin, std::size_t colEnd)
{
    assert(in.cols() == w.rows() && b.size() == w.cols());
    assert(act.rows() == in.rows() && act.cols() == w.cols());
    assert(rowEnd <= in.rows() && colEnd <= w.cols());

    for (std::size_t r = rowBegin; r < rowEnd; ++r) {
        float *arow = act.row(r);
        for (std::size_t j = colBegin; j < colEnd; ++j)
            arow[j] = b[j];
    }
    kt.accumulateTile(w.data(), w.cols(), in.row(0), in.wordsPerRow(),
                      act.data(), act.cols(), rowBegin, rowEnd, colBegin,
                      colEnd);
}

void
sampleBatchRow(const simd::KernelTable &kt, Matrix &act, std::size_t r,
               BitMatrix &out, util::Rng &rng)
{
    const std::size_t q = act.cols();
    assert(out.rows() == act.rows() && out.cols() == q);
    float *arow = act.row(r);
    std::uint64_t *ow = out.row(r);
    std::fill(ow, ow + out.wordsPerRow(), 0);
    kt.sigmoid(arow, q);
    for (std::size_t j = 0; j < q; ++j) {
        // Branchless latch: the comparison outcome is a coin flip, so
        // a conditional store would mispredict half the time.  The
        // latch is contract-pinned scalar in every tier (one draw per
        // unit, ascending).
        ow[j >> 6] |=
            static_cast<std::uint64_t>(rng.uniformFloat() < arow[j])
            << (j & 63);
    }
}

void
sampleBatch(const simd::KernelTable &kt, const Matrix &w,
            const BitMatrix &in, const Vector &b, BitMatrix &out,
            Matrix &means, util::Rng *rngs)
{
    const std::size_t batch = in.rows(), q = w.cols();
    means.reset(batch, q);
    out.reset(batch, q);
    accumulateBatchTile(kt, w, in, b, means, 0, batch, 0, q);
    for (std::size_t r = 0; r < batch; ++r)
        sampleBatchRow(kt, means, r, out, rngs[r]);
}

void
packTransposed(const Matrix &src, BitMatrix &dst)
{
    const std::size_t rows = src.rows(), cols = src.cols();
    dst.reset(cols, rows);
    const std::size_t stride = dst.wordsPerRow();
    // Row order, 64 rows (one word of every unit) at a time: each float
    // of a row is ORed as bit r & 63 into a contiguous word per unit,
    // which vectorizes, and the finished words then land in the
    // transposed rows with one strided store per unit.
    std::vector<std::uint64_t> block(cols);
    std::uint64_t *acc = block.data();
    for (std::size_t w = 0; w < stride; ++w) {
        std::fill_n(acc, cols, 0);
        const std::size_t end = std::min(rows, (w + 1) * 64);
        for (std::size_t r = w * 64; r < end; ++r) {
            const float *srow = src.row(r);
            const std::size_t shift = r & 63;
            for (std::size_t c = 0; c < cols; ++c)
                acc[c] |= static_cast<std::uint64_t>(srow[c] != 0.0f)
                          << shift;
        }
        for (std::size_t c = 0; c < cols; ++c)
            dst.row(c)[w] = acc[c];
    }
}

void
outerCountDiff(const simd::KernelTable &kt, const BitMatrix &a,
               const BitMatrix &b, const BitMatrix &c, const BitMatrix &d,
               Matrix &out, std::size_t rowBegin, std::size_t rowEnd)
{
    const std::size_t n = out.cols(), words = a.wordsPerRow();
    assert(a.rows() == out.rows() && c.rows() == out.rows());
    assert(b.rows() == n && d.rows() == n);
    assert(b.wordsPerRow() == words && c.wordsPerRow() == words &&
           d.wordsPerRow() == words);
    assert(rowEnd <= out.rows());
    if (words == 0) {  // empty batch: every count is zero
        for (std::size_t i = rowBegin; i < rowEnd; ++i)
            std::fill_n(out.row(i), n, 0.0f);
        return;
    }
    // The kernels read b/d word-major (word w of unit j at [w * n + j]);
    // a one-word row already is.
    const std::uint64_t *bw = b.row(0), *dw = d.row(0);
    std::vector<std::uint64_t> view;
    if (words > 1) {
        view.resize(2 * words * n);
        std::uint64_t *bv = view.data(), *dv = bv + words * n;
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t *bj = b.row(j), *dj = d.row(j);
            for (std::size_t w = 0; w < words; ++w) {
                bv[w * n + j] = bj[w];
                dv[w * n + j] = dj[w];
            }
        }
        bw = bv;
        dw = dv;
    }
    kt.outerCountDiff(a.row(0), bw, c.row(0), dw, words, n, out.data(),
                      out.cols(), rowBegin, rowEnd);
}

void
rowCounts(const simd::KernelTable &kt, const BitMatrix &m, float *counts)
{
    for (std::size_t r = 0; r < m.rows(); ++r)
        counts[r] = static_cast<float>(
            kt.popcountWords(m.row(r), m.wordsPerRow()));
}

} // namespace ising::linalg
