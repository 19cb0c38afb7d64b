/**
 * @file
 * CRC-64 archive integrity checksum.
 *
 * Checkpoint archives are rename-published while a serving process may
 * reload them at any moment; the trailer checksum is what lets a
 * reader distinguish "complete archive" from "torn or corrupted
 * bytes" without trusting the filesystem.  The variant is CRC-64/XZ
 * (ECMA-182 polynomial, reflected, init/xorout all-ones) -- the same
 * parameters xz-utils uses, so external tooling can re-verify a
 * trailer.
 */

#ifndef ISINGRBM_UTIL_CHECKSUM_HPP
#define ISINGRBM_UTIL_CHECKSUM_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ising::util {

/** Incremental CRC-64/XZ over a byte stream. */
class Crc64
{
  public:
    /** Fold @p n bytes into the running checksum. */
    void update(const void *data, std::size_t n);

    /** Checksum of everything folded in so far. */
    std::uint64_t value() const { return ~state_; }

  private:
    std::uint64_t state_ = ~0ull;
};

/** One-shot convenience over a contiguous buffer. */
std::uint64_t crc64(std::string_view data);

/** Fixed-width lowercase hex spelling used in archive trailers. */
std::string crc64Hex(std::uint64_t value);

/**
 * Parse a crc64Hex spelling.  Returns false (leaving @p out untouched)
 * unless @p text is exactly 16 lowercase/uppercase hex digits.
 */
bool parseCrc64Hex(std::string_view text, std::uint64_t &out);

} // namespace ising::util

#endif // ISINGRBM_UTIL_CHECKSUM_HPP
