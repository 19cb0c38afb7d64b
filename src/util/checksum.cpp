/**
 * @file
 * CRC-64/XZ implementation (slicing-by-8 over compile-time tables).
 */

#include "util/checksum.hpp"

#include <array>
#include <charconv>

namespace ising::util {

namespace {

/** ECMA-182 polynomial, reflected form. */
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;

using Tables = std::array<std::array<std::uint64_t, 256>, 8>;

/**
 * tables[0] is the byte-at-a-time table; tables[k][b] is the CRC
 * contribution of byte b followed by k zero bytes, so eight table
 * lookups fold one 64-bit word.
 */
constexpr Tables
buildTables()
{
    Tables tables{};
    for (std::uint64_t byte = 0; byte < 256; ++byte) {
        std::uint64_t crc = byte;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (kPoly & (~(crc & 1) + 1));
        tables[0][byte] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t byte = 0; byte < 256; ++byte)
            tables[k][byte] = tables[0][tables[k - 1][byte] & 0xFF] ^
                              (tables[k - 1][byte] >> 8);
    return tables;
}

constexpr Tables kTables = buildTables();

} // namespace

void
Crc64::update(const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    const auto &t = kTables;
    std::uint64_t crc = state_;
    for (; n >= 8; n -= 8, bytes += 8) {
        // The next eight bytes as a little-endian word on any host; at
        // -O3 GCC folds this into one load on little-endian ones.
        std::uint64_t word = 0;
        for (int i = 7; i >= 0; --i)
            word = (word << 8) | bytes[i];
        crc ^= word;
        crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
              t[5][(crc >> 16) & 0xFF] ^ t[4][(crc >> 24) & 0xFF] ^
              t[3][(crc >> 32) & 0xFF] ^ t[2][(crc >> 40) & 0xFF] ^
              t[1][(crc >> 48) & 0xFF] ^ t[0][crc >> 56];
    }
    for (; n > 0; --n, ++bytes)
        crc = t[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
    state_ = crc;
}

std::uint64_t
crc64(std::string_view data)
{
    Crc64 crc;
    crc.update(data.data(), data.size());
    return crc.value();
}

std::string
crc64Hex(std::uint64_t value)
{
    static const char *kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
        value >>= 4;
    }
    return out;
}

bool
parseCrc64Hex(std::string_view text, std::uint64_t &out)
{
    // Base-16 from_chars takes digits of either case and no sign or
    // "0x" prefix; sixteen of them always fit.
    std::uint64_t value = 0;
    const char *const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value, 16);
    if (text.size() != 16 || ec != std::errc() || ptr != end)
        return false;
    out = value;
    return true;
}

} // namespace ising::util
