// Byte-level utilities shared by every subsystem.
//
// The simulated target is an 8-bit little-endian machine (Rabbit 2000), so
// 8/16-bit loads/stores and hex formatting show up everywhere: the CPU core,
// the assembler, the compiler's constant emission, and the crypto test
// vectors. Centralising them keeps endianness handling in one audited place.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rmc::common {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Bytes of a 16-bit value, little-endian (Rabbit/Z80 memory order).
constexpr u8 lo8(u16 v) { return static_cast<u8>(v & 0xFF); }
constexpr u8 hi8(u16 v) { return static_cast<u8>((v >> 8) & 0xFF); }
constexpr u16 make16(u8 lo, u8 hi) {
  return static_cast<u16>(static_cast<u16>(lo) | (static_cast<u16>(hi) << 8));
}

/// Load/store little-endian 16/32-bit values from byte buffers.
constexpr u16 load16le(std::span<const u8> b) { return make16(b[0], b[1]); }
constexpr u32 load32le(std::span<const u8> b) {
  return static_cast<u32>(b[0]) | (static_cast<u32>(b[1]) << 8) |
         (static_cast<u32>(b[2]) << 16) | (static_cast<u32>(b[3]) << 24);
}
constexpr u32 load32be(std::span<const u8> b) {
  return (static_cast<u32>(b[0]) << 24) | (static_cast<u32>(b[1]) << 16) |
         (static_cast<u32>(b[2]) << 8) | static_cast<u32>(b[3]);
}
constexpr void store16le(std::span<u8> b, u16 v) {
  b[0] = lo8(v);
  b[1] = hi8(v);
}
constexpr void store32le(std::span<u8> b, u32 v) {
  b[0] = static_cast<u8>(v);
  b[1] = static_cast<u8>(v >> 8);
  b[2] = static_cast<u8>(v >> 16);
  b[3] = static_cast<u8>(v >> 24);
}
constexpr void store32be(std::span<u8> b, u32 v) {
  b[0] = static_cast<u8>(v >> 24);
  b[1] = static_cast<u8>(v >> 16);
  b[2] = static_cast<u8>(v >> 8);
  b[3] = static_cast<u8>(v);
}

/// Rotate helpers used by the crypto kernels.
constexpr u32 rotl32(u32 v, unsigned n) {
  n &= 31U;
  return n == 0 ? v : (v << n) | (v >> (32U - n));
}
constexpr u32 rotr32(u32 v, unsigned n) { return rotl32(v, 32U - (n & 31U)); }
constexpr u8 rotl8(u8 v, unsigned n) {
  n &= 7U;
  return n == 0 ? v : static_cast<u8>((v << n) | (v >> (8U - n)));
}

/// The bytes of a string, for handing text to byte-oriented APIs.
inline std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

/// Format bytes as lowercase hex ("deadbeef"). Used by tests and dumps.
std::string to_hex(std::span<const u8> bytes);

/// Parse hex text ("dead beef", case-insensitive, whitespace ignored) into
/// bytes. Returns empty vector on malformed input with an odd nibble count or
/// a non-hex character.
std::vector<u8> from_hex(std::string_view text);

/// Classic side-by-side hex dump (offset / bytes / ASCII), one row per 16
/// bytes, suitable for serial-console debugging output.
std::string hexdump(std::span<const u8> bytes, u32 base_addr = 0);

/// Constant-time comparison for MACs and key material: never early-exits on
/// the first mismatching byte.
bool ct_equal(std::span<const u8> a, std::span<const u8> b);

}  // namespace rmc::common
