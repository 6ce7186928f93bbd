// SHA-1 and HMAC-SHA1 — the integrity primitives of the issl record layer
// and the PRF used for session-key derivation (SSL 3.0 / TLS 1.0 vintage,
// matching the paper's 2002-era protocol stack).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace rmc::crypto {

using common::u8;

inline constexpr std::size_t kSha1DigestBytes = 20;

/// Compressions to hash `n` bytes of message (plus 9 of padding + length).
constexpr common::u64 sha1_blocks(std::size_t n) { return (n + 9 + 63) / 64; }
/// Compressions of one HMAC-SHA1: two key-pad blocks, the message and the
/// 20-byte inner digest.
constexpr common::u64 hmac_sha1_blocks(std::size_t msg_bytes) {
  return 2 + sha1_blocks(msg_bytes) + sha1_blocks(kSha1DigestBytes);
}

/// Incremental SHA-1 (FIPS 180-1).
class Sha1 {
 public:
  Sha1() { reset(); }

  void reset();
  void update(std::span<const u8> data);
  std::array<u8, kSha1DigestBytes> finish();

  /// One-shot convenience.
  static std::array<u8, kSha1DigestBytes> digest(std::span<const u8> data);

 private:
  void process_block(const u8* block);

  std::array<common::u32, 5> h_{};
  std::array<u8, 64> buffer_{};
  std::size_t buffered_ = 0;
  common::u64 total_bytes_ = 0;
};

/// HMAC-SHA1 (RFC 2104).
std::array<u8, kSha1DigestBytes> hmac_sha1(std::span<const u8> key,
                                           std::span<const u8> message);

/// Key-derivation PRF: expands (secret, label, seed) into `out.size()` bytes
/// by counter-mode HMAC-SHA1, the shape of the SSLv3/TLS key-block
/// expansion. Both issl endpoints must call it with identical inputs.
void prf_sha1(std::span<const u8> secret, std::span<const u8> label,
              std::span<const u8> seed, std::span<u8> out);

}  // namespace rmc::crypto
