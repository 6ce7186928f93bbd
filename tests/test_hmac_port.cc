// HMAC-SHA1 MiniDynC port (dc/hmac.dc over dc/sha1.dc): RFC 2202 vectors on
// the board, multi-block streaming, agreement with the host implementation,
// and the on-board cost of one record MAC.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/prng.h"
#include "crypto/sha1.h"
#include "dcc/codegen.h"
#include "rabbit/board.h"
#include "services/aes_port.h"

namespace rmc {
namespace {

using common::u16;
using common::u32;
using common::u8;

struct HmacBoard {
  dcc::CompileOutput out;
  rabbit::Board board;
  u32 key_addr = 0, hi_addr = 0, lo_addr = 0;
  common::u64 last_cycles = 0;

  HmacBoard() {
    auto sha = services::read_text_file(std::string(RMC_REPO_ROOT) +
                                        "/dc/sha1.dc");
    auto hmac = services::read_text_file(std::string(RMC_REPO_ROOT) +
                                         "/dc/hmac.dc");
    EXPECT_TRUE(sha.ok() && hmac.ok());
    auto compiled = dcc::compile(*sha + *hmac);
    EXPECT_TRUE(compiled.ok()) << compiled.status().to_string();
    out = std::move(*compiled);
    board.load(out.image);
    EXPECT_TRUE(out.image.find_symbol("g_hmac_key", key_addr));
    EXPECT_TRUE(out.image.find_symbol("g_h_hi", hi_addr));
    EXPECT_TRUE(out.image.find_symbol("g_h_lo", lo_addr));
  }

  void call1(const char* fn, const char* param, u16 value) {
    u32 slot = 0;
    ASSERT_TRUE(out.image.find_symbol(
        ("l_" + std::string(fn) + "_" + param).c_str(), slot));
    board.mem().write16(static_cast<u16>(slot), value);
    auto r = board.call("f_" + std::string(fn), 2'000'000'000ULL);
    ASSERT_TRUE(r.ok());
    last_cycles = r->cycles;
  }

  std::array<u8, 20> mac(std::span<const u8> key, std::span<const u8> msg) {
    std::array<u8, 20> digest{};
    EXPECT_LE(key.size(), 64u);
    for (std::size_t i = 0; i < key.size(); ++i) {
      board.mem().write(static_cast<u16>(key_addr + i), key[i]);
    }
    call1("hmac_begin", "klen", static_cast<u16>(key.size()));
    common::u64 total = last_cycles;
    for (u8 b : msg) {
      call1("hmac_byte", "b", b);
      total += last_cycles;
    }
    auto r = board.call("f_hmac_end", 2'000'000'000ULL);
    EXPECT_TRUE(r.ok());
    total += r->cycles;
    last_cycles = total;
    for (int w = 0; w < 5; ++w) {
      const u16 hi = board.mem().read16(static_cast<u16>(hi_addr + 2 * w));
      const u16 lo = board.mem().read16(static_cast<u16>(lo_addr + 2 * w));
      digest[4 * w + 0] = static_cast<u8>(hi >> 8);
      digest[4 * w + 1] = static_cast<u8>(hi & 0xFF);
      digest[4 * w + 2] = static_cast<u8>(lo >> 8);
      digest[4 * w + 3] = static_cast<u8>(lo & 0xFF);
    }
    return digest;
  }
};

using common::bytes_of;

TEST(HmacPort, Rfc2202Vector1) {
  HmacBoard hb;
  const std::vector<u8> key(20, 0x0b);
  const auto digest = hb.mac(key, bytes_of("Hi There"));
  EXPECT_EQ(common::to_hex(digest),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacPort, Rfc2202Vector2) {
  HmacBoard hb;
  const auto digest =
      hb.mac(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(common::to_hex(digest),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacPort, MultiBlockMessageMatchesHost) {
  // > 64 bytes forces the streaming path across block boundaries.
  HmacBoard hb;
  common::Xorshift64 rng(0x2202);
  std::vector<u8> key(32), msg(150);
  rng.fill(key);
  rng.fill(msg);
  const auto digest = hb.mac(key, msg);
  const auto want = crypto::hmac_sha1(key, msg);
  EXPECT_EQ(common::to_hex(digest), common::to_hex(want));
}

TEST(HmacPort, RecordMacCostReported) {
  // One issl record MAC (~64 B payload) on the board, debug build: this is
  // the per-record overhead the E5 cost model charges.
  HmacBoard hb;
  const std::vector<u8> key(20, 1);
  std::vector<u8> payload(64, 0x42);
  (void)hb.mac(key, payload);
  // 4 compressions (2 inner blocks + padding + outer): six digits of cycles.
  EXPECT_GT(hb.last_cycles, 400'000u);
}

}  // namespace
}  // namespace rmc
