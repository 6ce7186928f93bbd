// Cross-cutting coverage: the redirector's crypto CPU-cost model, a second
// on-board cipher workload (dc/rc4.dc) checked against a host RC4 (RFC 6229
// vectors), whole-program disassembly of the hand AES, and IoBus fallback
// behaviour.
#include <gtest/gtest.h>

#include "dcc/codegen.h"
#include "rabbit/board.h"
#include "rasm/assembler.h"
#include "rasm/disasm.h"
#include "services/aes_port.h"
#include "services/redirector.h"

namespace rmc {
namespace {

using common::u32;
using common::u8;

using common::bytes_of;

// ---------------------------------------------------------------------------
// Crypto cost model: charging measured cycles must slow the secure service
// ---------------------------------------------------------------------------

common::u64 virtual_ms_for_request(common::u64 cycles_per_byte,
                                   common::u64 handshake_cycles) {
  net::SimNet medium(0xC0);
  net::TcpStack board(medium, 1);
  net::TcpStack backend_host(medium, 2);
  net::TcpStack client_host(medium, 3);
  services::EchoBackend backend(backend_host, 8000);
  (void)backend.start();
  services::RedirectorConfig cfg;
  cfg.listen_port = 4433;
  cfg.backend_ip = 2;
  cfg.backend_port = 8000;
  cfg.psk = bytes_of("c");
  cfg.crypto_cycles_per_byte = cycles_per_byte;
  cfg.crypto_cycles_handshake = handshake_cycles;
  services::RmcRedirector red(board, medium, cfg);
  (void)red.start();
  services::Client client(client_host, 1, 4433, true,
                          issl::Config::embedded_port(), bytes_of("c"));
  (void)client.start();
  std::vector<u8> payload(256, 0x42);
  (void)client.send(payload);
  const common::u64 t0 = medium.now_ms();
  for (int i = 0; i < 400'000; ++i) {
    red.poll();
    backend.poll();
    (void)client.poll();
    medium.tick(1);
    if (client.received().size() >= payload.size()) break;
  }
  EXPECT_EQ(client.received().size(), payload.size());
  return medium.now_ms() - t0;
}

TEST(CryptoCostModel, ChargedCyclesStretchVirtualTime) {
  const common::u64 free_time = virtual_ms_for_request(0, 0);
  const common::u64 hs_only = virtual_ms_for_request(0, 3'000'000);  // 100 ms
  const common::u64 bulk_too =
      virtual_ms_for_request(30'000, 3'000'000);  // +1 ms/byte
  EXPECT_GE(hs_only, free_time + 90);
  EXPECT_GE(bulk_too, hs_only + 400);  // 512 forwarded bytes at 1 ms each
}

// ---------------------------------------------------------------------------
// RC4 on the board vs host RC4 (RFC 6229 vector + random agreement)
// ---------------------------------------------------------------------------

struct HostRc4 {
  u8 S[256];
  int i = 0, j = 0;
  explicit HostRc4(std::span<const u8> key) {
    for (int k = 0; k < 256; ++k) S[k] = static_cast<u8>(k);
    int jj = 0;
    for (int k = 0; k < 256; ++k) {
      jj = (jj + S[k] + key[k % key.size()]) & 255;
      std::swap(S[k], S[jj]);
    }
  }
  u8 next() {
    i = (i + 1) & 255;
    j = (j + S[i]) & 255;
    std::swap(S[i], S[j]);
    return S[(S[i] + S[j]) & 255];
  }
};

struct Rc4Board {
  dcc::CompileOutput out;
  rabbit::Board board;

  explicit Rc4Board(const dcc::CodegenOptions& opts) {
    auto src = services::read_text_file(std::string(RMC_REPO_ROOT) +
                                        "/dc/rc4.dc");
    EXPECT_TRUE(src.ok());
    auto compiled = dcc::compile(*src, opts);
    EXPECT_TRUE(compiled.ok()) << compiled.status().to_string();
    out = std::move(*compiled);
    board.load(out.image);
  }

  u32 sym(const char* name) {
    u32 a = 0;
    EXPECT_TRUE(out.image.find_symbol(name, a)) << name;
    return a;
  }

  // MiniDynC calling convention: write the argument into the static
  // parameter slot, then call.
  void call1(const std::string& fn, const std::string& param,
             common::u16 value) {
    board.mem().write16(
        static_cast<common::u16>(sym(("l_" + fn + "_" + param).c_str())),
        value);
    auto r = board.call("f_" + fn, 500'000'000);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->stop, rabbit::StopReason::kHalted);
  }
};

TEST(Rc4Port, MatchesHostRc4OnRfc6229Vector) {
  // RFC 6229, key 0102030405: first keystream bytes b2 39 63 05 ...
  Rc4Board rc4(dcc::CodegenOptions::debug_defaults());
  const std::vector<u8> key = {1, 2, 3, 4, 5};
  const u32 key_addr = rc4.sym("g_rc4_key");
  for (std::size_t i = 0; i < key.size(); ++i) {
    rc4.board.mem().write(static_cast<common::u16>(key_addr + i), key[i]);
  }
  rc4.call1("rc4_setup", "klen", static_cast<common::u16>(key.size()));
  // Encrypt 16 zero bytes: the output IS the keystream.
  const u32 buf_addr = rc4.sym("g_rc4_buf");
  for (int i = 0; i < 16; ++i) {
    rc4.board.mem().write(static_cast<common::u16>(buf_addr + i), 0);
  }
  rc4.call1("rc4_crypt", "n", 16);
  std::vector<u8> stream;
  for (int i = 0; i < 16; ++i) {
    stream.push_back(rc4.board.mem().read(static_cast<common::u16>(buf_addr + i)));
  }
  EXPECT_EQ(common::to_hex(stream), "b2396305f03dc027ccc3524a0a1118a8");
}

TEST(Rc4Port, OptimizedBuildAgreesWithHostOnRandomData) {
  Rc4Board rc4(dcc::CodegenOptions::all_optimizations());
  common::Xorshift64 rng(0x6229);
  std::vector<u8> key(16);
  rng.fill(key);
  const u32 key_addr = rc4.sym("g_rc4_key");
  for (std::size_t i = 0; i < key.size(); ++i) {
    rc4.board.mem().write(static_cast<common::u16>(key_addr + i), key[i]);
  }
  rc4.call1("rc4_setup", "klen", 16);

  std::vector<u8> data(200);
  rng.fill(data);
  const u32 buf_addr = rc4.sym("g_rc4_buf");
  for (std::size_t i = 0; i < data.size(); ++i) {
    rc4.board.mem().write(static_cast<common::u16>(buf_addr + i), data[i]);
  }
  rc4.call1("rc4_crypt", "n", 200);

  HostRc4 host(key);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const u8 want = static_cast<u8>(data[i] ^ host.next());
    EXPECT_EQ(rc4.board.mem().read(static_cast<common::u16>(buf_addr + i)),
              want)
        << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Whole-program disassembly of the hand AES
// ---------------------------------------------------------------------------

TEST(Disasm, HandAesCodeFullyDecodable) {
  auto src = services::read_text_file(std::string(RMC_REPO_ROOT) +
                                      "/asm/aes_hand.asm");
  ASSERT_TRUE(src.ok());
  auto out = rasm::assemble(*src);
  ASSERT_TRUE(out.ok());
  // Find the code chunk (root flash, org 0x0100).
  const rabbit::ImageChunk* code = nullptr;
  for (const auto& chunk : out->image.chunks) {
    if (chunk.phys_addr == 0x0100) code = &chunk;
  }
  ASSERT_NE(code, nullptr);
  std::size_t offset = 0;
  int instructions = 0;
  while (offset < code->bytes.size()) {
    auto one = rasm::disassemble_one(code->bytes, offset,
                                     static_cast<common::u16>(0x0100 + offset));
    ASSERT_TRUE(one.valid) << "undecodable byte at offset " << offset << ": "
                           << one.text;
    offset += one.length;
    ++instructions;
  }
  EXPECT_GT(instructions, 300);  // the unrolled cipher is sizeable
}

// ---------------------------------------------------------------------------
// IoBus fallback accounting
// ---------------------------------------------------------------------------

TEST(IoBusExtra, UnclaimedAccessesCounted) {
  rabbit::Board board;
  const u8 v = board.io().read(0x0042);  // nothing mapped there
  EXPECT_EQ(v, 0xFF);                    // floating bus
  board.io().write(0x0042, 1);
  EXPECT_EQ(board.io().unclaimed_reads(), 1u);
  EXPECT_EQ(board.io().unclaimed_writes(), 1u);
}

TEST(BoardExtra, SecondsHelper) {
  EXPECT_DOUBLE_EQ(rabbit::Board::seconds(30'000'000), 1.0);
  EXPECT_DOUBLE_EQ(rabbit::Board::seconds(30'000), 0.001);
}

}  // namespace
}  // namespace rmc
