// The crypto price the service benches charge, measured once on the
// simulated board (DESIGN.md §4): the paper's §6 conclusions are cycle
// counts on the target, so the secure redirector's CPU-cost model is priced
// from the same counts — the three record-crypto primitives of one kernel
// generation, the per-byte and per-handshake charges they imply, and the
// echo-throughput run E5 and E14 charge them in.
#pragma once

#include <array>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "dcc/codegen.h"
#include "rabbit/board.h"
#include "services/aes_port.h"
#include "soak_world.h"

namespace rmc::bench {

/// Board cycles of the record layer's three primitives.
struct PrimitiveCost {
  u64 keysetup = 0;    // AES key schedule (engine: key-load op)
  u64 aes_block = 0;   // per 16-byte block
  u64 sha1_block = 0;  // per 64-byte compression (engine: HMAC marginal)
};

/// No assembly SHA-1 ships with the kit, so the asm treatment's compression
/// is the measured C one scaled by the measured asm/C AES block ratio — an
/// estimate, multiplied before dividing.
constexpr u64 asm_sha1_block(u64 c_sha1, u64 asm_aes, u64 c_aes) {
  return c_sha1 * asm_aes / c_aes;
}

/// `impl`'s costs on the simulated board: AES from asm/aes_hand.asm or the
/// MiniDynC debug build of dc/aes.dc, SHA-1 from the debug build of
/// dc/sha1.dc (scaled by asm_sha1_block for the asm treatment). Exits the
/// process if a kernel does not build or run.
inline PrimitiveCost measure_software(services::AesImpl impl) {
  const auto debug = dcc::CodegenOptions::debug_defaults();
  auto need = [](const common::Status& s) {
    if (s.is_ok()) return;
    std::printf("kernel failed: %s\n", s.to_string().c_str());
    std::exit(1);
  };
  common::Xorshift64 rng(1);
  std::array<u8, 16> key{}, pt{}, ct{};
  rng.fill(key);
  rng.fill(pt);
  // {key schedule, one block} of `which` AES build.
  auto aes_cycles = [&](services::AesImpl which) {
    auto aes =
        services::AesOnBoard::create_from_repo(which, RMC_REPO_ROOT, debug);
    need(aes.status());
    const auto keysetup = aes->set_key(key);
    need(keysetup.status());
    const auto block = aes->encrypt(pt, ct);
    need(block.status());
    return std::pair{*keysetup, *block};
  };

  PrimitiveCost cost;
  std::tie(cost.keysetup, cost.aes_block) = aes_cycles(impl);
  const auto src =
      services::read_text_file(std::string(RMC_REPO_ROOT) + "/dc/sha1.dc");
  need(src.status());
  const auto sha1 = dcc::compile(*src, debug);
  need(sha1.status());
  rabbit::Board board;
  board.load(sha1->image);
  (void)board.call("f_sha1_init", 100'000'000);
  const auto block = board.call("f_sha1_block", 500'000'000);
  need(block.status());
  cost.sha1_block = block->cycles;
  if (impl == services::AesImpl::kHandAssembly) {
    cost.sha1_block =
        asm_sha1_block(cost.sha1_block, cost.aes_block,
                       aes_cycles(services::AesImpl::kCompiledC).second);
  }
  return cost;
}

/// What the redirector's CPU-cost model charges
/// (RedirectorConfig::crypto_cycles_per_byte / _handshake).
struct CipherCost {
  u64 cycles_per_byte = 0;
  u64 handshake_cycles = 0;
};

/// Bulk: a byte's share of one AES block and of one MAC compression.
/// Handshake: the key schedule plus 22 compressions — the PRF for master
/// secret and key block is ~8 HMACs (16 compressions), the two Finished MACs
/// and the transcript hash add ~6 more.
constexpr CipherCost cipher_cost(const PrimitiveCost& p) {
  return {p.aes_block / 16 + p.sha1_block / 64,
          p.keysetup + 22 * p.sha1_block};
}

/// An E5/E14 service: the world's seed, the redirector's PSK, and
/// `connections` clients in turn, the i-th seeded `client_seed_base + i`.
struct ThroughputSetup {
  u64 world_seed;
  std::string_view psk;
  u64 client_seed_base;
  int connections;
};

struct Throughput {
  double virtual_seconds = 0;
  u64 bytes_echoed = 0;
  double bytes_per_second() const {
    return virtual_seconds > 0 ? bytes_echoed / virtual_seconds : 0;
  }
};

/// Each client in turn echoes `payload_bytes` through the redirector and
/// closes — plaintext without a `cost`, secured and charged `cost` with one.
inline Throughput echo_throughput(const ThroughputSetup& setup,
                                  const std::optional<CipherCost>& cost,
                                  std::size_t payload_bytes) {
  SoakWorld world(setup.world_seed);
  services::RedirectorConfig cfg = service_config(setup.psk);
  cfg.secure = cost.has_value();
  if (cost) {
    cfg.crypto_cycles_per_byte = cost->cycles_per_byte;
    cfg.crypto_cycles_handshake = cost->handshake_cycles;
  }
  services::RmcRedirector red(world.add_board_stack(), world.medium, cfg);
  (void)red.start();
  const std::vector<u8> payload = random_payload(payload_bytes, 1);

  Throughput run;
  const u64 t0 = world.medium.now_ms();
  for (int conn = 0; conn < setup.connections; ++conn) {
    const auto client = world.client(cfg, setup.client_seed_base + conn);
    (void)client->start();
    (void)client->send(payload);
    for (int round = 0; round < 2'000'000; ++round) {
      red.poll();
      world.backend.poll();
      (void)client->poll();
      world.medium.tick(1);
      if (client->received().size() >= payload.size()) break;
    }
    run.bytes_echoed += client->received().size();
    client->close();
    for (int round = 0; round < 10; ++round) {
      red.poll();
      world.medium.tick(1);
    }
  }
  run.virtual_seconds = static_cast<double>(world.medium.now_ms() - t0) / 1e3;
  return run;
}

}  // namespace rmc::bench
