// The shared bench world (bench/soak_world.h): the chunked echo session every
// soak drives through the redirector, the end-of-run prefix audit, the
// budgeted one-session loop and the two-stack handshake pair; and the
// board-measured crypto price (bench/crypto_cost.h) with the record block
// counts it is charged by.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <span>
#include <vector>

#include "crypto_cost.h"
#include "issl/record.h"
#include "soak_world.h"

namespace rmc::bench {
namespace {

using State = ChunkedEcho::State;

TEST(SoakWorld, ChunkedEchoCompletesWithOneChunkInFlight) {
  SoakWorld world(7);
  const services::RedirectorConfig cfg = service_config("sw");
  services::RmcRedirector red(world.add_board_stack(), world.medium, cfg);
  ASSERT_TRUE(red.start().is_ok());

  constexpr std::size_t kChunk = 256;
  const std::vector<u8> payload = random_payload(2'048, 11);
  ChunkedEcho echo(world.client(cfg, 3), payload, kChunk);
  echo.start();

  State state = State::kLive;
  std::size_t most_in_flight = 0;
  for (int t = 0; t < 20'000 && state == State::kLive; ++t) {
    state = echo.poll();
    red.poll();
    world.backend.poll();
    world.medium.tick(1);
    // The backend has echoed only what the client sent, and the client
    // sends the next chunk only once every earlier byte came back.
    const std::size_t echoed = echo.client().received().size();
    ASSERT_LE(world.backend.bytes_served(), echoed + kChunk);
    most_in_flight =
        std::max(most_in_flight, world.backend.bytes_served() - echoed);
  }
  ASSERT_EQ(state, State::kDone);
  EXPECT_EQ(echo.client().received(), payload);
  EXPECT_GT(most_in_flight, 0u);
}

TEST(SoakWorld, TransformedEchoIsOneCorruption) {
  SoakWorld world(7);
  // A backend that upper-cases what it echoes: the plaintext leg behind the
  // SSL terminator altering bytes, which the client's MAC cannot see.
  services::EchoBackend shouting(
      world.backend_host, kBackendPort + 1,
      [](u8 b) { return static_cast<u8>(std::toupper(b)); });
  ASSERT_TRUE(shouting.start().is_ok());
  services::RedirectorConfig cfg = service_config("sw");
  cfg.backend_port = kBackendPort + 1;
  services::RmcRedirector red(world.add_board_stack(), world.medium, cfg);
  ASSERT_TRUE(red.start().is_ok());

  const std::vector<u8> payload = common::bytes_of("quiet please");
  ChunkedEcho echo(world.client(cfg, 3), payload, payload.size());
  echo.start();
  State state = State::kLive;
  for (int t = 0; t < 20'000 && state == State::kLive; ++t) {
    state = echo.poll();
    red.poll();
    shouting.poll();
    world.medium.tick(1);
  }
  ASSERT_EQ(state, State::kDone);

  EchoAudit audit;
  EXPECT_FALSE(audit.add(echo.client().received(), payload));
  EXPECT_TRUE(audit.add(payload, payload));
  EXPECT_EQ(audit.corrupt, 1);
  EXPECT_EQ(audit.bytes_echoed, payload.size());
}

TEST(SoakWorld, TruncatedEchoIsCleanNotCorrupt) {
  const std::vector<u8> payload = random_payload(1'024, 5);
  const std::span<const u8> whole(payload);
  EchoAudit audit;
  EXPECT_TRUE(audit.add(whole.first(300), payload));
  EXPECT_TRUE(audit.add({}, payload));
  std::vector<u8> flipped(payload.begin(), payload.begin() + 300);
  flipped[299] ^= 0x01;
  EXPECT_FALSE(audit.add(flipped, payload));
  EXPECT_EQ(audit.corrupt, 1);
  EXPECT_EQ(audit.bytes_echoed, 300u);
}

TEST(SoakWorld, RunSessionCountsEveryMsUpToCompletion) {
  SoakWorld world(7);
  const services::ServiceBoardConfig cfg = board_config("sw");
  services::ServiceBoard board(world.medium, cfg);
  const auto client = world.client(cfg.redirector, 3);
  const std::vector<u8> msg = common::bytes_of("one session");
  ASSERT_TRUE(client->start().is_ok());
  ASSERT_TRUE(client->send(msg).is_ok());

  u64 t = 0;
  u64 steps = 0;
  EXPECT_TRUE(run_session(*client, msg.size(), 5'000, t, [&] {
    ++steps;
    board.poll();
    world.backend.poll();
    (void)client->poll();
    world.medium.tick(1);
  }));
  EXPECT_EQ(t, steps);
  EXPECT_EQ(client->received(), msg);

  // Out of budget: no completion, and every ms polled is counted.
  ASSERT_TRUE(client->send(msg).is_ok());
  EXPECT_FALSE(run_session(*client, 3 * msg.size(), 40, t, [&] {
    ++steps;
    board.poll();
    world.backend.poll();
    (void)client->poll();
    world.medium.tick(1);
  }));
  EXPECT_EQ(t, steps);
}

TEST(HandshakePair, PskHandshakeTakesE6sFiveMessages) {
  HandshakePair pair(0xE6);
  common::Xorshift64 srng(1), crng(2);
  const issl::Config cfg = issl::Config::embedded_port();
  const std::vector<u8> psk = common::bytes_of("e6");
  issl::ServerIdentity id;
  id.psk = psk;
  auto server = issl::issl_bind_server(pair.server_stream, cfg, srng, id);
  auto client = issl::issl_bind_client(pair.client_stream, cfg, crng, psk);
  const u64 ms = pair.handshake(client, server);
  ASSERT_TRUE(client.established());
  ASSERT_TRUE(server.established());
  EXPECT_EQ(
      client.handshake_messages_seen() + server.handshake_messages_seen(), 5u);
  EXPECT_EQ(ms, 5u);
}

// E5's committed per-byte and handshake charges, from the primitive costs
// it measures for the C port and the asm treatment.
TEST(CryptoCost, CipherCostOfE5sMeasuredKernels) {
  const CipherCost c_port = cipher_cost({129'569, 374'995, 668'675});
  EXPECT_EQ(c_port.cycles_per_byte, 33'885u);
  EXPECT_EQ(c_port.handshake_cycles, 14'840'419u);
  const CipherCost hand = cipher_cost({7'416, 17'666, 31'501});
  EXPECT_EQ(hand.cycles_per_byte, 1'596u);
  EXPECT_EQ(hand.handshake_cycles, 700'438u);
}

TEST(CryptoCost, AsmSha1IsCScaledByTheAesRatio) {
  EXPECT_EQ(asm_sha1_block(668'675, 17'666, 374'995), 31'501u);
}

// The exported block counts, priced by record.cc's C-port model (70,000
// cycles per AES block, 21,000 per SHA-1 compression), are what sealing a
// record charges; the AES count is also the ciphertext the record carries.
TEST(RecordBlocks, MatchWhatSealCharges) {
  EXPECT_EQ(issl::record_blocks(16).aes, 3u);
  EXPECT_EQ(issl::record_blocks(16).sha1, 4u);
  for (const std::size_t payload : {0u, 16u, 55u, 64u, 4096u}) {
    common::Xorshift64 rng(1);
    issl::RecordCodec codec(rng, issl::Backend::kC);
    issl::DirectionKeys keys;
    keys.aes_key.assign(16, 0x11);
    ASSERT_TRUE(codec.activate_keys(keys, keys).is_ok());
    const u64 before = codec.crypto_cost_cycles();
    const auto wire = codec.seal(issl::RecordType::kApplicationData,
                                 std::vector<u8>(payload, 0xAB));
    ASSERT_TRUE(wire.ok());
    const issl::RecordBlocks blocks = issl::record_blocks(payload);
    EXPECT_EQ(codec.crypto_cost_cycles() - before,
              blocks.aes * 70'000 + blocks.sha1 * 21'000)
        << payload;
    EXPECT_EQ(wire->size(), issl::kRecordHeaderBytes + 16 + blocks.aes * 16)
        << payload;
  }
}

}  // namespace
}  // namespace rmc::bench
