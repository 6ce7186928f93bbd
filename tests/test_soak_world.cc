// The shared soak world (bench/soak_world.h): the chunked echo session every
// soak drives through the redirector, the end-of-run prefix audit, and the
// budgeted one-session loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <span>
#include <vector>

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

}  // namespace
}  // namespace rmc::bench
