// Integration tests for the secure redirector — the case study's artifact —
// in both builds (Unix fork-style with RSA, RMC2000 costatement port with
// PSK), against the echo backend over the simulated network. Covers the
// Figure-3 connection ceiling (E4's subject), end-to-end secure forwarding,
// plaintext baseline, ring-buffer logging, and failure paths.
#include <gtest/gtest.h>

#include "services/redirector.h"

namespace rmc::services {
namespace {

using common::u8;
using net::IpAddr;
using net::Port;

constexpr IpAddr kRedirectorIp = 1;
constexpr IpAddr kBackendIp = 2;
constexpr IpAddr kClientIp = 3;
constexpr Port kTlsPort = 4433;
constexpr Port kBackendPort = 8000;

using common::bytes_of;

// A world with a redirector host, a backend host, and one client host.
struct World {
  net::SimNet net{321};
  net::TcpStack redirector_stack{net, kRedirectorIp};
  net::TcpStack backend_stack{net, kBackendIp};
  net::TcpStack client_stack{net, kClientIp};
  EchoBackend backend{backend_stack, kBackendPort,
                      [](u8 b) { return static_cast<u8>(std::toupper(b)); }};

  RedirectorConfig rmc_config() {
    RedirectorConfig cfg;
    cfg.listen_port = kTlsPort;
    cfg.backend_ip = kBackendIp;
    cfg.backend_port = kBackendPort;
    cfg.secure = true;
    cfg.tls = issl::Config::embedded_port();
    cfg.psk = bytes_of("board-psk");
    cfg.handler_slots = 3;
    return cfg;
  }

  RedirectorConfig unix_config(common::Xorshift64& rng) {
    RedirectorConfig cfg = rmc_config();
    cfg.secure = true;
    cfg.tls = issl::Config::unix_default();
    cfg.rsa = crypto::rsa_generate(cfg.tls.rsa_modulus_bits, rng);
    cfg.psk.clear();
    return cfg;
  }

  Client make_client(bool secure, const issl::Config& tls,
                     std::vector<u8> psk, common::u64 seed = 0xC11E47) {
    return Client(client_stack, kRedirectorIp, kTlsPort, secure, tls,
                  std::move(psk), seed);
  }
};

// Drive a world containing one redirector and a set of clients.
template <typename Redirector>
void run_world(World& w, Redirector& red, std::vector<Client*> clients,
               int rounds) {
  for (int i = 0; i < rounds; ++i) {
    red.poll();        // redirector costatements (also ticks the medium for
                       // the RMC build; for Unix we tick explicitly below)
    w.backend.poll();
    for (Client* c : clients) c->poll();
    w.net.tick(1);
  }
}

TEST(RmcRedirector, SecureEndToEndForwarding) {
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  RmcRedirector red(w.redirector_stack, w.net, w.rmc_config());
  ASSERT_TRUE(red.start().is_ok());

  Client client = w.make_client(true, issl::Config::embedded_port(),
                                bytes_of("board-psk"));
  ASSERT_TRUE(client.start().is_ok());
  ASSERT_TRUE(client.send(bytes_of("hello embedded world")).is_ok());
  run_world(w, red, {&client}, 600);

  // The backend upper-cases; the client must get the transformed bytes back
  // over the encrypted channel.
  EXPECT_EQ(std::string(client.received().begin(), client.received().end()),
            "HELLO EMBEDDED WORLD");
  EXPECT_GE(red.stats().bytes_client_to_backend, 20u);
  EXPECT_GE(red.stats().bytes_backend_to_client, 20u);
  EXPECT_EQ(red.stats().handshake_failures, 0u);
}

TEST(RmcRedirector, ConnectionCeilingIsHandlerCount) {
  // E4 / Figure 3: with 3 handler costatements, a 4th simultaneous client
  // cannot complete the secure handshake until a slot frees up.
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  RmcRedirector red(w.redirector_stack, w.net, w.rmc_config());
  ASSERT_TRUE(red.start().is_ok());

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(w.make_client(
        true, issl::Config::embedded_port(), bytes_of("board-psk"),
        0x1000 + i)));
    ASSERT_TRUE(clients.back()->start().is_ok());
  }
  std::vector<Client*> raw;
  for (auto& c : clients) raw.push_back(c.get());
  run_world(w, red, raw, 800);

  int done = 0;
  Client* pending = nullptr;
  Client* established = nullptr;
  for (auto& c : clients) {
    if (c->handshake_done()) {
      ++done;
      established = c.get();
    } else {
      pending = c.get();
    }
  }
  EXPECT_EQ(done, 3);  // the compile-time ceiling
  EXPECT_EQ(red.stats().connections_active, 3u);
  ASSERT_NE(pending, nullptr);
  ASSERT_NE(established, nullptr);

  // Free one slot: close a finished client; the pending one then completes.
  established->close();
  run_world(w, red, raw, 2500);
  EXPECT_TRUE(pending->handshake_done());
  EXPECT_GE(red.stats().connections_served, 1u);
}

TEST(RmcRedirector, PlaintextBuildForwardsWithoutCrypto) {
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  RedirectorConfig cfg = w.rmc_config();
  cfg.secure = false;
  RmcRedirector red(w.redirector_stack, w.net, cfg);
  ASSERT_TRUE(red.start().is_ok());

  Client client = w.make_client(false, issl::Config::embedded_port(), {});
  ASSERT_TRUE(client.start().is_ok());
  ASSERT_TRUE(client.send(bytes_of("plain text")).is_ok());
  run_world(w, red, {&client}, 400);
  EXPECT_EQ(std::string(client.received().begin(), client.received().end()),
            "PLAIN TEXT");
}

TEST(RmcRedirector, WrongPskClientIsRejectedAndSlotRecycles) {
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  RmcRedirector red(w.redirector_stack, w.net, w.rmc_config());
  ASSERT_TRUE(red.start().is_ok());

  Client bad = w.make_client(true, issl::Config::embedded_port(),
                             bytes_of("wrong-psk"));
  ASSERT_TRUE(bad.start().is_ok());
  run_world(w, red, {&bad}, 600);
  EXPECT_TRUE(bad.failed());
  EXPECT_GE(red.stats().handshake_failures, 1u);

  // The slot must be reusable by a good client afterwards.
  Client good = w.make_client(true, issl::Config::embedded_port(),
                              bytes_of("board-psk"), 0xBEEF);
  ASSERT_TRUE(good.start().is_ok());
  ASSERT_TRUE(good.send(bytes_of("ok?")).is_ok());
  run_world(w, red, {&good}, 800);
  EXPECT_EQ(std::string(good.received().begin(), good.received().end()),
            "OK?");
}

TEST(RmcRedirector, RingLogStaysWithinBudget) {
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  RedirectorConfig cfg = w.rmc_config();
  cfg.log_capacity_bytes = 32;  // tiny SRAM budget
  RmcRedirector red(w.redirector_stack, w.net, cfg);
  ASSERT_TRUE(red.start().is_ok());

  // Serve several sequential connections to generate log churn.
  for (int round = 0; round < 5; ++round) {
    Client c = w.make_client(true, issl::Config::embedded_port(),
                             bytes_of("board-psk"), 0x5000 + round);
    ASSERT_TRUE(c.start().is_ok());
    ASSERT_TRUE(c.send(bytes_of("x")).is_ok());
    run_world(w, red, {&c}, 500);
    c.close();
    run_world(w, red, {&c}, 200);
  }
  EXPECT_LE(red.log().used_bytes(), 32u);
  EXPECT_GT(red.log().total_appended(), red.log().entry_count());  // evicted
}

TEST(RmcRedirector, DeadBackendHandledGracefully) {
  World w;  // note: backend never started
  RmcRedirector red(w.redirector_stack, w.net, w.rmc_config());
  ASSERT_TRUE(red.start().is_ok());
  Client client = w.make_client(true, issl::Config::embedded_port(),
                                bytes_of("board-psk"));
  ASSERT_TRUE(client.start().is_ok());
  run_world(w, red, {&client}, 800);
  // No crash; the slot recycles (connection counted as served).
  EXPECT_GE(red.stats().connections_served, 1u);
  EXPECT_EQ(red.stats().connections_active, 0u);
}

TEST(UnixRedirector, SecureRsaEndToEnd) {
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  common::Xorshift64 keygen_rng(77);
  RedirectorConfig cfg = w.unix_config(keygen_rng);
  UnixRedirector red(w.redirector_stack, cfg);
  ASSERT_TRUE(red.start().is_ok());

  Client client = w.make_client(true, issl::Config::unix_default(), {});
  ASSERT_TRUE(client.start().is_ok());
  ASSERT_TRUE(client.send(bytes_of("rsa forwarded")).is_ok());
  run_world(w, red, {&client}, 800);
  EXPECT_EQ(std::string(client.received().begin(), client.received().end()),
            "RSA FORWARDED");
  EXPECT_EQ(red.stats().handshake_failures, 0u);
}

TEST(UnixRedirector, ManySimultaneousConnections) {
  // The point of fork(): no small compile-time ceiling. Ten concurrent
  // clients all complete (vs. the RMC build's three).
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  common::Xorshift64 keygen_rng(78);
  RedirectorConfig cfg = w.unix_config(keygen_rng);
  UnixRedirector red(w.redirector_stack, cfg);
  ASSERT_TRUE(red.start().is_ok());

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client*> raw;
  for (int i = 0; i < 10; ++i) {
    clients.push_back(std::make_unique<Client>(
        w.make_client(true, issl::Config::unix_default(), {}, 0x2000 + i)));
    ASSERT_TRUE(clients.back()->start().is_ok());
    raw.push_back(clients.back().get());
  }
  run_world(w, red, raw, 3000);
  int done = 0;
  for (auto& c : clients) done += c->handshake_done() ? 1 : 0;
  EXPECT_EQ(done, 10);
  EXPECT_GE(red.log().size(), 10u);  // unbounded log keeps everything
}

TEST(RmcRedirector, SlotAccountingCoversAllConfiguredHandlerSlots) {
  // Regression: the durable slot counters were a fixed 8-entry array behind
  // an `if (slot < 8)` guard while handler_slots is unbounded, so a
  // 10-handler board silently dropped all accounting for slots 8 and 9.
  // Now the array is sized from the record's declared capacity
  // (kDurableSlotCounters) with an explicit overflow aggregate, and the
  // record's schema says so.
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  RedirectorConfig cfg = w.rmc_config();
  cfg.handler_slots = 10;
  RmcRedirector red(w.redirector_stack, w.net, cfg);
  ASSERT_TRUE(red.start().is_ok());

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client*> ptrs;
  for (int i = 0; i < 10; ++i) {
    clients.push_back(std::make_unique<Client>(w.make_client(
        true, issl::Config::embedded_port(), bytes_of("board-psk"),
        0xC11E47 + static_cast<common::u64>(i))));
    ASSERT_TRUE(clients.back()->start().is_ok());
    ASSERT_TRUE(clients.back()->send(bytes_of("slot test")).is_ok());
    ptrs.push_back(clients.back().get());
  }
  // Nobody closes until everyone is served, so all ten handler slots end up
  // occupied simultaneously before the first close lands.
  run_world(w, red, ptrs, 4'000);
  for (auto& c : clients) {
    EXPECT_EQ(std::string(c->received().begin(), c->received().end()),
              "SLOT TEST");
    c->close();
  }
  run_world(w, red, ptrs, 600);  // handlers wind down and account

  const auto& d = red.durable_state();
  EXPECT_EQ(d.schema, RedirectorDurableState{}.schema);
  EXPECT_EQ(red.stats().connections_served, 10u);
  common::u64 sum = 0;
  for (std::size_t s = 0; s < kDurableSlotCounters; ++s) {
    sum += d.slot_cycles[s];
  }
  EXPECT_EQ(sum, red.stats().connections_served);
  EXPECT_EQ(d.slot_cycles_overflow, 0u);
  // The slots the old guard dropped on the floor are the interesting ones.
  EXPECT_EQ(d.slot_cycles[8], 1u);
  EXPECT_EQ(d.slot_cycles[9], 1u);
}

TEST(EchoBackendTest, TransformsAndCountsBytes) {
  World w;
  ASSERT_TRUE(w.backend.start().is_ok());
  auto c = w.client_stack.connect(kBackendIp, kBackendPort);
  ASSERT_TRUE(c.ok());
  for (int i = 0; i < 20; ++i) {
    w.net.tick(1);
    w.backend.poll();
  }
  ASSERT_TRUE(w.client_stack.is_established(*c));
  const auto msg = bytes_of("abc");
  ASSERT_TRUE(w.client_stack.send(*c, msg).ok());
  for (int i = 0; i < 20; ++i) {
    w.net.tick(1);
    w.backend.poll();
  }
  u8 buf[16];
  auto n = w.client_stack.recv(*c, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "ABC");
  EXPECT_EQ(w.backend.bytes_served(), 3u);
}

}  // namespace
}  // namespace rmc::services
