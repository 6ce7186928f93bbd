// Whole-world integration stress: the embedded (Figure-3/PSK) and Unix
// (fork/RSA) redirectors serving concurrently on one lossy medium, with UDP
// and ICMP background noise, multiple secure clients against each, and
// everything verified end-to-end. The closest this repository gets to the
// deployment the paper describes.
#include <gtest/gtest.h>

#include <memory>

#include "services/redirector.h"

namespace rmc::services {
namespace {

using common::u8;
using net::IpAddr;

constexpr IpAddr kRmcBoard = 1;
constexpr IpAddr kUnixHost = 2;
constexpr IpAddr kBackendHost = 3;
constexpr IpAddr kClientHost = 4;
constexpr IpAddr kNoiseHost = 5;

using common::bytes_of;

TEST(World, TwoGenerationsOfServiceUnderLossAndNoise) {
  net::SimNet medium(0xD47E2003);
  medium.set_loss_probability(0.05);

  net::TcpStack rmc_stack(medium, kRmcBoard);
  net::TcpStack unix_stack(medium, kUnixHost);
  net::TcpStack backend_stack(medium, kBackendHost);
  net::TcpStack client_stack(medium, kClientHost);
  net::TcpStack noise_stack(medium, kNoiseHost);

  EchoBackend backend(backend_stack, 8000, [](u8 b) {
    return static_cast<u8>(std::toupper(b));
  });
  ASSERT_TRUE(backend.start().is_ok());
  ASSERT_TRUE(noise_stack.udp_bind(9999).is_ok());

  // The embedded service (PSK, 3 slots).
  RedirectorConfig rmc_cfg;
  rmc_cfg.listen_port = 4433;
  rmc_cfg.backend_ip = kBackendHost;
  rmc_cfg.backend_port = 8000;
  rmc_cfg.psk = bytes_of("fleet-psk");
  rmc_cfg.handler_slots = 3;
  RmcRedirector rmc_red(rmc_stack, medium, rmc_cfg);
  ASSERT_TRUE(rmc_red.start().is_ok());

  // The Unix original (RSA).
  common::Xorshift64 keygen(0xCAFE);
  RedirectorConfig unix_cfg;
  unix_cfg.listen_port = 4433;
  unix_cfg.backend_ip = kBackendHost;
  unix_cfg.backend_port = 8000;
  unix_cfg.tls = issl::Config::unix_default();
  unix_cfg.rsa = crypto::rsa_generate(unix_cfg.tls.rsa_modulus_bits, keygen);
  UnixRedirector unix_red(unix_stack, unix_cfg);
  ASSERT_TRUE(unix_red.start().is_ok());

  // Three clients to each service, distinct payloads.
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::string> expected;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>(
        client_stack, kRmcBoard, 4433, true, issl::Config::embedded_port(),
        bytes_of("fleet-psk"), 0xA000 + i));
    expected.push_back("RMC REQ " + std::to_string(i));
    ASSERT_TRUE(clients.back()->start().is_ok());
    ASSERT_TRUE(
        clients.back()->send(bytes_of("rmc req " + std::to_string(i))).is_ok());
  }
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>(
        client_stack, kUnixHost, 4433, true, issl::Config::unix_default(),
        std::vector<u8>{}, 0xB000 + i));
    expected.push_back("UNIX REQ " + std::to_string(i));
    ASSERT_TRUE(clients.back()->start().is_ok());
    ASSERT_TRUE(clients.back()
                    ->send(bytes_of("unix req " + std::to_string(i)))
                    .is_ok());
  }

  // Drive the world; sprinkle UDP/ICMP noise every few ticks.
  int complete = 0;
  for (int round = 0; round < 60'000 && complete < 6; ++round) {
    if (round % 7 == 0) {
      client_stack.udp_sendto(kNoiseHost, 9999, bytes_of("noise"), 777);
      client_stack.ping(kNoiseHost, static_cast<common::u32>(round));
    }
    rmc_red.poll();
    unix_red.poll();
    backend.poll();
    medium.tick(1);
    complete = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      (void)clients[i]->poll();
      if (clients[i]->received().size() >= expected[i].size()) ++complete;
    }
  }

  ASSERT_EQ(complete, 6) << "some clients never completed under loss";
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(std::string(clients[i]->received().begin(),
                          clients[i]->received().end()),
              expected[i]);
  }
  // Noise flowed too, independently of the TCP world.
  int noise_frames = 0;
  while (noise_stack.udp_recvfrom(9999).ok()) ++noise_frames;
  EXPECT_GT(noise_frames, 10);
  EXPECT_GT(client_stack.echo_replies(), 10u);
  // Loss really happened and TCP really hid it.
  EXPECT_GT(medium.segments_dropped(), 0u);
  EXPECT_GT(rmc_stack.retransmissions() + unix_stack.retransmissions() +
                client_stack.retransmissions(),
            0u);
  EXPECT_EQ(rmc_red.stats().handshake_failures, 0u);
  EXPECT_EQ(unix_red.stats().handshake_failures, 0u);
}

}  // namespace
}  // namespace rmc::services
