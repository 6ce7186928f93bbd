// secure_redirector — the case study's service, embedded edition: the
// Figure-3 RMC2000 redirector (3 costatement handlers + tcp_tick driver,
// PSK issl) terminating TLS in front of a plaintext backend, with several
// clients coming and going. Prints a running transcript and the final ring
// log — note how only the newest entries survive the SRAM budget.
//
// Run: ./build/examples/secure_redirector
#include <cstdio>
#include <memory>

#include "services/redirector.h"

using namespace rmc;
using common::bytes_of;
using common::u8;

int main() {
  net::SimNet medium(2026);
  net::TcpStack board_stack(medium, 1);    // the RMC2000
  net::TcpStack backend_stack(medium, 2);  // the origin server
  net::TcpStack client_stack(medium, 3);   // the outside world

  services::EchoBackend backend(backend_stack, 8000, [](u8 b) {
    return static_cast<u8>(std::toupper(b));
  });
  (void)backend.start();

  services::RedirectorConfig cfg;
  cfg.listen_port = 4433;
  cfg.backend_ip = 2;
  cfg.backend_port = 8000;
  cfg.secure = true;
  cfg.tls = issl::Config::embedded_port();
  cfg.psk = bytes_of("rmc2000-demo-psk");
  cfg.handler_slots = 3;
  cfg.log_capacity_bytes = 96;

  services::RmcRedirector redirector(board_stack, medium, cfg);
  if (!redirector.start().is_ok()) {
    std::puts("redirector failed to start");
    return 1;
  }
  std::puts("RMC2000 secure redirector up: 3 handler costatements + tcp_tick "
            "driver\n");

  const char* requests[] = {"get quote", "buy 100 shares", "log out",
                            "balance?", "transfer $5"};
  std::vector<std::unique_ptr<services::Client>> clients;
  int launched = 0;

  for (int round = 0; round < 4000; ++round) {
    // Launch five clients over time (more than the 3 slots).
    if (launched < 5 && round % 300 == 0) {
      clients.push_back(std::make_unique<services::Client>(
          client_stack, 1, 4433, true, issl::Config::embedded_port(),
          bytes_of("rmc2000-demo-psk"), 0x9000 + launched));
      (void)clients.back()->start();
      (void)clients.back()->send(bytes_of(requests[launched]));
      std::printf("[t=%4d] client %d connects: \"%s\"\n", round, launched,
                  requests[launched]);
      ++launched;
    }
    redirector.poll();
    backend.poll();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      auto& c = *clients[i];
      const bool had = !c.received().empty();
      (void)c.poll();
      if (!had && !c.received().empty()) {
        std::printf("[t=%4d] client %zu got reply: \"%s\" -- closing\n",
                    round, i,
                    std::string(c.received().begin(), c.received().end())
                        .c_str());
        c.close();
      }
    }
    medium.tick(1);
  }

  const auto& stats = redirector.stats();
  std::printf("\nredirector stats: served=%llu active=%llu hs-failures=%llu\n",
              static_cast<unsigned long long>(stats.connections_served),
              static_cast<unsigned long long>(stats.connections_active),
              static_cast<unsigned long long>(stats.handshake_failures));
  std::printf("forwarded: %llu B client->backend, %llu B backend->client\n",
              static_cast<unsigned long long>(stats.bytes_client_to_backend),
              static_cast<unsigned long long>(stats.bytes_backend_to_client));

  std::printf("\nring log (%zu B budget, %zu of %zu entries retained):\n",
              redirector.log().capacity_bytes(), redirector.log().entry_count(),
              redirector.log().total_appended());
  for (const auto& line : redirector.log().entries()) {
    std::printf("  | %s\n", line.c_str());
  }
  return 0;
}
