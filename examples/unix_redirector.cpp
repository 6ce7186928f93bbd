// unix_redirector — the service as it existed *before* the port: BSD
// sockets, fork-per-connection (modelled as dynamically spawned
// costatements), RSA key exchange, unbounded log. Ten concurrent clients —
// no compile-time connection ceiling here, which is exactly what the
// RMC2000 port lost (compare examples/secure_redirector.cpp).
//
// Run: ./build/examples/unix_redirector
#include <cstdio>
#include <memory>

#include "services/redirector.h"

using namespace rmc;
using common::bytes_of;
using common::u8;

int main() {
  net::SimNet medium(7);
  net::TcpStack server_stack(medium, 1);
  net::TcpStack backend_stack(medium, 2);
  net::TcpStack client_stack(medium, 3);

  services::EchoBackend backend(backend_stack, 8000);
  (void)backend.start();

  common::Xorshift64 keygen(42);
  services::RedirectorConfig cfg;
  cfg.listen_port = 4433;
  cfg.backend_ip = 2;
  cfg.backend_port = 8000;
  cfg.secure = true;
  cfg.tls = issl::Config::unix_default();  // RSA + AES-256
  cfg.rsa = crypto::rsa_generate(cfg.tls.rsa_modulus_bits, keygen);

  services::UnixRedirector redirector(server_stack, cfg);
  if (!redirector.start().is_ok()) {
    std::puts("redirector failed to start");
    return 1;
  }
  std::printf("Unix issl redirector up (RSA-%zu key exchange, AES-%zu)\n\n",
              cfg.tls.rsa_modulus_bits, cfg.tls.aes_key_bits);

  constexpr int kClients = 10;
  std::vector<std::unique_ptr<services::Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<services::Client>(
        client_stack, 1, 4433, true, issl::Config::unix_default(),
        std::vector<u8>{}, 0x4000 + i));
    (void)clients.back()->start();
    (void)clients.back()->send(bytes_of("req#" + std::to_string(i)));
  }

  int complete = 0;
  for (int round = 0; round < 6000 && complete < kClients; ++round) {
    redirector.poll();
    backend.poll();
    medium.tick(1);
    complete = 0;
    for (auto& c : clients) {
      (void)c->poll();
      if (c->received().size() >= 5) ++complete;
    }
  }

  std::printf("clients completed: %d / %d (all concurrent -- fork scales)\n",
              complete, kClients);
  for (int i = 0; i < kClients; ++i) {
    std::printf("  client %d <- \"%s\"\n", i,
                std::string(clients[i]->received().begin(),
                            clients[i]->received().end())
                    .c_str());
  }
  std::printf("\nserver log (%zu lines, growable -- a luxury the RMC2000 "
              "lacks):\n",
              redirector.log().size());
  for (std::size_t i = 0; i < std::min<std::size_t>(6, redirector.log().size());
       ++i) {
    std::printf("  %s\n", redirector.log()[i].c_str());
  }
  if (redirector.log().size() > 6) std::puts("  ...");
  return 0;
}
