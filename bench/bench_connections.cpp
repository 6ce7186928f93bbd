// E4 — paper Figure 3 / §5.3: "to handle multiple connections and
// processes, we split the application into four processes: three processes
// to handle requests (allowing a maximum of three connections), and one to
// drive the TCP stack ... We could easily increase the number of processes
// (and hence simultaneous connections) by adding more costatements, but the
// program would have to be re-compiled."
//
// Regenerates the ceiling matrix: for each compiled-in handler count N
// (re-constructing the redirector = the "recompile"), offer M simultaneous
// secure clients and report how many complete their handshake.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "soak_world.h"

using namespace rmc;

namespace {

int completed_handshakes(std::size_t handler_slots, int offered_clients,
                         int rounds) {
  bench::SoakWorld world(0xE4);
  services::RedirectorConfig cfg = bench::service_config("e4");
  cfg.handler_slots = handler_slots;
  services::RmcRedirector red(world.add_board_stack(), world.medium, cfg);
  if (!red.start().is_ok()) return -1;

  std::vector<std::unique_ptr<services::Client>> clients;
  for (int i = 0; i < offered_clients; ++i) {
    clients.push_back(world.client(cfg, 0xE400 + i));
    (void)clients.back()->start();
  }
  for (int round = 0; round < rounds; ++round) {
    red.poll();
    world.backend.poll();
    for (auto& c : clients) (void)c->poll();
    world.medium.tick(1);
  }
  int done = 0;
  for (auto& c : clients) done += c->handshake_done() ? 1 : 0;
  return done;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const int kMaxOffered = static_cast<int>(args.flag_int("max-offered", 8));
  const int kMaxHandlers = static_cast<int>(args.flag_int("max-handlers", 5));
  const int kRounds = static_cast<int>(args.flag_int("rounds", 1200));

  std::puts("================================================================");
  std::puts("E4: simultaneous-connection ceiling vs compiled-in costatements");
  std::puts("    (paper Figure 3: 3 handlers + 1 tcp_tick driver)");
  std::puts("================================================================\n");

  std::printf("completed secure handshakes (rows: handler costatements "
              "compiled in;\ncolumns: simultaneous clients offered)\n\n");
  std::printf("%10s", "handlers");
  for (int offered = 1; offered <= kMaxOffered; ++offered) {
    std::printf("  M=%d", offered);
  }
  std::puts("");
  bench::JsonReport report("E4");
  bool ceiling_holds = true;
  for (std::size_t handlers = 1;
       handlers <= static_cast<std::size_t>(kMaxHandlers); ++handlers) {
    std::printf("%10zu", handlers);
    for (int offered = 1; offered <= kMaxOffered; ++offered) {
      const int done = completed_handshakes(handlers, offered, kRounds);
      std::printf("  %3d", done);
      const int expect = std::min<int>(offered, static_cast<int>(handlers));
      if (done != expect) ceiling_holds = false;
      report.result("handshakes.h" + std::to_string(handlers) + ".m" +
                        std::to_string(offered),
                    done);
    }
    std::puts("");
  }
  std::printf("\nexpected ceiling: min(offered, handlers) -> %s\n",
              ceiling_holds ? "REPRODUCED exactly" : "deviations above");
  std::puts("(the paper's deployed configuration is the handlers=3 row)");

  report.result("ceiling_holds", ceiling_holds);
  report.write(args);
  return 0;
}
