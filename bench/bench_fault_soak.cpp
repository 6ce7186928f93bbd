// E9 — chaos soak: the secure redirector under a deterministic fault sweep.
//
// The paper's service ran over a real, imperfect 10Base-T segment; E1–E7
// measure it on a clean simulated wire. E9 closes that gap: each scenario
// installs a composable FaultPlan (Gilbert–Elliott burst loss, per-byte
// payload corruption, duplication, jitter reordering, scheduled partitions)
// on the medium and drives a full secure-echo workload through the RMC
// redirector, reporting goodput, handshake success, retransmissions, MAC
// failures, and every degradation path the hardening added (handshake
// timeouts, backend retries, connection shedding, watchdog aborts).
//
// Everything is derived from --seed: the medium's PRNG, the payload bytes,
// and the per-client session RNGs. A fixed seed gives a byte-identical
// --json artifact, so robustness regressions diff machine-readably.
//
// Exit status is 1 if any scenario hangs (a client neither completes nor
// fails inside the budget) or if the moderate burst+corruption scenario
// moves no application bytes at all. Echo mismatches are reported, not
// fatal: the issl MAC makes them impossible on the secure leg, so each one
// is corruption on the plaintext redirector<->backend hop — the SSL
// terminator's trusted-LAN assumption, measured.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "soak_world.h"

using namespace rmc;
using common::u64;
using common::u8;

namespace {

using State = bench::ChunkedEcho::State;

struct Scenario {
  std::string name;
  net::FaultPlan plan;
};

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> v;
  v.push_back({"clean", net::FaultPlan{}});
  v.push_back({"loss2", net::FaultPlan::uniform_loss(0.02)});
  v.push_back({"burst5", net::FaultPlan::burst_loss(0.05)});
  {
    net::FaultPlan p = net::FaultPlan::burst_loss(0.05);
    p.corrupt_byte_probability = 0.001;
    v.push_back({"burst5_corrupt", p});
  }
  {
    net::FaultPlan p;
    p.jitter_ms = 8;
    p.duplicate_probability = 0.02;
    v.push_back({"jitter_dup", p});
  }
  {
    // Two outages sized against the TCP RTO (base 200 ms): the first hits
    // the handshakes, the second the transfer; both must be ridden out by
    // retransmission, not by giving up.
    net::FaultPlan p;
    p.partitions.push_back({20, 140});
    p.partitions.push_back({300, 460});
    v.push_back({"partition", p});
  }
  return v;
}

struct SoakResult {
  int completed = 0;
  int failed = 0;
  int stuck = 0;  // neither completed nor failed inside the budget = a hang
  int handshakes_ok = 0;
  // Echoed bytes differing from the payload. The issl MAC makes this
  // impossible on the secure leg, so every occurrence is corruption on the
  // *plaintext* redirector<->backend leg — the SSL terminator's trusted-LAN
  // assumption (paper §2) made visible as a measured quantity.
  int plaintext_leg_corruptions = 0;
  u64 bytes_echoed = 0;     // end-to-end verified echo bytes
  u64 svc_bytes = 0;        // bytes the redirector forwarded (either way)
  u64 elapsed_ms = 0;
  u64 worst_completion_ms = 0;
  u64 retransmissions = 0;
  u64 retx_giveups = 0;
  u64 mac_failures = 0;
  u64 hs_failures = 0;
  u64 hs_timeouts = 0;
  u64 backend_retries = 0;
  u64 shed = 0;
  u64 watchdogs = 0;
  u64 drops_loss = 0;
  u64 drops_partition = 0;
  u64 corrupted = 0;
  u64 duplicated = 0;
};

SoakResult run_scenario(u64 seed, const net::FaultPlan& plan, int offered,
                        std::size_t payload_bytes, u64 max_ms) {
  bench::SoakWorld world(seed, plan);
  services::RedirectorConfig cfg = bench::service_config("e9");
  cfg.shed_when_busy = true;  // the observable degradation past the ceiling
  cfg.handshake_timeout_ms = 8'000;
  cfg.idle_timeout_ms = 10'000;
  services::RmcRedirector red(world.add_board_stack(), world.medium, cfg);
  SoakResult r;
  if (!red.start().is_ok()) return r;

  const bench::CounterDelta mac_failures("issl.mac_failures");

  const std::vector<u8> payload =
      bench::random_payload(payload_bytes, seed ^ 0xE9E9);

  // The payload travels in 512-byte chunks, one issl record per chunk, the
  // next sent only after the previous echoed back. One corrupted record
  // then costs that session its remaining chunks (poisoned, fail closed)
  // instead of silently deciding the whole scenario — partial delivery is
  // exactly the graceful-degradation signal E9 measures.
  constexpr std::size_t kChunk = 512;
  struct Session {
    bench::ChunkedEcho echo;
    State state = State::kLive;
    u64 settle_ms = 0;
    bool hs_seen = false;
  };
  std::vector<Session> sessions;
  for (int i = 0; i < offered; ++i) {
    sessions.push_back({bench::ChunkedEcho(
        world.client(cfg, seed * 977 + static_cast<u64>(i)), payload, kChunk)});
    sessions.back().echo.start();
  }

  u64 t = 0;
  for (; t < max_ms; ++t) {
    bool all_settled = true;
    for (Session& s : sessions) {
      if (s.state != State::kLive) continue;
      s.state = s.echo.poll();
      if (s.echo.client().handshake_done()) s.hs_seen = true;
      if (s.state == State::kLive) {
        all_settled = false;
        continue;
      }
      s.settle_ms = t;
      if (s.state == State::kDone) s.echo.client().close();
    }
    red.poll();
    world.backend.poll();
    world.medium.tick(1);
    if (all_settled) break;
  }
  r.elapsed_ms = t;

  bench::EchoAudit audit;
  for (Session& s : sessions) {
    if (s.state == State::kLive) ++r.stuck;
    if (s.state == State::kFailed) ++r.failed;
    if (s.hs_seen) ++r.handshakes_ok;
    if (audit.add(s.echo.client().received(), payload) &&
        s.state == State::kDone) {
      ++r.completed;
      r.worst_completion_ms = std::max(r.worst_completion_ms, s.settle_ms);
    }
  }
  r.plaintext_leg_corruptions = audit.corrupt;
  r.bytes_echoed = audit.bytes_echoed;
  r.svc_bytes = red.stats().bytes_client_to_backend +
                red.stats().bytes_backend_to_client;

  r.retransmissions = world.retransmissions();
  r.retx_giveups = world.retx_giveups();
  r.mac_failures = mac_failures.value();
  r.hs_failures = red.stats().handshake_failures;
  r.hs_timeouts = red.stats().handshake_timeouts;
  r.backend_retries = red.stats().backend_retries;
  r.shed = red.stats().connections_shed;
  r.watchdogs = red.stats().watchdog_aborts;
  r.drops_loss = world.medium.drops_loss();
  r.drops_partition = world.medium.drops_partition();
  r.corrupted = world.medium.segments_corrupted();
  r.duplicated = world.medium.segments_duplicated();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const u64 seed = static_cast<u64>(args.flag_int("seed", 0xE9));
  const int offered = static_cast<int>(args.flag_int("clients", 6));
  const std::size_t payload =
      static_cast<std::size_t>(args.flag_int("payload", 4096));
  const u64 max_ms = static_cast<u64>(args.flag_int("max-ms", 60'000));

  std::puts("================================================================");
  std::puts("E9: chaos soak -- secure redirector under injected faults");
  std::printf("    seed=%llu  clients=%d  payload=%zu B  budget=%llu virt ms\n",
              static_cast<unsigned long long>(seed), offered, payload,
              static_cast<unsigned long long>(max_ms));
  std::puts("================================================================\n");
  std::printf("%-16s %4s %4s %5s %6s %9s %6s %5s %5s %5s %5s %5s\n",
              "scenario", "done", "fail", "stuck", "hs-ok", "B/virt-ms",
              "retx", "mac", "shed", "wdog", "b-rty", "drop");

  bench::JsonReport report("E9");
  report.result("seed", seed);
  bool hang = false;
  u64 moderate_bytes = 1;  // burst5_corrupt must move application bytes

  for (const Scenario& s : make_scenarios()) {
    const SoakResult r = run_scenario(seed, s.plan, offered, payload, max_ms);
    // Goodput: application bytes the service moved per virtual ms. The
    // redirector's job is forwarding, so this counts both directions at the
    // service; end-to-end verified echo bytes are reported separately.
    const double goodput =
        r.elapsed_ms == 0
            ? 0.0
            : static_cast<double>(r.svc_bytes) /
                  static_cast<double>(r.elapsed_ms);
    std::printf("%-16s %4d %4d %5d %6d %9.2f %6llu %5llu %5llu %5llu %5llu %5llu\n",
                s.name.c_str(), r.completed, r.failed, r.stuck,
                r.handshakes_ok, goodput,
                static_cast<unsigned long long>(r.retransmissions),
                static_cast<unsigned long long>(r.mac_failures),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.watchdogs),
                static_cast<unsigned long long>(r.backend_retries),
                static_cast<unsigned long long>(r.drops_loss +
                                                r.drops_partition));
    if (r.stuck > 0) hang = true;
    if (s.name == "burst5_corrupt") moderate_bytes = r.svc_bytes;

    const std::string k = "scn." + s.name + ".";
    report.result(k + "completed", r.completed);
    report.result(k + "failed", r.failed);
    report.result(k + "stuck", r.stuck);
    report.result(k + "handshakes_ok", r.handshakes_ok);
    report.result(k + "plaintext_leg_corruptions", r.plaintext_leg_corruptions);
    report.result(k + "bytes_echoed", r.bytes_echoed);
    report.result(k + "bytes_forwarded", r.svc_bytes);
    report.result(k + "elapsed_ms", r.elapsed_ms);
    report.result(k + "worst_completion_ms", r.worst_completion_ms);
    report.result(k + "goodput_bytes_per_ms", goodput);
    report.result(k + "retransmissions", r.retransmissions);
    report.result(k + "retx_giveups", r.retx_giveups);
    report.result(k + "mac_failures", r.mac_failures);
    report.result(k + "handshake_failures", r.hs_failures);
    report.result(k + "handshake_timeouts", r.hs_timeouts);
    report.result(k + "backend_retries", r.backend_retries);
    report.result(k + "connections_shed", r.shed);
    report.result(k + "watchdog_aborts", r.watchdogs);
    report.result(k + "drops_loss", r.drops_loss);
    report.result(k + "drops_partition", r.drops_partition);
    report.result(k + "segments_corrupted", r.corrupted);
    report.result(k + "segments_duplicated", r.duplicated);
  }

  std::printf("\nB/virt-ms is goodput: application bytes forwarded by the"
              " service per virtual ms;\nmac = record MAC failures (each poisons its session);"
              " shed/wdog/b-rty are\nthe redirector's explicit degradation"
              " paths. Zero 'stuck' clients means\nevery connection either"
              " completed or failed closed -- no hangs.\n");

  report.result("zero_hangs", !hang);
  report.result("moderate_goodput_nonzero", moderate_bytes > 0);
  report.write(args);

  if (hang || moderate_bytes == 0) return 1;
  return 0;
}
