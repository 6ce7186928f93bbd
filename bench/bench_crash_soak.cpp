// E10 — crash soak: the secure redirector across seeded board deaths.
//
// E9 abuses the wire; E10 abuses the board. Each scenario kills the
// RMC2000 repeatedly by one of the three device-fault mechanisms —
//
//   wedge:    the main loop stops servicing costatements, nobody hits the
//             watchdog, the WDT bites and hard-resets;
//   powercut: a seeded PowerFaultPlan cuts power at exact fault points,
//             including mid-way through a durable two-slot commit;
//   xalloc:   the no-free arena (§5.2) runs dry and the firmware performs
//             its own counted restart to reclaim the memory —
//
// while a replacement stream of TLS clients keeps offering work. After
// every recovery two invariants are audited:
//
//   durable consistency — the battery-backed counters only move forward,
//   the boot generation never runs ahead of the boot count, and any lost
//   update is (a) at most one commit deep and (b) *signalled* by the
//   torn-recovery outcome, never silent;
//
//   fail closed — every client session settles (completes or fails) inside
//   the TCP give-up horizon; a client still undecided at scenario end is a
//   half-open connection, the thing warm restart must make impossible.
//
// Everything derives from --seed, so the --json artifact is byte-identical
// across same-seed runs (scripts/check.sh gates on exactly that). Exit
// status is 1 on any consistency violation or half-open session.
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

enum class Death { kWedge, kPowerCut, kXalloc };

struct CrashResult {
  u64 boots = 0;
  u64 resets = 0;
  u64 wdt_bites = 0;
  u64 power_cuts = 0;
  u64 xalloc_restarts = 0;
  u64 recovery_total_ms = 0;
  u64 recovery_last_ms = 0;
  int completed = 0;
  int failed = 0;       // failed *closed* — expected collateral of a death
  int stuck = 0;        // half-open at scenario end = the audited failure
  u64 sessions_dropped = 0;  // live on the board at each death
  u64 durable_served = 0;
  u64 durable_generation = 0;
  u64 torn_recoveries = 0;
  u64 consistency_violations = 0;
  u64 elapsed_ms = 0;
  u64 postmortem_lines = 0;
};

CrashResult run_scenario(u64 seed, Death death, u64 max_ms, u64 spawn_until) {
  bench::SoakWorld world(seed);
  services::ServiceBoardConfig cfg = bench::board_config("e10");
  cfg.net_seed = seed * 131;
  cfg.wdt_period_ms = 400;
  if (death == Death::kPowerCut) {
    // Gaps are fault points, not ms: each durable commit contributes three,
    // every main-loop pass one. Most random cuts land between commits; the
    // inserted 1-point gap guarantees the fourth cut strikes inside the
    // recovery boot's own generation commit (site durable.mid), exercising
    // the torn-write path under soak, not just in the unit tests.
    auto plan = dynk::PowerFaultPlan::random(seed ^ 0xE10, 6, 400, 2'500);
    plan.cuts.insert(plan.cuts.begin() + 3, 1);
    cfg.power_plan = plan;
  }
  if (death == Death::kXalloc) {
    cfg.redirector.session_xalloc_bytes = 96;
    cfg.xalloc_capacity = 32 * 96;  // 32 sessions, then the arena is spent
  }
  services::ServiceBoard board(world.medium, cfg);

  const std::size_t kPayload = 1'024;
  const std::size_t kChunk = 256;
  const std::vector<u8> payload =
      bench::random_payload(kPayload, seed ^ 0xE10E10);

  CrashResult r;
  std::vector<bench::ChunkedEcho> live;
  u64 spawned = 0;
  constexpr std::size_t kConcurrency = 2;

  auto spawn = [&]() {
    // Without a read timeout a client whose handshake or final echo was
    // severed with nothing left in flight would wait forever: TCP only
    // notices a dead peer when it has something to retransmit. 25 s sits
    // above the retransmit give-up horizon (~20 s), so it only fires for
    // the genuinely-silent case.
    live.emplace_back(world.client(cfg.redirector, seed * 977 + ++spawned,
                                   25'000),
                      payload, kChunk);
    live.back().start();
  };

  // Durable-consistency observer: the last in-RAM bookkeeping glimpsed
  // while the board was alive, compared against what recovery restored.
  bool was_up = board.up();
  u64 glimpse_served = 0;
  u64 wedge_countdown = death == Death::kWedge ? 2'500 : 0;

  u64 t = 0;
  for (; t < max_ms; ++t) {
    // Offer load: keep kConcurrency clients in flight while spawning is on.
    while (t < spawn_until && live.size() < kConcurrency) spawn();

    if (death == Death::kWedge && board.up() && wedge_countdown > 0 &&
        --wedge_countdown == 0) {
      board.wedge_for_ms(cfg.wdt_period_ms + 200);  // guarantee a bite
      wedge_countdown = 4'000;                      // and schedule the next
    }

    board.poll();

    // Recovery audit runs on the up-edge, before any new work commits.
    if (board.up() && board.redirector()) {
      const auto& ds = board.redirector()->durable_state();
      if (!was_up) {
        const bool torn = board.redirector()->recovery_outcome() ==
                          dynk::DurableLoadOutcome::kTornRecovered;
        if (torn) ++r.torn_recoveries;
        // At most one commit may be lost across a death, and only with the
        // tear signalled; a silent or deeper rollback is corruption.
        // (Growth is legitimate: a session can complete and commit in the
        // same millisecond the fault is detected.)
        if (ds.served < glimpse_served &&
            (!torn || glimpse_served - ds.served > 1)) {
          ++r.consistency_violations;
        }
      }
      glimpse_served = ds.served;
      was_up = true;
    } else {
      was_up = false;
    }

    world.backend.poll();
    for (std::size_t i = 0; i < live.size();) {
      const auto step = live[i].poll();
      if (step == State::kLive) {
        ++i;
        continue;
      }
      if (step == State::kDone) {
        ++r.completed;
        live[i].client().close();
      } else {
        ++r.failed;
      }
      live.erase(live.begin() + static_cast<long>(i));
    }

    world.medium.tick(1);
    if (t >= spawn_until && live.empty()) break;  // all settled, no new work
  }
  r.elapsed_ms = t;
  r.stuck = static_cast<int>(live.size());  // half-open: neither done nor dead

  r.boots = board.boots();
  r.resets = board.resets();
  r.wdt_bites = board.wdt_bites();
  r.power_cuts = board.power_cuts_seen();
  r.xalloc_restarts = board.xalloc_restarts();
  r.recovery_total_ms = board.total_recovery_ms();
  r.recovery_last_ms = board.last_recovery_ms();
  r.sessions_dropped = board.sessions_dropped();
  r.postmortem_lines = board.postmortem().size();
  if (board.up() && board.redirector()) {
    const auto& ds = board.redirector()->durable_state();
    r.durable_served = ds.served;
    r.durable_generation = ds.generation;
    // Boot-count bookkeeping: the generation may lag boots only by commits
    // the recovery path *reported* torn — never silently.
    if (ds.generation > r.boots ||
        r.boots - ds.generation > r.torn_recoveries) {
      ++r.consistency_violations;
    }
  } else {
    ++r.consistency_violations;  // the board must end the scenario alive
  }
  return r;
}

struct Scenario {
  const char* name;
  Death death;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const u64 seed = static_cast<u64>(args.flag_int("seed", 0x10E));
  const u64 max_ms = static_cast<u64>(args.flag_int("max-ms", 60'000));
  const u64 spawn_until =
      static_cast<u64>(args.flag_int("spawn-until-ms", 28'000));

  std::puts("================================================================");
  std::puts("E10: crash soak -- watchdog, power cuts, xalloc exhaustion");
  std::printf("    seed=%llu  budget=%llu virt ms  load until=%llu virt ms\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(max_ms),
              static_cast<unsigned long long>(spawn_until));
  std::puts("================================================================\n");
  std::printf("%-9s %6s %5s %5s %5s %6s %5s %6s %8s %6s %5s\n", "scenario",
              "resets", "done", "fail", "stuck", "dropped", "torn", "served",
              "recov-ms", "gen", "viol");

  bench::JsonReport report("E10");
  report.result("seed", seed);
  const Scenario scenarios[] = {
      {"wedge", Death::kWedge},
      {"powercut", Death::kPowerCut},
      {"xalloc", Death::kXalloc},
  };
  bool half_open = false;
  bool inconsistent = false;

  for (const Scenario& s : scenarios) {
    const CrashResult r = run_scenario(seed, s.death, max_ms, spawn_until);
    std::printf("%-9s %6llu %5d %5d %5d %6llu %5llu %6llu %8llu %6llu %5llu\n",
                s.name, static_cast<unsigned long long>(r.resets), r.completed,
                r.failed, r.stuck,
                static_cast<unsigned long long>(r.sessions_dropped),
                static_cast<unsigned long long>(r.torn_recoveries),
                static_cast<unsigned long long>(r.durable_served),
                static_cast<unsigned long long>(r.recovery_total_ms),
                static_cast<unsigned long long>(r.durable_generation),
                static_cast<unsigned long long>(r.consistency_violations));
    if (r.stuck > 0) half_open = true;
    if (r.consistency_violations > 0) inconsistent = true;

    const std::string k = std::string("scn.") + s.name + ".";
    report.result(k + "boots", r.boots);
    report.result(k + "resets", r.resets);
    report.result(k + "wdt_bites", r.wdt_bites);
    report.result(k + "power_cuts", r.power_cuts);
    report.result(k + "xalloc_restarts", r.xalloc_restarts);
    report.result(k + "recovery_total_ms", r.recovery_total_ms);
    report.result(k + "recovery_total_cycles",
                  r.recovery_total_ms * rabbit::Board::kCyclesPerMs);
    report.result(k + "recovery_last_ms", r.recovery_last_ms);
    report.result(k + "sessions_completed", r.completed);
    report.result(k + "sessions_failed_closed", r.failed);
    report.result(k + "sessions_half_open", r.stuck);
    report.result(k + "sessions_dropped", r.sessions_dropped);
    report.result(k + "durable_served", r.durable_served);
    report.result(k + "durable_generation", r.durable_generation);
    report.result(k + "torn_recoveries", r.torn_recoveries);
    report.result(k + "consistency_violations", r.consistency_violations);
    report.result(k + "postmortem_lines", r.postmortem_lines);
    report.result(k + "elapsed_ms", r.elapsed_ms);
  }

  std::printf(
      "\nfail = failed *closed* (RST or retx give-up) -- expected collateral"
      "\nof a board death; stuck = half-open at scenario end (audited to 0)."
      "\ntorn = recoveries where the two-slot store reported an interrupted"
      "\ncommit; viol counts silent durable-state corruption (audited to 0).\n");

  report.result("zero_half_open", !half_open);
  report.result("zero_consistency_violations", !inconsistent);
  report.write(args);

  return (half_open || inconsistent) ? 1 : 0;
}
