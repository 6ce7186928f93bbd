// perfbench: the program behind the repository's benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Sets the workload up several times (the median is setup_s), then replays its
// seeded epoch until `--seconds` of host time are spent, timing the host-speed
// probe between epochs. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it alternates untraced and
// traced epochs and reports the per-layer metrics, including each layer's
// self time and the tracing overhead. Human-readable tables go first; the
// last line of standard output is one JSON object. Exit status is 1 when an
// output is wrong or two epochs of the same seed disagree.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench.h"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double latency_percentile(std::vector<double> v, double p, double resolution_ms) {
  if (resolution_ms <= 0 || v.empty()) return percentile(std::move(v), p);
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  const double x = percentile(v, p);
  const auto below = std::lower_bound(v.begin(), v.end(), x) - v.begin();
  const auto tied = std::upper_bound(v.begin(), v.end(), x) - v.begin() - below;
  return x - resolution_ms / 2 +
         resolution_ms * (rank - static_cast<double>(below)) / static_cast<double>(tied);
}

std::string repo_file(std::string_view relative) {
  return std::string(PERFBENCH_REPO_ROOT) + "/" + std::string(relative);
}

Tracer::SelfTime Tracer::self_ns() const {
  SelfTime self{};
  for (const Span& s : spans_) {
    const u64 d = s.end_ns - s.start_ns;
    self[static_cast<std::size_t>(s.layer)] += d;
    if (s.parent != kNone) self[static_cast<std::size_t>(spans_[s.parent].layer)] -= d;
  }
  return self;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0). Every one applies to every workload; the
// operation behind "ops" and the latency is a board round (board_kernels),
// an echo request (tls_bulk) or a whole session from its due time (the open
// loops).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_mcycles_per_probe_s", "Mcycles/s"},
    {"host_ops_per_probe_s", "1/s"},
    {"host_goodput_probe_kBps", "kB/s"},
    {"vt_goodput_Bps", "B/s"},
    {"vt_p50_ms", "ms"},
    {"vt_p99_ms", "ms"},
};

// Per-layer metrics (--trace 1). A layer a workload does not run reads 0.
constexpr MetricDef kPerLayer[] = {
    {"rabbit.call_host_ms", "ms"},
    {"rabbit.host_ns_per_instr.aes_c", "ns"},
    {"rabbit.host_ns_per_instr.aes_c_opt", "ns"},
    {"rabbit.host_ns_per_instr.aes_asm", "ns"},
    {"rabbit.host_ns_per_instr.sha1_c", "ns"},
    {"rabbit.instr_per_call.aes_c", "count"},
    {"rabbit.instr_per_call.aes_c_opt", "count"},
    {"rabbit.instr_per_call.aes_asm", "count"},
    {"rabbit.instr_per_call.sha1_c", "count"},
    {"board_aes_c_cycles_per_block", "cycles"},
    {"board_aes_asm_cycles_per_block", "cycles"},
    {"board_sha1_c_cycles_per_block", "cycles"},
    {"rasm.assemble_ms", "ms"},
    {"dcc.compile_ms", "ms"},
    {"dcc.image_bytes.aes_c", "B"},
    {"dcc.image_bytes.aes_asm", "B"},
    {"dcc.aes_c_opt_cycles_per_block", "cycles"},
    {"crypto.aes128_enc_ns", "ns"},
    {"crypto.aes128_dec_ns", "ns"},
    {"crypto.sha1_block_ns", "ns"},
    {"crypto.rsa_private_us", "us"},
    {"issl.records_sealed", "count"},
    {"issl.records_opened", "count"},
    {"issl.handshakes_full", "count"},
    {"issl.handshakes_resumed", "count"},
    {"issl.handshakes_failed", "count"},
    {"issl.mac_failures", "count"},
    {"issl.cache_evictions", "count"},
    {"issl.cache_lookups", "count"},
    {"issl.cache_hit_ratio", "ratio"},
    {"issl.model_handshake_cycles", "cycles"},
    {"net.tick_host_ms", "ms"},
    {"net.segments_sent", "count"},
    {"net.segments_delivered", "count"},
    {"net.drops", "count"},
    {"tcp.retransmissions", "count"},
    {"tcp.retx_giveups", "count"},
    {"tcp.syn_drops_backlog_full", "count"},
    {"net.wire_efficiency", "ratio"},
    {"net.board_tcbs_peak", "count"},
    {"net.board_tcbs_end", "count"},
    {"services.redirector_poll_host_ms", "ms"},
    {"services.client_poll_host_ms", "ms"},
    {"services.backend_poll_host_ms", "ms"},
    {"services.served", "count"},
    {"services.shed", "count"},
    {"services.handshake_timeouts", "count"},
    {"services.watchdog_aborts", "count"},
    {"services.backend_retries", "count"},
    {"services.hs_vt_p50_ms", "ms"},
    {"services.hs_vt_p99_ms", "ms"},
    {"services.req_vt_p50_ms", "ms"},
    {"services.req_vt_p99_ms", "ms"},
    {"services.live_clients_peak", "count"},
    {"services.modelled_cpu_util", "ratio"},
    {"services.charge_cycles_per_byte", "cycles"},
    {"services.charge_cycles_handshake", "cycles"},
    {"services.charge_cycles_resumed", "cycles"},
    {"failed_ratio", "ratio"},
    {"other.host_ms", "ms"},
    {"epoch.host_ms", "ms"},
    {"telemetry.spans_per_epoch", "count"},
    {"telemetry.trace_overhead", "ratio"},
    {"host.probe_slowdown", "ratio"},
    {"host.wall_ops_per_s", "1/s"},
};

/// Set-ups per run: at least kMinSetups, more while they have taken less
/// than kSetupBudgetS in total, at most kMaxSetups.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;
constexpr int kMinEpochs = 2;
/// After an epoch the probe is timed once per this many host seconds the
/// epoch took (1 to kMaxProbeTimings times) and the median is kept: one
/// timing jitters by up to 20% on a busy host, and long epochs afford more.
constexpr double kProbeEveryS = 1.0;
constexpr int kMaxProbeTimings = 8;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') a.seconds = 0;
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed && a.seconds > 0 &&
         a.trace >= 0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Median host slowdown over enough probe timings for `after_s` of work.
double probe_slowdown(double after_s) {
  const int timings =
      std::clamp(static_cast<int>(std::ceil(after_s / kProbeEveryS)), 1, kMaxProbeTimings);
  std::vector<double> v;
  for (int i = 0; i < timings; ++i) v.push_back(host_slowdown());
  return median(std::move(v));
}

/// Everything but host time: two epochs of one seed must agree on all of it.
bool same_outcome(const Epoch& a, const Epoch& b) {
  return a.ops == b.ops && a.failed == b.failed && a.useful_bytes == b.useful_bytes &&
         a.sim_cycles == b.sim_cycles && a.latency_ms == b.latency_ms &&
         a.counts == b.counts;
}

void print_json(bool correct, u64 attempted, u64 failed,
                const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].first.name, metrics[i].second, metrics[i].first.unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <board_kernels|tls_bulk|tls_churn|"
                 "plain_lossy> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  auto make = [&]() -> std::unique_ptr<Workload> {
    if (args.workload == "board_kernels") return make_board_kernels();
    return make_service(args.workload);
  };

  // Set-up, several times from scratch; the last instance is the one run.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (static_cast<int>(setup_s.size()) < kMaxSetups && setup_total_s < kSetupBudgetS)) {
    const u64 t0 = now_ns();
    workload = make();
    if (workload == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    if (!workload->setup(args.seed)) return 1;
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_total_s += setup_s.back();
  }

  // Epochs. Traced runs alternate untraced and traced epochs so the
  // overhead compares like with like.
  Tracer tracer;
  std::vector<Epoch> epochs;
  std::vector<double> trace_ratios;  // traced / untraced host time, per slice
  Tracer::SelfTime self_total{};
  std::size_t spans_total = 0;
  bool deterministic = true;
  // Probe samples bracket the epochs: epoch i ran between slowdown[i] and
  // slowdown[i + 1].
  std::vector<double> slowdown{probe_slowdown(kProbeEveryS * 3)};
  const u64 start = now_ns();
  while (static_cast<int>(epochs.size()) < kMinEpochs ||
         static_cast<double>(now_ns() - start) / 1e9 < args.seconds) {
    const bool traced = args.trace == 1 && epochs.size() % 2 == 1;
    Tracer* t = traced ? &tracer : nullptr;
    Epoch e;
    const u64 t0 = now_ns();
    {
      Tracer::Scope root(t, Layer::kOther);
      e = workload->run(t);
    }
    e.host_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (traced) {
      const Tracer::SelfTime self = tracer.self_ns();
      for (std::size_t l = 0; l < self_total.size(); ++l) self_total[l] += self[l];
      spans_total += tracer.spans();
      tracer.clear();
      // Epochs replay identical slices, so each traced slice pairs with the
      // same slice of the untraced epoch before it.
      const Epoch& before = epochs.back();
      for (std::size_t i = 0; i < e.slice_host_s.size() && i < before.slice_host_s.size();
           ++i) {
        trace_ratios.push_back(e.slice_host_s[i] / before.slice_host_s[i]);
      }
    }
    if (!epochs.empty() && !same_outcome(epochs.front(), e)) deterministic = false;
    epochs.push_back(std::move(e));
    slowdown.push_back(probe_slowdown(epochs.back().host_s));
  }

  const Epoch& first = epochs.front();
  u64 attempted = 0, failed = 0;
  for (const Epoch& e : epochs) {
    attempted += e.ops;
    failed += e.failed;
  }
  const bool correct = failed == 0 && deterministic;

  std::printf("perfbench workload=%s seed=%llu trace=%d epochs=%zu\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace, epochs.size());
  std::printf("epoch host s:");
  for (const Epoch& e : epochs) std::printf(" %.3f", e.host_s);
  std::printf("\n");
  std::printf("host slowdown:");
  for (double x : slowdown) std::printf(" %.2f", x);
  std::printf("\n");
  std::printf("attempted=%llu failed=%llu  seed self-check: %s\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              deterministic ? "every epoch identical" : "EPOCHS DISAGREE");

  std::vector<std::pair<MetricDef, double>> out;
  if (args.trace == 0) {
    // Host rates per epoch, summarised by their median over the run. An
    // epoch's probe-scaled time is its host time divided by the mean
    // slowdown of the two probe samples around it, to kProbeElasticity.
    std::vector<double> sim, ops, goodput, wall_ops;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      const Epoch& e = epochs[i];
      const double probe_s =
          e.host_s / std::pow((slowdown[i] + slowdown[i + 1]) / 2, kProbeElasticity);
      const double done = static_cast<double>(e.ops - e.failed);
      sim.push_back(static_cast<double>(e.sim_cycles) / 1e6 / probe_s);
      ops.push_back(done / probe_s);
      goodput.push_back(static_cast<double>(e.useful_bytes) / 1e3 / probe_s);
      wall_ops.push_back(done / e.host_s);
    }
    const double vt_s = static_cast<double>(first.sim_cycles) / kBoardHz;
    const std::size_t latencies = first.latency_ms.size();
    const std::pair<double, std::size_t> rows[] = {  // value, samples behind it
        {median(setup_s), setup_s.size()},
        {peak_rss_mb(), 1},
        {median(sim), sim.size()},
        {median(ops), ops.size()},
        {median(goodput), goodput.size()},
        {vt_s > 0 ? static_cast<double>(first.useful_bytes) / vt_s : 0, 1},
        {latency_percentile(first.latency_ms, 50, first.latency_resolution_ms), latencies},
        {latency_percentile(first.latency_ms, 99, first.latency_resolution_ms), latencies},
    };
    static_assert(std::size(rows) == std::size(kEndToEnd));
    std::printf("%-22s %16s %-10s %s\n", "end-to-end metric", "value", "unit", "samples");
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      const auto [value, n] = rows[i];
      out.push_back({kEndToEnd[i], value});
      std::printf("%-22s %16.6g %-10s n=%zu\n", kEndToEnd[i].name, value, kEndToEnd[i].unit, n);
    }
    // Reported through "attempted" and "failed": a healthy run reads 0, and
    // an end-to-end metric must never be 0.
    std::printf("%-22s %16.6g %-10s n=%llu\n", "failed_ratio",
                static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
                static_cast<unsigned long long>(attempted));
    std::printf("%-22s %16.6g %-10s n=%zu (wall clock)\n", "host_ops_per_s", median(wall_ops),
                "1/s", wall_ops.size());
    std::printf("%-22s %16.6g %-10s n=%zu\n", "host.probe_slowdown", median(slowdown), "ratio",
                slowdown.size());
  } else {
    std::map<std::string, double> layer = first.counts;
    workload->layer_metrics(layer);
    const double traced_n = static_cast<double>(epochs.size() / 2);
    u64 epoch_ns = 0;
    std::printf("%-34s %12s %8s\n", "self time per traced epoch", "ms", "share");
    for (u64 ns : self_total) epoch_ns += ns;
    for (std::size_t l = 0; l < self_total.size(); ++l) {
      const double ms = static_cast<double>(self_total[l]) / 1e6 / traced_n;
      layer[kLayerMetrics[l]] = ms;
      std::printf("%-34s %12.3f %7.1f%%\n", kLayerMetrics[l], ms,
                  100.0 * static_cast<double>(self_total[l]) / static_cast<double>(epoch_ns));
    }
    layer["epoch.host_ms"] = static_cast<double>(epoch_ns) / 1e6 / traced_n;
    layer["telemetry.spans_per_epoch"] = static_cast<double>(spans_total) / traced_n;
    layer["telemetry.trace_overhead"] = median(trace_ratios) - 1;
    layer["failed_ratio"] = static_cast<double>(failed) / static_cast<double>(attempted);
    layer["host.probe_slowdown"] = median(slowdown);
    std::vector<double> wall_ops;  // untraced epochs only
    for (std::size_t i = 0; i < epochs.size(); i += 2) {
      wall_ops.push_back(static_cast<double>(epochs[i].ops - epochs[i].failed) / epochs[i].host_s);
    }
    layer["host.wall_ops_per_s"] = median(wall_ops);
    std::printf("%-34s %12.3f (sum of the rows above)\n", "epoch.host_ms",
                layer["epoch.host_ms"]);
    std::printf("\n%-34s %16s %s\n", "per-layer metric", "value", "unit");
    for (const MetricDef& m : kPerLayer) {
      const auto it = layer.find(m.name);
      const double v = it == layer.end() ? 0 : it->second;
      out.push_back({m, v});
      std::printf("%-34s %16.6g %s\n", m.name, v, m.unit);
    }
  }
  std::fflush(stdout);
  print_json(correct, attempted, failed, out);
  return correct ? 0 : 1;
}
