// Shared bench harness: flag parsing and the --json export every table
// bench offers (DESIGN.md "Telemetry & profiling").
//
// Flags are `--name value` or `--name=value`. Each bench declares the knobs
// it supports with flag_int(); the effective values (default or overridden)
// land in the report's "params" object so a BENCH_*.json is self-describing.
// `--json <path>` is available everywhere and selects machine output.
//
// The written document has a stable schema future PRs diff against:
//
//   {
//     "schema_version": 1,
//     "bench": "E1",
//     "params":   { ... declared flags, effective values ... },
//     "results":  { ... bench-specific numbers, insertion order ... },
//     "profiles": { ... optional CycleProfiler attributions ... },
//     "metrics":  { ... the whole telemetry registry ... }
//   }
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/slo.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace rmc::bench {

using common::i64;
using common::u64;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected positional argument: %s\n",
                     arg.c_str());
        std::exit(2);
      }
      arg.erase(0, 2);
      Flag f;
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        f.value = arg.substr(eq + 1);
        arg.erase(eq);
      } else if (i + 1 < argc) {
        f.value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      f.name = std::move(arg);
      flags_.push_back(std::move(f));
    }
    // Tracing exports, available to every bench (DESIGN.md §11). These are
    // deliberately NOT recorded as params: enabling tracing must leave the
    // bench's JSON byte-identical to an untraced run, and an output path is
    // host state, not workload shape.
    if (const std::string* s = take("trace")) {
      trace_path_ = *s;
      telemetry::Tracer::global().set_enabled(true);
    }
    if (const std::string* s = take("pcap")) {
      pcap_path_ = *s;
      telemetry::Tracer::global().set_enabled(true);
      telemetry::Tracer::global().set_pcap_capture(true);
    }
    // Timeseries CSV export path — same policy as --trace/--pcap: an output
    // path is host state, never a param. Only written when the bench also
    // attaches a Sampler to its JsonReport.
    if (const std::string* s = take("csv")) csv_path_ = *s;
  }

  /// Declares an integer knob; returns the parsed override or `def`.
  /// Every current knob is a workload size, so values below `min` (default 1)
  /// are rejected rather than handed to the bench to divide by.
  long flag_int(const std::string& name, long def, long min = 1) {
    long value = def;
    if (const std::string* s = take(name)) {
      char* end = nullptr;
      value = std::strtol(s->c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "flag --%s: not an integer: %s\n", name.c_str(),
                     s->c_str());
        std::exit(2);
      }
      if (value < min) {
        std::fprintf(stderr, "flag --%s: must be >= %ld, got %ld\n",
                     name.c_str(), min, value);
        std::exit(2);
      }
    }
    params_.emplace_back(name, value);
    return value;
  }

  /// Declares a string knob (e.g. --backend asm); returns the override or
  /// `def`. Recorded in "params" alongside the integer knobs.
  std::string flag_str(const std::string& name, const std::string& def) {
    std::string value = def;
    if (const std::string* s = take(name)) value = *s;
    str_params_.emplace_back(name, value);
    return value;
  }

  /// Wall-clock milliseconds since flag parsing (≈ process start). Host
  /// state, not workload shape: reported next to the deterministic numbers
  /// and dropped by every comparison (scripts/bench_diff.py).
  u64 host_ms() const {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  /// Path given with --json, empty when absent (= human output only).
  std::string json_path() {
    if (const std::string* s = take("json")) return *s;
    return {};
  }

  /// Paths given with --trace / --pcap / --csv (already consumed; empty =
  /// off).
  const std::string& trace_path() const { return trace_path_; }
  const std::string& pcap_path() const { return pcap_path_; }
  const std::string& csv_path() const { return csv_path_; }

  /// Declared knobs with their effective values (for the params object).
  const std::vector<std::pair<std::string, long>>& params() const {
    return params_;
  }
  const std::vector<std::pair<std::string, std::string>>& str_params() const {
    return str_params_;
  }

  /// True when every flag on the command line was declared by the bench.
  bool all_consumed() const {
    bool ok = true;
    for (const Flag& f : flags_) {
      if (!f.taken) {
        std::fprintf(stderr, "unknown flag: --%s\n", f.name.c_str());
        ok = false;
      }
    }
    return ok;
  }

 private:
  struct Flag {
    std::string name;
    std::string value;
    bool taken = false;
  };

  const std::string* take(const std::string& name) {
    for (Flag& f : flags_) {
      if (f.name == name) {
        f.taken = true;
        return &f.value;
      }
    }
    return nullptr;
  }

  std::vector<Flag> flags_;
  std::vector<std::pair<std::string, long>> params_;
  std::vector<std::pair<std::string, std::string>> str_params_;
  std::string trace_path_;
  std::string pcap_path_;
  std::string csv_path_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Accumulates a bench's numbers and writes the schema above. Results keep
/// insertion order (the order the table prints in); dotted keys ("hand.keyexp")
/// are the convention for per-row values.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  // u64/i64 cover size_t and long on this platform; don't add overloads for
  // those (they'd collide — same underlying types).
  void result(std::string key, u64 v) {
    entries_.push_back({std::move(key), Entry::kU64, v, 0, 0.0, {}});
  }
  void result(std::string key, i64 v) {
    entries_.push_back({std::move(key), Entry::kI64, 0, v, 0.0, {}});
  }
  void result(std::string key, int v) { result(std::move(key), static_cast<i64>(v)); }
  void result(std::string key, unsigned v) { result(std::move(key), static_cast<u64>(v)); }
  void result(std::string key, double v) {
    entries_.push_back({std::move(key), Entry::kDouble, 0, 0, v, {}});
  }
  void result(std::string key, bool v) {
    entries_.push_back({std::move(key), Entry::kBool, v ? 1u : 0u, 0, 0.0, {}});
  }
  void result(std::string key, std::string v) {
    entries_.push_back({std::move(key), Entry::kString, 0, 0, 0.0, std::move(v)});
  }
  void result(std::string key, const char* v) {
    result(std::move(key), std::string(v));
  }

  /// A host-timed number (wall-clock, varies run to run). Written to the
  /// top-level "host" object, which comparisons drop along with host_ms, so
  /// "results" holds only what a fixed seed reproduces.
  void host(std::string key, double v) {
    host_.emplace_back(std::move(key), v);
  }

  /// Attach a cycle attribution under "profiles". The profiler must stay
  /// alive until write(); typical use names one per measured build.
  void profile(std::string name, const telemetry::CycleProfiler& p) {
    profiles_.emplace_back(std::move(name), &p);
  }

  /// Attach the run's timeseries sampler: write() then emits a "timeseries"
  /// section, honors --csv, and the --trace export gains "ph":"C" counter
  /// tracks. Benches that never attach one emit byte-identical JSON to
  /// before this section existed. Must stay alive until write().
  void timeseries(const telemetry::Sampler& s) { sampler_ = &s; }
  /// Attach the run's SLO engine: write() emits an "slo" section (rules,
  /// firing state, alert timeline). Must stay alive until write().
  void slo(const telemetry::SloEngine& e) { slo_ = &e; }

  /// Write BENCH_<id>.json-style output when --json was passed; otherwise a
  /// no-op. Exits nonzero on I/O failure or unknown flags so typos fail the
  /// run instead of silently measuring the default configuration.
  void write(Args& args) const {
    const std::string path = args.json_path();
    if (!args.all_consumed()) std::exit(2);
    write_trace_artifacts(args);
    if (path.empty()) return;

    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("schema_version", 1);
    w.kv("bench", bench_);
    // Wall-clock cost of the run and any other host-timed numbers: the perf
    // trajectory the committed snapshots carry. They vary run to run, so
    // scripts/bench_diff.py drops both before comparing the rest.
    w.kv("host_ms", args.host_ms());
    if (!host_.empty()) {
      w.key("host");
      w.begin_object();
      for (const auto& [key, value] : host_) w.kv(key, value);
      w.end_object();
    }
    w.key("params");
    w.begin_object();
    for (const auto& [name, value] : args.params()) {
      w.kv(name, static_cast<i64>(value));
    }
    for (const auto& [name, value] : args.str_params()) {
      w.kv(name, value);
    }
    w.end_object();
    w.key("results");
    w.begin_object();
    for (const Entry& e : entries_) {
      switch (e.kind) {
        case Entry::kU64: w.kv(e.key, e.u); break;
        case Entry::kI64: w.kv(e.key, e.i); break;
        case Entry::kDouble: w.kv(e.key, e.d); break;
        case Entry::kBool: w.kv(e.key, e.u != 0); break;
        case Entry::kString: w.kv(e.key, e.s); break;
      }
    }
    w.end_object();
    if (!profiles_.empty()) {
      w.key("profiles");
      w.begin_object();
      for (const auto& [name, prof] : profiles_) {
        w.key(name);
        prof->write_json(w);
      }
      w.end_object();
    }
    w.key("metrics");
    telemetry::Registry::global().write_json(w);
    if (sampler_ != nullptr) {
      w.key("timeseries");
      sampler_->write_json(w);
    }
    if (slo_ != nullptr) {
      w.key("slo");
      slo_->write_json(w);
    }
    w.end_object();

    if (!telemetry::write_file(path, w.str())) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::printf("\njson report written to %s\n", path.c_str());
  }

 private:
  /// Honor --trace / --pcap / --csv: dump whatever the tracer and sampler
  /// captured. Runs even without --json, so any bench can be used purely as
  /// a trace source. With a sampler attached the Chrome trace additionally
  /// carries the counter tracks; without one the bytes are unchanged.
  void write_trace_artifacts(const Args& args) const {
    auto& tracer = telemetry::Tracer::global();
    if (!args.trace_path().empty()) {
      const std::string doc =
          sampler_ != nullptr ? sampler_->chrome_trace_json(tracer.events())
                              : telemetry::chrome_trace_json(tracer.events());
      if (!telemetry::write_file(args.trace_path(), doc)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_path().c_str());
        std::exit(1);
      }
      std::printf("chrome trace written to %s (%zu events)\n",
                  args.trace_path().c_str(), tracer.events().size());
    }
    if (!args.csv_path().empty() && sampler_ != nullptr) {
      if (!telemetry::write_file(args.csv_path(), sampler_->csv())) {
        std::fprintf(stderr, "cannot write %s\n", args.csv_path().c_str());
        std::exit(1);
      }
      std::printf("timeseries csv written to %s (%llu samples)\n",
                  args.csv_path().c_str(),
                  static_cast<unsigned long long>(sampler_->samples()));
    }
    if (!args.pcap_path().empty()) {
      const auto bytes = tracer.pcap_file_bytes();
      if (!telemetry::write_binary_file(args.pcap_path(), bytes)) {
        std::fprintf(stderr, "cannot write %s\n", args.pcap_path().c_str());
        std::exit(1);
      }
      std::printf("pcap written to %s (%llu packets)\n",
                  args.pcap_path().c_str(),
                  static_cast<unsigned long long>(tracer.pcap_packets()));
    }
  }

  struct Entry {
    std::string key;
    enum Kind { kU64, kI64, kDouble, kBool, kString } kind;
    u64 u;
    i64 i;
    double d;
    std::string s;
  };

  std::string bench_;
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, double>> host_;
  std::vector<std::pair<std::string, const telemetry::CycleProfiler*>>
      profiles_;
  const telemetry::Sampler* sampler_ = nullptr;
  const telemetry::SloEngine* slo_ = nullptr;
};

}  // namespace rmc::bench
