// Shared pieces of the perfbench program: the span recorder used by the traced
// run, the per-epoch result every workload returns, and the workload
// interface main.cpp drives.
//
// A run sets a workload up from its seed, then replays one fixed, seeded
// unit of work (an "epoch") until the time budget is spent. Every epoch of a
// run sees identical inputs, so virtual-time results and counts must repeat
// exactly (the seed self-check); host time is taken per epoch, and per slice
// of an epoch for the tracing overhead.
#pragma once

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "rabbit/board.h"
#include "services/aes_port.h"

namespace perfbench {

using rmc::common::u64;
using rmc::common::u8;

/// The simulated board's clock: virtual ms and cycles convert through it.
inline constexpr double kBoardHz = 30.0e6;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// The layers a span can be charged to. `kOther` is the benchmark's own
/// harness: whatever part of a timed phase no layer span covers.
enum class Layer : u8 {
  kOther,
  kRabbit,      // rabbit::Board::call (directly or through AesOnBoard)
  kRedirector,  // services::RmcRedirector::poll (dynk scheduler inside)
  kClient,      // services::Client start / poll
  kBackend,     // services::EchoBackend::poll
  kNet,         // net::SimNet::tick
  kCount,
};

/// Per-layer metric each layer's self time is reported under (ms per epoch).
inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerMetrics = {"other.host_ms",
                     "rabbit.call_host_ms",
                     "services.redirector_poll_host_ms",
                     "services.client_poll_host_ms",
                     "services.backend_poll_host_ms",
                     "net.tick_host_ms"};

/// In-memory span recorder. Spans are kept until the phase ends and reduced
/// to per-layer self time there (a span's duration minus the part of it its
/// child spans cover), so the buckets sum exactly to the root span.
class Tracer {
 public:
  using SelfTime = std::array<u64, static_cast<std::size_t>(Layer::kCount)>;

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes both no-ops, which is how untraced runs pay nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(layer);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Self time per layer over every recorded span, in ns.
  SelfTime self_ns() const;
  std::size_t spans() const { return spans_.size(); }
  void clear() {
    spans_.clear();
    open_ = kNone;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Span {
    Layer layer;
    std::size_t parent;  // index of the enclosing span, kNone for a root
    u64 start_ns;
    u64 end_ns;
  };

  std::size_t open(Layer layer) {
    spans_.push_back({layer, open_, now_ns(), 0});
    open_ = spans_.size() - 1;
    return open_;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    open_ = spans_[index].parent;
  }

  std::vector<Span> spans_;
  std::size_t open_ = kNone;
};

/// What one epoch did. Everything except host times must be identical
/// across the epochs of a run.
struct Epoch {
  double host_s = 0;               // the whole epoch (the root span)
  u64 ops = 0;                     // attempted operations (call / request / session)
  u64 failed = 0;                  // failed, timed-out or wrong-output operations
  u64 useful_bytes = 0;            // verified payload bytes
  u64 sim_cycles = 0;              // simulated board cycles the epoch covered
  std::vector<double> latency_ms;  // virtual latency of each completed op
  double latency_resolution_ms = 0;  // grid the latencies were read on (0: exact)
  /// Deterministic per-layer values (counts, virtual-time percentiles).
  std::map<std::string, double> counts;
  /// Host time of each slice of the epoch (a service boot, or a batch of
  /// board rounds). A traced epoch pairs slice by slice with the untraced
  /// epoch before it to measure the tracing overhead.
  std::vector<double> slice_host_s;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build images, measure on-board costs and draw the inputs from `seed`.
  /// Returns false (after printing why) if a known-answer check fails.
  virtual bool setup(u64 seed) = 0;
  /// Run the fixed unit of work once. The caller opens the root span.
  virtual Epoch run(Tracer* tracer) = 0;
  /// Per-layer values that come from set-up or from timing single calls.
  virtual void layer_metrics(std::map<std::string, double>& out) = 0;
};

std::unique_ptr<Workload> make_board_kernels();
/// "tls_bulk", "tls_churn" or "plain_lossy"; nullptr for anything else.
std::unique_ptr<Workload> make_service(std::string_view name);

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
/// Percentile of latencies read on a `resolution_ms` grid (0 = exact): each
/// sample counts as spread evenly over its grid bin, so a rank that lands
/// among tied samples interpolates inside the bin instead of snapping to
/// the grid point.
double latency_percentile(std::vector<double> v, double p, double resolution_ms);
/// Median host ns per call of `fn`, over `repeats` batches of `calls` calls.
template <class F>
double time_ns_per_call(F&& fn, int calls, int repeats = 5) {
  std::vector<double> per_call;
  for (int r = 0; r < repeats; ++r) {
    const u64 t0 = now_ns();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  return percentile(per_call, 50);
}

/// How much slower than nominal the host runs right now: one timing of the
/// host-speed probe (host_speed.cpp), fixed work that no change to the
/// repository can move, divided by kProbeNominalS.
double host_slowdown();
/// The probe's host time (geometric mean of its three kernels) on an idle
/// 4-core x86-64 VM (Xeon, Sapphire Rapids): there, rates per probe-scaled
/// second read close to rates per wall second.
inline constexpr double kProbeNominalS = 0.015;
/// How a workload's host time follows the probe: time ~ slowdown^k. The
/// workloads differ (about 0.5 for the rabbit interpreter, 1 for tls_bulk);
/// 0.75 gave the smallest worst-case run-to-run spread over them (NOTES.md).
inline constexpr double kProbeElasticity = 0.75;

/// Repository-relative path of a source the workloads load (asm/, dc/).
std::string repo_file(std::string_view relative);

// --- The on-board crypto kernels -----------------------------------------

/// The four kernel images board_kernels runs, loaded on their own boards:
/// the AES-128 port (dc/aes.dc) under dcc's debug_defaults and
/// all_optimizations, the hand assembly (asm/aes_hand.asm), and the SHA-1
/// port (dc/sha1.dc, debug_defaults). The service workloads price their
/// crypto charges from the same images (E5's method).
class BoardKernels {
 public:
  enum Kernel { kAesC, kAesCOpt, kAesAsm, kSha1C, kKernels };
  static constexpr std::array<const char*, kKernels> kNames = {
      "aes_c", "aes_c_opt", "aes_asm", "sha1_c"};

  struct Call {
    u64 cycles = 0;
    u64 instructions = 0;
  };

  /// Build and initialize every image, then check each against its
  /// FIPS-197 / FIPS 180-1 known answer (this is also the warm-up call per
  /// image). Prints the reason and returns false on any failure.
  bool build();

  /// Expand `key` on AES build `k` (kAesC..kAesAsm).
  Call set_key(Kernel k, std::span<const u8, 16> key);
  /// Encrypt one block under the last key set on build `k`.
  Call encrypt(Kernel k, std::span<const u8, 16> in, std::span<u8, 16> out);
  /// SHA-1 of one pre-padded 64-byte block: sha1_init + sha1_block.
  /// `block_only` receives the compression call alone.
  Call sha1(std::span<const u8, 64> block, std::span<u8, 20> digest,
            Call* block_only = nullptr);

  /// Code bytes of an AES image (E3's size metric).
  std::size_t image_bytes(Kernel k) const { return aes_[k]->image_bytes(); }

 private:
  std::array<std::optional<rmc::services::AesOnBoard>, kSha1C> aes_;
  rmc::rabbit::Board sha_board_;
  rmc::common::u32 sha_msg_ = 0, sha_hi_ = 0, sha_lo_ = 0;
};

/// Per-layer metric name of a kernel's cycles per block.
std::string cycles_per_block_metric(BoardKernels::Kernel k);

/// The rabbit / rasm / dcc per-layer values: host ns per simulated
/// instruction of each image (timed on `key`/`plain`/`block`), assemble and
/// compile time of the AES sources, and the AES image sizes.
void board_layer_metrics(BoardKernels& kernels, std::span<const u8, 16> key,
                         std::span<const u8, 16> plain,
                         std::span<const u8, 64> block,
                         std::map<std::string, double>& out);

/// SHA-1 padding of a message shorter than 56 bytes into one block.
std::array<u8, 64> sha1_pad_block(std::span<const u8> msg);

}  // namespace perfbench
