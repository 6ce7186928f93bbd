// The three service workloads: clients on one simulated segment talk to the
// RmcRedirector (the board), which forwards to an EchoBackend. One harness
// pass polls the redirector, the backend and every live client once, then
// ticks the medium by 1 ms; the redirector's own tcp_tick costatement ticks it
// once more, so a pass is 2 ms of virtual time, as in the repository's soaks.
//
//   tls_bulk    closed loop: 3 keep-alive PSK clients, one per handler slot,
//               echo requests of 64 B .. 16 KiB (log-uniform), clean network.
//   tls_churn   open loop: Poisson sessions of one small request, RSA key
//               exchange with resumption, 34 clients against the 32-entry
//               session cache.
//   plain_lossy open loop: Poisson plaintext sessions of 1..4 KiB through the
//               pass-through build under Gilbert-Elliott burst loss.
//
// An epoch is one or more boots: a fresh board, network and client
// population, each with its own seeded inputs. Open loops pool their
// latencies over several boots so the p99 rests on thousands of sessions
// while no boot runs long enough for the board's never-reaped TCBs (see
// NOTES.md) to dominate host time.
//
// The secure workloads charge the redirector's CPU-cost model from the
// simulated board at set-up (E5's method for the assembly build).
#include <algorithm>
#include <cmath>

#include "common/prng.h"
#include "crypto/aes.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "perfbench.h"
#include "services/redirector.h"
#include "telemetry/metrics.h"

namespace perfbench {

namespace net = rmc::net;
namespace issl = rmc::issl;
namespace services = rmc::services;
using rmc::common::Xorshift64;

namespace {

constexpr net::IpAddr kBoardIp = 1;
constexpr net::IpAddr kBackendIp = 2;
constexpr net::IpAddr kClientIp = 3;
constexpr net::Port kListenPort = 4433;
constexpr net::Port kBackendPort = 8000;

enum class Kind { kBulk, kChurn, kPlainLossy };

// Workload shapes. Open-loop rates sit below saturation for their boot size;
// the lossy rate and loss keep the TCP retransmit tail on a stable plateau
// (at 1% average loss and above, go-back-N recovery starts to collapse).
constexpr std::size_t kBulkClients = 3;  // one per handler slot
constexpr std::size_t kBulkRequestsPerClient = 340;
constexpr std::size_t kBulkMinBytes = 64;
constexpr std::size_t kBulkMaxBytes = 16 * 1024;
constexpr std::size_t kChurnBoots = 6;
constexpr std::size_t kChurnSessions = 500;  // per boot
constexpr double kChurnRatePerS = 15;       // virtual sessions per second
constexpr std::size_t kChurnPopulation = 34;  // > the 32-entry session cache
constexpr std::size_t kChurnMinBytes = 16;
constexpr std::size_t kChurnMaxBytes = 256;
constexpr std::size_t kLossyBoots = 48;
constexpr std::size_t kLossySessions = 250;  // per boot
constexpr double kLossyRatePerS = 15;
constexpr std::size_t kLossyMinBytes = 1024;
constexpr std::size_t kLossyMaxBytes = 4096;
constexpr double kLossyAvgLoss = 0.006;  // Gilbert-Elliott, bursts of ~4
constexpr u64 kServerKeySeed = 0x4b45595345454431;
/// A session or request not done this long after it started has failed.
constexpr u64 kGiveUpMs = 120'000;

double uniform01(Xorshift64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// `n` uniform draws, one from each stratum [i/n, (i+1)/n), in seeded random
/// order. The mix of sizes, gaps and clients is then the same for every seed
/// and only its order and fine detail change, which keeps the percentiles of
/// one run comparable with another's.
std::vector<double> stratified(Xorshift64& rng, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = (static_cast<double>(i) + uniform01(rng)) / n;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(static_cast<rmc::common::u32>(i))]);
  }
  return v;
}

std::size_t size_between(double u, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(u * static_cast<double>(hi - lo + 1));
}

std::vector<u8> random_bytes(Xorshift64& rng, std::size_t n) {
  std::vector<u8> v(n);
  rng.fill(v);
  return v;
}

u64 counter(const char* name) {
  const auto* c = rmc::telemetry::Registry::global().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// One open-loop session, or one keep-alive client of the closed loop.
struct Work {
  u64 due_ms = 0;                         // open loop: when it should start
  std::size_t member = 0;                 // churn: which population client
  std::vector<std::vector<u8>> requests;  // one for open-loop sessions
};

/// One boot's inputs.
struct Boot {
  u64 seed = 0;
  std::vector<Work> work;
};

/// A client the harness is currently driving.
struct Live {
  const Work* work = nullptr;
  std::unique_ptr<services::Client> client;
  std::size_t next_request = 0;  // index of the request in flight
  u64 request_start_ms = 0;
  u64 start_ms = 0;    // due time (open) or connect time (closed)
  u64 hs_done_ms = 0;  // valid once hs_seen
  bool hs_seen = false;
};

/// Per-layer results summed (or maxed) over the boots of one epoch.
struct Tally {
  std::vector<double> hs_ms, req_ms;
  std::map<std::string, u64> sums;
  std::map<std::string, u64> peaks;
  u64 cache_hits = 0, cache_lookups = 0;
  u64 model_hs_cycles = 0, model_hs_count = 0;
  u64 charged_cycles = 0, payload_delivered = 0;
};

class ServiceWorkload : public Workload {
 public:
  explicit ServiceWorkload(Kind kind) : kind_(kind) {}

  bool setup(u64 seed) override {
    seed_ = seed;
    Xorshift64 rng(seed);
    cfg_ = {};
    cfg_.listen_port = kListenPort;
    cfg_.backend_ip = kBackendIp;
    cfg_.backend_port = kBackendPort;
    cfg_.secure = kind_ != Kind::kPlainLossy;
    if (kind_ == Kind::kBulk) {
      tls_ = issl::Config::embedded_port();
      cfg_.psk = random_bytes(rng, 16);
    } else if (kind_ == Kind::kChurn) {
      tls_ = issl::Config{};  // RSA key exchange, the default modulus
      tls_.resumption = true;
      // The server's key belongs to the deployment, not to the traffic: a
      // fixed key keeps the prime search, whose cost varies several-fold
      // from one seed to the next, from swamping setup_s.
      Xorshift64 key_rng(kServerKeySeed);
      cfg_.rsa = rmc::crypto::rsa_generate(tls_.rsa_modulus_bits, key_rng);
      cfg_.session_cache_capacity = issl::kSessionCacheMaxEntries;
    }
    cfg_.tls = tls_;
    if (cfg_.secure && !price_crypto(rng)) return false;

    boots_.clear();
    const std::size_t boots =
        kind_ == Kind::kBulk ? 1 : kind_ == Kind::kChurn ? kChurnBoots : kLossyBoots;
    for (std::size_t b = 0; b < boots; ++b) {
      Boot boot;
      boot.seed = rng.next();
      boot.work = kind_ == Kind::kBulk ? bulk_work(rng) : open_work(rng);
      boots_.push_back(std::move(boot));
    }
    return true;
  }

  Epoch run(Tracer* tracer) override {
    Epoch e;
    Tally t;
    for (const Boot& boot : boots_) {
      const u64 t0 = now_ns();
      run_boot(boot, tracer, e, t);
      e.slice_host_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    finish(e, t);
    return e;
  }

  void layer_metrics(std::map<std::string, double>& out) override {
    out["services.charge_cycles_per_byte"] = static_cast<double>(cfg_.crypto_cycles_per_byte);
    out["services.charge_cycles_handshake"] = static_cast<double>(cfg_.crypto_cycles_handshake);
    out["services.charge_cycles_resumed"] =
        static_cast<double>(cfg_.crypto_cycles_resumed_handshake);
    if (!cfg_.secure) return;
    board_layer_metrics(*kernels_, probe_key_, probe_plain_, probe_block_, out);
    out[cycles_per_block_metric(BoardKernels::kAesC)] = static_cast<double>(c_block_);
    out[cycles_per_block_metric(BoardKernels::kAesAsm)] = static_cast<double>(asm_block_);
    out[cycles_per_block_metric(BoardKernels::kSha1C)] = static_cast<double>(sha_block_);

    // Host crypto, called with the shapes the record layer and handshake use.
    auto aes = rmc::crypto::AesFast::create(probe_key_);
    std::array<u8, 16> cipher{};
    if (aes.ok()) {
      out["crypto.aes128_enc_ns"] =
          time_ns_per_call([&] { aes->encrypt_block(probe_plain_, cipher); }, 20'000);
      out["crypto.aes128_dec_ns"] =
          time_ns_per_call([&] { aes->decrypt_block(probe_plain_, cipher); }, 20'000);
    }
    rmc::crypto::Sha1 sha;
    out["crypto.sha1_block_ns"] = time_ns_per_call([&] { sha.update(probe_block_); }, 20'000);
    if (cfg_.rsa) {
      Xorshift64 rng(seed_);
      auto ct = rmc::crypto::rsa_encrypt(cfg_.rsa->pub, probe_plain_, rng);
      if (ct.ok()) {
        out["crypto.rsa_private_us"] =
            time_ns_per_call([&] { (void)rmc::crypto::rsa_decrypt(cfg_.rsa->priv, *ct); }, 3) /
            1e3;
      }
    }
  }

 private:
  std::vector<Work> bulk_work(Xorshift64& rng) const {
    std::vector<Work> work(kBulkClients);
    for (Work& w : work) {
      for (double u : stratified(rng, kBulkRequestsPerClient)) {
        // Log-uniform sizes: as many small requests as large ones.
        const double span = std::log(static_cast<double>(kBulkMaxBytes) / kBulkMinBytes);
        const auto bytes = static_cast<std::size_t>(kBulkMinBytes * std::exp(span * u));
        w.requests.push_back(random_bytes(rng, bytes));
      }
    }
    return work;
  }

  std::vector<Work> open_work(Xorshift64& rng) const {
    const bool churn = kind_ == Kind::kChurn;
    const std::size_t n = churn ? kChurnSessions : kLossySessions;
    const double mean_gap_ms = 1e3 / (churn ? kChurnRatePerS : kLossyRatePerS);
    const auto gap = stratified(rng, n);
    const auto size = stratified(rng, n);
    const auto member = stratified(rng, n);
    std::vector<Work> work(n);
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - gap[i]) * mean_gap_ms;  // Poisson arrivals
      work[i].due_ms = static_cast<u64>(t);
      work[i].member = churn ? static_cast<std::size_t>(member[i] * kChurnPopulation) : 0;
      const std::size_t bytes = churn ? size_between(size[i], kChurnMinBytes, kChurnMaxBytes)
                                      : size_between(size[i], kLossyMinBytes, kLossyMaxBytes);
      work[i].requests.push_back(random_bytes(rng, bytes));
    }
    return work;
  }

  /// E5's CPU-cost model for the assembly build, from the simulated board:
  /// AES costs from asm/aes_hand.asm, SHA-1 from the C port scaled by the
  /// measured asm/C AES ratio (no SHA-1 assembly exists). A full handshake
  /// is the key schedule plus 22 compressions (PRF for master secret and key
  /// block ~16, Finished MACs and transcript ~6); a resumed one skips the
  /// master-secret PRF (8 of the 16). RSA is not charged: the board has no
  /// measured bignum kernel.
  bool price_crypto(Xorshift64& rng) {
    kernels_ = std::make_unique<BoardKernels>();
    if (!kernels_->build()) return false;
    rng.fill(probe_key_);
    rng.fill(probe_plain_);
    probe_block_ = sha1_pad_block(random_bytes(rng, rng.next_below(56)));
    std::array<u8, 16> out{};
    std::array<u8, 20> digest{};
    BoardKernels::Call sha;
    const u64 asm_key = kernels_->set_key(BoardKernels::kAesAsm, probe_key_).cycles;
    asm_block_ = kernels_->encrypt(BoardKernels::kAesAsm, probe_plain_, out).cycles;
    kernels_->set_key(BoardKernels::kAesC, probe_key_);
    c_block_ = kernels_->encrypt(BoardKernels::kAesC, probe_plain_, out).cycles;
    kernels_->sha1(probe_block_, digest, &sha);
    sha_block_ = sha.cycles;
    if (asm_block_ == 0 || c_block_ == 0 || sha_block_ == 0) return false;
    const u64 sha_asm = sha_block_ * asm_block_ / c_block_;
    cfg_.crypto_cycles_per_byte = asm_block_ / 16 + sha_asm / 64;
    cfg_.crypto_cycles_handshake = asm_key + 22 * sha_asm;
    cfg_.crypto_cycles_resumed_handshake = asm_key + 14 * sha_asm;
    return true;
  }

  void run_boot(const Boot& boot, Tracer* tracer, Epoch& e, Tally& t);
  void finish(Epoch& e, const Tally& t) const;

  Kind kind_;
  u64 seed_ = 0;
  issl::Config tls_;
  services::RedirectorConfig cfg_;
  std::vector<Boot> boots_;
  std::unique_ptr<BoardKernels> kernels_;
  std::array<u8, 16> probe_key_{}, probe_plain_{};
  std::array<u8, 64> probe_block_{};
  u64 asm_block_ = 0, c_block_ = 0, sha_block_ = 0;
};

void ServiceWorkload::run_boot(const Boot& boot, Tracer* tracer, Epoch& e, Tally& t) {
  rmc::telemetry::Registry::global().reset();
  net::SimNet medium(boot.seed);
  if (kind_ == Kind::kPlainLossy) {
    medium.set_fault_plan(net::FaultPlan::burst_loss(kLossyAvgLoss));
  }
  net::TcpStack board(medium, kBoardIp, boot.seed + 1);
  net::TcpStack backend_host(medium, kBackendIp, boot.seed + 2);
  net::TcpStack client_host(medium, kClientIp, boot.seed + 3);
  services::EchoBackend backend(backend_host, kBackendPort);
  services::RmcRedirector red(board, medium, cfg_);
  if (!backend.start().is_ok() || !red.start().is_ok()) {
    ++e.ops;
    ++e.failed;
    return;
  }

  const bool closed_loop = kind_ == Kind::kBulk;
  const std::vector<Work>& work = boot.work;
  std::vector<issl::ResumptionTicket> tickets(kChurnPopulation);
  std::vector<Live> live;
  std::size_t next = 0, done = 0, peak_live = 0, board_tcbs_peak = 0;

  auto start_request = [&](Live& l) {
    l.request_start_ms = medium.now_ms();
    (void)l.client->send(l.work->requests[l.next_request]);
  };
  auto spawn = [&](const Work& w, std::size_t index) {
    Live l;
    l.work = &w;
    l.client = std::make_unique<services::Client>(client_host, kBoardIp, kListenPort,
                                                  cfg_.secure, tls_, cfg_.psk,
                                                  boot.seed * 7919 + index);
    if (kind_ == Kind::kChurn && tickets[w.member].valid != 0) {
      l.client->offer_ticket(tickets[w.member]);
    }
    l.start_ms = closed_loop ? medium.now_ms() : w.due_ms;
    {
      Tracer::Scope span(tracer, Layer::kClient);
      (void)l.client->start();
    }
    start_request(l);
    live.push_back(std::move(l));
  };

  if (closed_loop) {
    for (std::size_t c = 0; c < work.size(); ++c) spawn(work[c], c);
    next = work.size();
  }
  while (done < work.size()) {
    const u64 now = medium.now_ms();
    while (next < work.size() && work[next].due_ms <= now) {
      spawn(work[next], next);
      ++next;
    }
    peak_live = std::max(peak_live, live.size());
    {
      Tracer::Scope span(tracer, Layer::kRedirector);
      red.poll();
    }
    {
      Tracer::Scope span(tracer, Layer::kBackend);
      backend.poll();
    }
    for (std::size_t i = 0; i < live.size();) {
      Live& l = live[i];
      bool alive = false;
      {
        Tracer::Scope span(tracer, Layer::kClient);
        alive = l.client->poll();
      }
      if (!l.hs_seen && l.client->handshake_done()) {
        l.hs_seen = true;
        l.hs_done_ms = now;
        t.hs_ms.push_back(static_cast<double>(now - l.start_ms));
        t.model_hs_cycles += l.client->handshake_cost_cycles();
        ++t.model_hs_count;
      }
      const auto& want = l.work->requests[l.next_request];
      auto& got = l.client->received();
      bool finished = false;
      if (got.size() >= want.size()) {
        ++e.ops;
        if (got.size() == want.size() && std::equal(got.begin(), got.end(), want.begin())) {
          e.useful_bytes += want.size();
          const u64 from = closed_loop ? l.request_start_ms : l.start_ms;
          e.latency_ms.push_back(static_cast<double>(now - from));
          const u64 req_from = l.hs_seen ? std::max(l.request_start_ms, l.hs_done_ms)
                                         : l.request_start_ms;
          t.req_ms.push_back(static_cast<double>(now - req_from));
        } else {
          ++e.failed;  // wrong echo
        }
        got.clear();
        if (kind_ == Kind::kChurn) tickets[l.work->member] = l.client->ticket();
        if (++l.next_request < l.work->requests.size()) {
          start_request(l);
        } else {
          finished = true;
        }
      } else if (!alive || l.client->failed() || now - l.request_start_ms > kGiveUpMs) {
        // Failed, reset or timed out: every request it still owed fails.
        const std::size_t owed = l.work->requests.size() - l.next_request;
        e.ops += owed;
        e.failed += owed;
        finished = true;
      }
      if (finished) {
        l.client->close();
        if (i + 1 != live.size()) live[i] = std::move(live.back());
        live.pop_back();
        ++done;
        (void)client_host.reap_dead();
      } else {
        ++i;
      }
    }
    {
      Tracer::Scope span(tracer, Layer::kNet);
      medium.tick(1);
    }
    board_tcbs_peak = std::max(board_tcbs_peak, board.tcb_count());
  }

  // Everything below is virtual time or a count, so it repeats per seed.
  e.sim_cycles += medium.now_ms() * static_cast<u64>(kBoardHz / 1e3);
  const u64 completed = counter("issl.handshakes_completed");
  const u64 resumed = counter("issl.handshakes_resumed");
  // Both ends of every session run in this process and each counts its
  // handshake once; the per-session figures are half the registry's.
  const u64 full = (completed - resumed) / 2;
  auto& s = t.sums;
  s["issl.records_sealed"] += counter("issl.records_sealed");
  s["issl.records_opened"] += counter("issl.records_opened");
  s["issl.handshakes_full"] += full;
  s["issl.handshakes_resumed"] += resumed / 2;
  s["issl.handshakes_failed"] += counter("issl.handshakes_failed");
  s["issl.mac_failures"] += counter("issl.mac_failures");
  s["issl.cache_evictions"] += counter("issl.cache_evictions");
  s["net.segments_sent"] += medium.segments_sent();
  s["net.segments_delivered"] += medium.segments_delivered();
  s["net.drops"] += medium.segments_dropped();
  s["tcp.retransmissions"] += counter("tcp.retransmissions");
  s["tcp.retx_giveups"] += counter("tcp.retx_giveups");
  s["tcp.syn_drops_backlog_full"] += counter("tcp.syn_drops_backlog_full");
  const auto& st = red.stats();
  s["services.served"] += st.connections_served;
  s["services.shed"] += st.connections_shed;
  s["services.handshake_timeouts"] += st.handshake_timeouts;
  s["services.watchdog_aborts"] += st.watchdog_aborts;
  s["services.backend_retries"] += st.backend_retries;
  auto& p = t.peaks;
  p["net.board_tcbs_peak"] = std::max<u64>(p["net.board_tcbs_peak"], board_tcbs_peak);
  p["net.board_tcbs_end"] = std::max<u64>(p["net.board_tcbs_end"], board.tcb_count());
  p["services.live_clients_peak"] = std::max<u64>(p["services.live_clients_peak"], peak_live);
  t.cache_hits += red.session_cache().hits();
  t.cache_lookups += red.session_cache().hits() + red.session_cache().misses();
  t.payload_delivered += medium.payload_bytes_delivered();
  t.charged_cycles +=
      (st.bytes_client_to_backend + st.bytes_backend_to_client) * cfg_.crypto_cycles_per_byte +
      full * cfg_.crypto_cycles_handshake + (resumed / 2) * cfg_.crypto_cycles_resumed_handshake;
}

void ServiceWorkload::finish(Epoch& e, const Tally& t) const {
  e.latency_resolution_ms = 1;
  auto& c = e.counts;
  for (const auto& [name, v] : t.sums) c[name] = static_cast<double>(v);
  for (const auto& [name, v] : t.peaks) c[name] = static_cast<double>(v);
  c["issl.cache_lookups"] = static_cast<double>(t.cache_lookups);
  c["issl.cache_hit_ratio"] =
      t.cache_lookups ? static_cast<double>(t.cache_hits) / static_cast<double>(t.cache_lookups)
                      : 0;
  c["issl.model_handshake_cycles"] =
      t.model_hs_count ? static_cast<double>(t.model_hs_cycles) / t.model_hs_count : 0;
  // Each echoed byte has to cross four legs (client->board->backend and
  // back), so a wire carrying nothing else would read 1.
  c["net.wire_efficiency"] = t.payload_delivered ? 4.0 * static_cast<double>(e.useful_bytes) /
                                                       static_cast<double>(t.payload_delivered)
                                                 : 0;
  c["services.hs_vt_p50_ms"] = latency_percentile(t.hs_ms, 50, 1);
  c["services.hs_vt_p99_ms"] = latency_percentile(t.hs_ms, 99, 1);
  c["services.req_vt_p50_ms"] = latency_percentile(t.req_ms, 50, 1);
  c["services.req_vt_p99_ms"] = latency_percentile(t.req_ms, 99, 1);
  c["services.modelled_cpu_util"] =
      e.sim_cycles ? static_cast<double>(t.charged_cycles) / static_cast<double>(e.sim_cycles) : 0;
}

}  // namespace

std::unique_ptr<Workload> make_service(std::string_view name) {
  if (name == "tls_bulk") return std::make_unique<ServiceWorkload>(Kind::kBulk);
  if (name == "tls_churn") return std::make_unique<ServiceWorkload>(Kind::kChurn);
  if (name == "plain_lossy") return std::make_unique<ServiceWorkload>(Kind::kPlainLossy);
  return nullptr;
}

}  // namespace perfbench
