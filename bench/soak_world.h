// The world every soak builds around the service (DESIGN.md §4): a seeded
// SimNet, the echo backend at 2:8000, the client host at 3 and, where a soak
// needs them, a bare board stack at 1 and an attacker host at 4 — plus the
// service config, client factory, echo session and audit helpers the soaks
// share. Poll order is behaviour, so the world runs no loop: each soak polls
// the pieces in its own order and keeps its own scenario and gates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "services/supervisor.h"
#include "telemetry/metrics.h"

namespace rmc::bench {

using common::u64;
using common::u8;

inline constexpr net::IpAddr kBoardIp = 1;
inline constexpr net::IpAddr kBackendIp = 2;
inline constexpr net::IpAddr kClientIp = 3;
inline constexpr net::IpAddr kAttackerIp = 4;
inline constexpr net::Port kBackendPort = 8000;

/// The service every soak runs: listen on 4433, forward to the echo backend,
/// secure with `psk`; every other field keeps its default.
inline services::RedirectorConfig service_config(std::string_view psk) {
  services::RedirectorConfig cfg;
  cfg.backend_ip = kBackendIp;
  cfg.backend_port = kBackendPort;
  cfg.psk = common::bytes_of(psk);
  return cfg;
}

/// The same service on a supervised board at kBoardIp.
inline services::ServiceBoardConfig board_config(std::string_view psk) {
  services::ServiceBoardConfig cfg;
  cfg.redirector = service_config(psk);
  cfg.board_ip = kBoardIp;
  return cfg;
}

struct SoakWorld {
  /// The backend is listening on return.
  explicit SoakWorld(u64 seed, const net::FaultPlan& faults = {})
      : seed(seed),
        medium(seed),
        backend_host(medium, kBackendIp),
        client_host(medium, kClientIp),
        backend(backend_host, kBackendPort) {
    medium.set_fault_plan(faults);
    (void)backend.start();
  }
  // The medium holds the hosts' addresses.
  SoakWorld(const SoakWorld&) = delete;
  SoakWorld& operator=(const SoakWorld&) = delete;

  /// A bare stack at kBoardIp, for soaks that run the redirector without a
  /// ServiceBoard (which brings its own).
  net::TcpStack& add_board_stack() {
    board_stack = std::make_unique<net::TcpStack>(medium, kBoardIp);
    return *board_stack;
  }
  /// The attacker host, seeded apart from the rest of the world.
  net::TcpStack& add_attacker_host() {
    attacker_host =
        std::make_unique<net::TcpStack>(medium, kAttackerIp, seed ^ 0xA77A);
    return *attacker_host;
  }

  /// A client on the client host speaking what `svc` speaks (secure or not,
  /// TLS config, PSK). `seed` feeds its session RNG; a nonzero
  /// `idle_give_up` is its read timeout in polls.
  std::unique_ptr<services::Client> client(
      const services::RedirectorConfig& svc, u64 seed, u64 idle_give_up = 0) {
    auto c = std::make_unique<services::Client>(
        client_host, kBoardIp, svc.listen_port, svc.secure, svc.tls, svc.psk,
        seed);
    c->set_idle_give_up(idle_give_up);
    return c;
  }

  /// TCP totals over every host the world owns.
  u64 retransmissions() const { return sum(&net::TcpStack::retransmissions); }
  u64 retx_giveups() const { return sum(&net::TcpStack::retx_giveups); }

  const u64 seed;
  net::SimNet medium;
  std::unique_ptr<net::TcpStack> board_stack;
  net::TcpStack backend_host;
  net::TcpStack client_host;
  std::unique_ptr<net::TcpStack> attacker_host;
  services::EchoBackend backend;

 private:
  u64 sum(u64 (net::TcpStack::*stat)() const) const {
    u64 n = (backend_host.*stat)() + (client_host.*stat)();
    for (const auto* h : {board_stack.get(), attacker_host.get()}) {
      if (h != nullptr) n += (h->*stat)();
    }
    return n;
  }
};

/// `bytes` of payload drawn from a PRNG seeded with `seed`.
inline std::vector<u8> random_payload(std::size_t bytes, u64 seed) {
  std::vector<u8> payload(bytes);
  common::Xorshift64(seed).fill(payload);
  return payload;
}

/// One client echoing `payload` through the service `chunk` bytes at a
/// time: the next chunk goes out only once the echo has caught up with
/// everything sent, so a corrupted record costs the session its remaining
/// chunks rather than the whole transfer. `payload` must outlive it.
class ChunkedEcho {
 public:
  enum class State { kLive, kDone, kFailed };

  ChunkedEcho(std::unique_ptr<services::Client> client,
              std::span<const u8> payload, std::size_t chunk)
      : client_(std::move(client)), payload_(payload), chunk_(chunk) {}

  /// Dial and send the first chunk.
  void start() {
    (void)client_->start();
    send_first();
  }
  /// Redial, offering any earned ticket, and start the payload over. False
  /// if the dial failed.
  bool redial() {
    if (!client_->reconnect().is_ok()) return false;
    send_first();
    return true;
  }

  /// Done once the whole payload is back, failed once the connection is
  /// gone; while live, sends the next chunk if the echo has caught up.
  State poll() {
    services::Client& c = *client_;
    const bool alive = c.poll();
    if (c.received().size() >= payload_.size()) return State::kDone;
    if (!alive || c.failed()) return State::kFailed;
    if (c.received().size() >= sent_ && sent_ < payload_.size()) {
      const std::size_t n = std::min(chunk_, payload_.size() - sent_);
      (void)c.send(payload_.subspan(sent_, n));
      sent_ += n;
    }
    return State::kLive;
  }

  services::Client& client() { return *client_; }

 private:
  void send_first() {
    sent_ = std::min(chunk_, payload_.size());
    (void)client_->send(payload_.first(sent_));
  }

  std::unique_ptr<services::Client> client_;
  std::span<const u8> payload_;
  std::size_t chunk_;
  std::size_t sent_ = 0;
};

/// Run one session until `client` has `want` bytes back, fails, or
/// `budget_ms` passes; true if it completed. `step` advances the world one
/// virtual ms in the soak's poll order, `client` included; `t` counts the ms.
template <class Step>
bool run_session(services::Client& client, std::size_t want, u64 budget_ms,
                 u64& t, Step&& step) {
  for (u64 i = 0; i < budget_ms; ++i, ++t) {
    step();
    const bool done = client.received().size() >= want;
    if (client.failed()) return done;
    if (done) {
      ++t;
      return true;
    }
  }
  return false;
}

/// End-of-run echo audit: what came back must be a prefix of what was sent.
/// A truncated echo (the session died mid-way) is clean; any differing byte
/// is corruption.
struct EchoAudit {
  int corrupt = 0;
  u64 bytes_echoed = 0;

  /// Tally one client's echo; false if it was corrupt.
  bool add(std::span<const u8> received, std::span<const u8> payload) {
    const std::size_t n = std::min(received.size(), payload.size());
    if (!std::equal(received.begin(), received.begin() + n, payload.begin())) {
      ++corrupt;
      return false;
    }
    bytes_echoed += received.size();
    return true;
  }
};

/// A registry counter read as its movement since construction: the registry
/// is process-wide and outlives each scenario.
struct CounterDelta {
  explicit CounterDelta(std::string_view name)
      : counter(telemetry::Registry::global().counter(name)),
        start(counter.value()) {}
  u64 value() const { return counter.value() - start; }

  const telemetry::Counter& counter;
  u64 start;
};

}  // namespace rmc::bench
