// The host-speed probe: fixed pieces of host work, written here and using
// only the C++ standard library, so no change to the repository's sources
// can move them. A shared virtual machine can run one thread 1.5x slower
// for tens of seconds when its neighbours are busy, and a slow phase can
// cover a whole run. Timing the probe between epochs tells how fast the host
// runs at the moment, and host rates are reported per probe-scaled second.
//
// Different code slows by different amounts in the same slow phase: the
// rabbit interpreter far less than the hash-map-heavy service code. No one
// kernel tracks every workload, so the probe is the geometric mean of three
// kinds of work:
//   - ALU rounds (add-rotate-xor, like SHA-1's compression);
//   - table lookups (four 1 KiB tables, like AES T-tables);
//   - hash-map and tree lookups on formatted keys, buffer copies and small
//     sorts (like the service and network code).
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

using rmc::common::u32;

// The probe's own generator: the repository's could change under it.
struct Rng {
  u64 x;
  u64 next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

u64 arx_rounds(u64 seed) {
  std::array<u32, 16> v{};
  for (u32 i = 0; i < v.size(); ++i) v[i] = i * 0x9E3779B9u ^ static_cast<u32>(seed);
  const auto quarter = [&v](int a, int b, int c, int d) {
    v[a] += v[b];
    v[d] = std::rotl(v[d] ^ v[a], 16);
    v[c] += v[d];
    v[b] = std::rotl(v[b] ^ v[c], 12);
    v[a] += v[b];
    v[d] = std::rotl(v[d] ^ v[a], 8);
    v[c] += v[d];
    v[b] = std::rotl(v[b] ^ v[c], 7);
  };
  for (int round = 0; round < 1'200'000; ++round) {
    quarter(0, 4, 8, 12);
    quarter(1, 5, 9, 13);
    quarter(2, 6, 10, 14);
    quarter(3, 7, 11, 15);
    quarter(0, 5, 10, 15);
    quarter(1, 6, 11, 12);
    quarter(2, 7, 8, 13);
    quarter(3, 4, 9, 14);
  }
  return v[3];
}

u64 table_lookups(u64 seed) {
  static const auto tables = [] {
    std::array<std::array<u32, 256>, 4> t{};
    u32 x = 1;
    for (auto& table : t) {
      for (u32& e : table) e = x = x * 1664525u + 1013904223u;
    }
    return t;
  }();
  std::vector<u32> data(1 << 16, 7);
  std::array<u32, 4> s{static_cast<u32>(seed), 2, 3, 4};
  for (int pass = 0; pass < 16; ++pass) {
    for (std::size_t i = 0; i < data.size(); i += 4) {
      for (std::size_t j = 0; j < 4; ++j) s[j] ^= data[i + j];
      for (int round = 0; round < 10; ++round) {
        std::array<u32, 4> t{};
        for (std::size_t j = 0; j < 4; ++j) {
          t[j] = tables[0][s[j] & 255] ^ tables[1][(s[(j + 1) % 4] >> 8) & 255] ^
                 tables[2][(s[(j + 2) % 4] >> 16) & 255] ^ tables[3][s[(j + 3) % 4] >> 24];
        }
        s = t;
      }
      data[i] = s[0];
    }
  }
  return s[0] ^ s[1] ^ s[2] ^ s[3];
}

u64 container_mix(u64 seed) {
  constexpr int kKeys = 20000;
  Rng rng{0x5EED0F5EED0Full ^ seed};
  u64 acc = 0;
  std::unordered_map<std::string, u64> by_name;
  std::map<u64, u64> by_number;
  char name[32];
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kKeys; ++i) {
      const u64 r = rng.next();
      const int n = std::snprintf(name, sizeof name, "key-%llx",
                                  static_cast<unsigned long long>(r % (kKeys * 2)));
      const std::string key(name, static_cast<std::size_t>(n));
      if (pass == 0) {
        by_name[key] += r;
        by_number[r % (kKeys * 4)] ^= r;
      } else {
        const auto a = by_name.find(key);
        if (a != by_name.end()) acc += a->second;
        const auto b = by_number.lower_bound(r % (kKeys * 4));
        if (b != by_number.end()) acc += b->second;
      }
    }
  }
  std::vector<u8> src(16384), dst(16384);
  std::vector<u64> words(256);
  for (std::size_t i = 0; i < 120; ++i) {
    for (u8& c : src) c = static_cast<u8>(rng.next());
    std::memcpy(dst.data(), src.data(), dst.size());
    for (u64& w : words) w = rng.next();
    std::sort(words.begin(), words.end());
    acc += dst[i] + words[i];
  }
  return acc;
}

// Times one kernel. The empty asm statements hide the seed's value from the
// compiler and consume the result, and their memory clobbers keep the work
// between the two clock reads: a kernel is a pure function of its seed,
// which the compiler could otherwise move or fold.
template <class F>
double timed_s(F&& kernel) {
  u64 seed = 1;
  const u64 t0 = now_ns();
  asm volatile("" : "+r"(seed) : : "memory");
  const u64 out = kernel(seed);
  asm volatile("" : : "r"(out) : "memory");
  return static_cast<double>(now_ns() - t0) / 1e9;
}

}  // namespace

double host_slowdown() {
  const double s = std::cbrt(timed_s(arx_rounds) * timed_s(table_lookups) *
                             timed_s(container_mix));
  return s / kProbeNominalS;
}

}  // namespace perfbench
