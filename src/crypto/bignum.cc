#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>
#include <cstdio>

namespace rmc::crypto {

using common::ErrorCode;
using common::Result;
using common::Status;
using common::u32;
using common::u64;

BigNum::BigNum(u64 value) {
  while (value) {
    limbs_.push_back(static_cast<u32>(value));
    value >>= 32;
  }
}

void BigNum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::from_bytes(std::span<const u8> be) {
  BigNum n;
  n.limbs_.assign((be.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::size_t bit = 8 * (be.size() - 1 - i);
    n.limbs_[bit / 32] |= static_cast<u32>(be[i]) << (bit % 32);
  }
  n.trim();
  return n;
}

std::vector<u8> BigNum::to_bytes() const {
  if (is_zero()) return {0};
  std::vector<u8> out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int s = 24; s >= 0; s -= 8) {
      out.push_back(static_cast<u8>(limbs_[i] >> s));
    }
  }
  // Strip leading zeros.
  std::size_t lead = 0;
  while (lead + 1 < out.size() && out[lead] == 0) ++lead;
  out.erase(out.begin(), out.begin() + lead);
  return out;
}

Result<std::vector<u8>> BigNum::to_bytes_padded(std::size_t width) const {
  std::vector<u8> raw = to_bytes();
  if (raw.size() == 1 && raw[0] == 0) raw.clear();
  if (raw.size() > width) {
    return Status(ErrorCode::kOutOfRange, "value wider than requested pad");
  }
  std::vector<u8> out(width - raw.size(), 0);
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

Result<BigNum> BigNum::from_hex(std::string_view hex) {
  BigNum n;
  for (char c : hex) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else if (std::isspace(static_cast<unsigned char>(c))) continue;
    else return Status(ErrorCode::kInvalidArgument, "bad hex digit");
    n = (n << 4) + BigNum(static_cast<u64>(d));
  }
  return n;
}

std::string BigNum::to_hex() const {
  if (is_zero()) return "0";
  std::string out;
  char buf[16];
  std::snprintf(buf, sizeof buf, "%x", limbs_.back());
  out += buf;
  for (std::size_t i = limbs_.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof buf, "%08x", limbs_[i]);
    out += buf;
  }
  return out;
}

std::size_t BigNum::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  u32 top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigNum::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::strong_ordering BigNum::operator<=>(const BigNum& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigNum BigNum::operator+(const BigNum& other) const {
  BigNum out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u64 sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_[i] = static_cast<u32>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<u32>(carry);
  out.trim();
  return out;
}

BigNum BigNum::operator-(const BigNum& other) const {
  assert(*this >= other && "BigNum subtraction underflow");
  BigNum out;
  out.limbs_.resize(limbs_.size(), 0);
  common::i64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    common::i64 diff = static_cast<common::i64>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) diff -= other.limbs_[i];
    if (diff < 0) {
      diff += (common::i64{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<u32>(diff);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator*(const BigNum& other) const {
  if (is_zero() || other.is_zero()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      u64 cur = static_cast<u64>(limbs_[i]) * other.limbs_[j] +
                out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u32>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + other.limbs_.size()] += static_cast<u32>(carry);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 v = static_cast<u64>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<u32>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<u32>(v >> 32);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    u64 v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<u64>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<u32>(v);
  }
  out.trim();
  return out;
}

Result<BigNum::DivMod> BigNum::divmod(const BigNum& divisor) const {
  if (divisor.is_zero()) {
    return Status(ErrorCode::kInvalidArgument, "division by zero");
  }
  DivMod dm;
  if (*this < divisor) {
    dm.remainder = *this;
    return dm;
  }
  const std::vector<u32>& v = divisor.limbs_;
  const std::size_t m = limbs_.size(), n = v.size();
  dm.quotient.limbs_.assign(m - n + 1, 0);
  u32* q = dm.quotient.limbs_.data();
  if (n == 1) {
    // Short division: one 64-by-32-bit step per limb.
    u64 rem = 0;
    for (std::size_t j = m; j-- > 0;) {
      const u64 cur = (rem << 32) | limbs_[j];
      q[j] = static_cast<u32>(cur / v[0]);
      rem = cur % v[0];
    }
    dm.quotient.trim();
    dm.remainder = BigNum(rem);
    return dm;
  }
  // Knuth, TAOCP vol. 2, §4.3.1, Algorithm D (limb layout as in Hacker's
  // Delight `divmnu`). D1: shift both operands left so the divisor's top
  // limb has its high bit set; q-hat is then at most two too large.
  const int s = std::countl_zero(v.back());
  auto shl = [s](u32 hi, u32 lo) {
    return static_cast<u32>((static_cast<u64>(hi) << s) |
                            (static_cast<u64>(lo) >> (32 - s)));
  };
  std::vector<u32> vn(n), un(m + 1);
  for (std::size_t i = n; i-- > 1;) vn[i] = shl(v[i], v[i - 1]);
  vn[0] = v[0] << s;
  un[m] = shl(0, limbs_[m - 1]);
  for (std::size_t i = m; i-- > 1;) un[i] = shl(limbs_[i], limbs_[i - 1]);
  un[0] = limbs_[0] << s;

  constexpr u64 kBase = u64{1} << 32;
  const u64 vtop = vn[n - 1], vnext = vn[n - 2];
  for (std::size_t j = m - n + 1; j-- > 0;) {
    // D3: estimate q-hat from the top two limbs; the test against the
    // third limb removes every overestimate but, rarely, one.
    const u64 num = (static_cast<u64>(un[j + n]) << 32) | un[j + n - 1];
    u64 qhat = num / vtop;
    u64 rhat = num % vtop;
    while (qhat >= kBase || qhat * vnext > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vtop;
      if (rhat >= kBase) break;
    }
    // D4: multiply and subtract q-hat * divisor from the window.
    common::i64 borrow = 0;
    common::i64 t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u64 p = qhat * vn[i];
      t = static_cast<common::i64>(un[i + j]) - borrow -
          static_cast<common::i64>(p & 0xFFFFFFFFu);
      un[i + j] = static_cast<u32>(t);
      borrow = static_cast<common::i64>(p >> 32) - (t >> 32);
    }
    t = static_cast<common::i64>(un[j + n]) - borrow;
    un[j + n] = static_cast<u32>(t);
    q[j] = static_cast<u32>(qhat);
    if (t < 0) {
      // D6: q-hat was one too large; add the divisor back.
      --q[j];
      u64 carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u64 sum = static_cast<u64>(un[i + j]) + vn[i] + carry;
        un[i + j] = static_cast<u32>(sum);
        carry = sum >> 32;
      }
      un[j + n] += static_cast<u32>(carry);
    }
  }
  dm.quotient.trim();
  // D8: the remainder is the low n limbs of the window, shifted back.
  dm.remainder.limbs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    dm.remainder.limbs_[i] =
        static_cast<u32>((static_cast<u64>(un[i]) >> s) |
                         (static_cast<u64>(un[i + 1]) << (32 - s)));
  }
  dm.remainder.trim();
  return dm;
}

BigNum BigNum::mod(const BigNum& m) const {
  auto dm = divmod(m);
  assert(dm.ok());
  return std::move(dm->remainder);
}

namespace {

// -m0^-1 mod 2^32 for odd m0. Newton's iteration doubles the number of
// correct low bits per step, and m0 is its own inverse mod 8.
u32 neg_inverse_u32(u32 m0) {
  u32 inv = m0;
  for (int i = 0; i < 4; ++i) inv *= 2 - m0 * inv;
  return 0u - inv;
}

// out = a * b * 2^(-32n) mod m, for n-limb a, b < m with m odd
// (Montgomery multiplication, coarsely integrated operand scanning: Koç,
// Acar and Kaliski, "Analyzing and Comparing Montgomery Multiplication
// Algorithms", 1996). `t` is n + 2 limbs of scratch; `out` may alias a or b.
void mont_mul(const u32* a, const u32* b, const u32* m, u32 m_inv,
              std::size_t n, u32* t, u32* out) {
  std::fill(t, t + n + 2, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u64 cur = static_cast<u64>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<u32>(cur);
      carry = cur >> 32;
    }
    u64 cur = static_cast<u64>(t[n]) + carry;
    t[n] = static_cast<u32>(cur);
    t[n + 1] = static_cast<u32>(cur >> 32);
    // Add q * m, with q chosen so the low limb cancels, and shift down one
    // limb.
    const u32 q = t[0] * m_inv;
    carry = (static_cast<u64>(q) * m[0] + t[0]) >> 32;
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u64>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u32>(cur);
      carry = cur >> 32;
    }
    cur = static_cast<u64>(t[n]) + carry;
    t[n - 1] = static_cast<u32>(cur);
    t[n] = t[n + 1] + static_cast<u32>(cur >> 32);
  }
  // t < 2m, so subtracting m once brings it below m; keep t instead when
  // the subtraction borrows past t's top limb (t < m).
  u64 borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 diff = static_cast<u64>(t[i]) - m[i] - borrow;
    out[i] = static_cast<u32>(diff);
    borrow = (diff >> 32) & 1;
  }
  if (borrow > t[n]) std::copy(t, t + n, out);
}

}  // namespace

BigNum BigNum::modexp(const BigNum& exponent, const BigNum& m) const {
  assert(!m.is_zero());
  const std::size_t nbits = exponent.bit_length();
  if (!m.is_odd()) {
    // Montgomery needs an odd modulus; even ones (never an RSA or
    // Miller-Rabin modulus) square and multiply with a division per step.
    BigNum base = mod(m);
    BigNum result = BigNum(1).mod(m);
    for (std::size_t i = nbits; i-- > 0;) {
      result = (result * result).mod(m);
      if (exponent.bit(i)) result = (result * base).mod(m);
    }
    return result;
  }
  if (m == BigNum(1)) return BigNum();
  // With R = 2^(32n), entering the Montgomery domain is a multiplication
  // by R^2 mod m and leaving it is a multiplication by 1.
  const std::size_t n = m.limbs_.size();
  const BigNum r2 = (BigNum(1) << (64 * n)).mod(m);
  const BigNum base = mod(m);
  const u32 m_inv = neg_inverse_u32(m.limbs_[0]);
  std::vector<u32> buf(5 * n + 2, 0);
  u32* rr = buf.data();  // R^2 mod m
  u32* a = rr + n;       // base, then base * R mod m
  u32* x = a + n;        // accumulator, in the Montgomery domain
  u32* one = x + n;
  u32* t = one + n;  // n + 2 limbs of scratch
  std::copy(r2.limbs_.begin(), r2.limbs_.end(), rr);
  std::copy(base.limbs_.begin(), base.limbs_.end(), a);
  one[0] = 1;
  const u32* md = m.limbs_.data();
  mont_mul(a, rr, md, m_inv, n, t, a);
  mont_mul(one, rr, md, m_inv, n, t, x);  // x = R mod m, i.e. 1
  for (std::size_t i = nbits; i-- > 0;) {
    mont_mul(x, x, md, m_inv, n, t, x);
    if (exponent.bit(i)) mont_mul(x, a, md, m_inv, n, t, x);
  }
  mont_mul(x, one, md, m_inv, n, t, x);
  BigNum result;
  result.limbs_.assign(x, x + n);
  result.trim();
  return result;
}

BigNum BigNum::gcd(BigNum a, BigNum b) {
  while (!b.is_zero()) {
    BigNum r = a.mod(b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Result<BigNum> BigNum::modinverse(const BigNum& a, const BigNum& m) {
  // Extended Euclid on non-negative values, tracking signs separately.
  BigNum old_r = a.mod(m), r = m;
  BigNum old_s(1), s(0);
  bool old_s_neg = false, s_neg = false;
  while (!r.is_zero()) {
    auto dm = old_r.divmod(r);
    if (!dm.ok()) return dm.status();
    const BigNum& q = dm->quotient;
    // (old_r, r) = (r, old_r - q*r)
    BigNum new_r = dm->remainder;
    old_r = r;
    r = std::move(new_r);
    // (old_s, s) = (s, old_s - q*s) with sign tracking.
    BigNum qs = q * s;
    BigNum new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      // old_s - q*s where both share sign: may flip.
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = s;
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;
  }
  if (old_r != BigNum(1)) {
    return Status(ErrorCode::kInvalidArgument, "values not coprime");
  }
  if (old_s_neg) return m - old_s.mod(m);
  return old_s.mod(m);
}

BigNum BigNum::random_bits(std::size_t bits, common::Xorshift64& rng) {
  assert(bits > 0);
  BigNum n;
  n.limbs_.assign((bits + 31) / 32, 0);
  for (auto& l : n.limbs_) l = rng.next_u32();
  const std::size_t top_bit = (bits - 1) % 32;
  // Clear bits above the requested width; force the top bit.
  n.limbs_.back() &= (top_bit == 31) ? 0xFFFFFFFFu : ((1u << (top_bit + 1)) - 1);
  n.limbs_.back() |= (1u << top_bit);
  n.trim();
  return n;
}

BigNum BigNum::random_below(const BigNum& bound, common::Xorshift64& rng) {
  assert(!bound.is_zero());
  const std::size_t bits = bound.bit_length();
  while (true) {
    BigNum n;
    n.limbs_.assign((bits + 31) / 32, 0);
    for (auto& l : n.limbs_) l = rng.next_u32();
    const std::size_t excess = n.limbs_.size() * 32 - bits;
    if (excess && !n.limbs_.empty()) {
      n.limbs_.back() >>= excess;
    }
    n.trim();
    if (n < bound) return n;
  }
}

bool BigNum::is_probable_prime(const BigNum& n, common::Xorshift64& rng,
                               int rounds) {
  if (n < BigNum(2)) return false;
  for (u64 p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                29ull, 31ull, 37ull}) {
    const BigNum bp(p);
    if (n == bp) return true;
    if (n.mod(bp).is_zero()) return false;
  }
  // n - 1 = d * 2^r
  const BigNum n_minus_1 = n - BigNum(1);
  BigNum d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  for (int round = 0; round < rounds; ++round) {
    const BigNum a = BigNum(2) + random_below(n - BigNum(4), rng);
    BigNum x = a.modexp(d, n);
    if (x == BigNum(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = (x * x).mod(n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigNum BigNum::generate_prime(std::size_t bits, common::Xorshift64& rng) {
  while (true) {
    BigNum candidate = random_bits(bits, rng);
    if (!candidate.is_odd()) candidate = candidate + BigNum(1);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace rmc::crypto
