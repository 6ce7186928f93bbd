// board_kernels: a closed loop of rabbit::Board::call over the paper's crypto
// kernels (E1/E2). Each operation is one testbench round: a fresh key and
// plaintext block through one AES-128 build (the three builds take turns)
// plus one SHA-1 compression of a fresh message block in the C port. The
// rabbit interpreter does nearly all the host work; net, issl and host
// crypto stay idle apart from checking outputs.
#include <algorithm>
#include <cstdio>

#include "common/prng.h"
#include "crypto/aes.h"
#include "crypto/sha1.h"
#include "dcc/codegen.h"
#include "perfbench.h"
#include "rasm/assembler.h"

namespace perfbench {

using rmc::common::u16;
using rmc::common::u32;
namespace services = rmc::services;

namespace {

// FIPS-197 Appendix C.1 (AES-128).
constexpr std::array<u8, 16> kFipsKey = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05,
                                         0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                                         0x0c, 0x0d, 0x0e, 0x0f};
constexpr std::array<u8, 16> kFipsPlain = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                           0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                           0xcc, 0xdd, 0xee, 0xff};
constexpr std::array<u8, 16> kFipsCipher = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                            0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                            0x70, 0xb4, 0xc5, 0x5a};
// FIPS 180-1 Appendix A: SHA-1("abc").
constexpr std::array<u8, 20> kAbcDigest = {
    0xa9, 0x99, 0x3e, 0x36, 0x47, 0x06, 0x81, 0x6a, 0xba, 0x3e,
    0x25, 0x71, 0x78, 0x50, 0xc2, 0x6c, 0x9c, 0xd0, 0xd8, 0x9d};

/// Operations per epoch: enough for a p99 with ten samples beyond it.
constexpr int kOps = 1000;
/// Operations per host-timed slice.
constexpr int kSliceOps = 100;

bool fail(const char* what, const std::string& why) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, why.c_str());
  return false;
}

}  // namespace

std::array<u8, 64> sha1_pad_block(std::span<const u8> msg) {
  std::array<u8, 64> block{};
  std::copy(msg.begin(), msg.end(), block.begin());
  block[msg.size()] = 0x80;
  const u64 bits = msg.size() * 8;
  for (int i = 0; i < 8; ++i) block[56 + i] = static_cast<u8>(bits >> (56 - 8 * i));
  return block;
}

bool BoardKernels::build() {
  for (int k = kAesC; k <= kAesAsm; ++k) {
    const auto impl = k == kAesAsm ? services::AesImpl::kHandAssembly
                                   : services::AesImpl::kCompiledC;
    const auto opts = k == kAesCOpt ? rmc::dcc::CodegenOptions::all_optimizations()
                                    : rmc::dcc::CodegenOptions::debug_defaults();
    auto aes = services::AesOnBoard::create_from_repo(impl, repo_file(""), opts);
    if (!aes.ok()) return fail(kNames[k], aes.status().to_string());
    aes_[k].emplace(std::move(*aes));
    std::array<u8, 16> out{};
    set_key(static_cast<Kernel>(k), kFipsKey);
    encrypt(static_cast<Kernel>(k), kFipsPlain, out);
    if (out != kFipsCipher) return fail(kNames[k], "FIPS-197 C.1 mismatch");
  }

  auto src = services::read_text_file(repo_file("dc/sha1.dc"));
  if (!src.ok()) return fail("sha1_c", src.status().to_string());
  auto compiled = rmc::dcc::compile(*src, rmc::dcc::CodegenOptions::debug_defaults());
  if (!compiled.ok()) return fail("sha1_c", compiled.status().to_string());
  const auto& image = compiled->image;
  if (!image.find_symbol("g_sha1_msg", sha_msg_) ||
      !image.find_symbol("g_h_hi", sha_hi_) || !image.find_symbol("g_h_lo", sha_lo_)) {
    return fail("sha1_c", "missing digest symbols");
  }
  sha_board_.load(image);
  const std::string abc = "abc";
  const auto block = sha1_pad_block(
      std::span<const u8>(reinterpret_cast<const u8*>(abc.data()), abc.size()));
  std::array<u8, 20> digest{};
  sha1(block, digest);
  if (digest != kAbcDigest) return fail("sha1_c", "FIPS 180-1 \"abc\" mismatch");
  return true;
}

BoardKernels::Call BoardKernels::set_key(Kernel k, std::span<const u8, 16> key) {
  const u64 i0 = aes_[k]->board().cpu().instructions_retired();
  auto cycles = aes_[k]->set_key(key);
  return {cycles.ok() ? *cycles : 0, aes_[k]->board().cpu().instructions_retired() - i0};
}

BoardKernels::Call BoardKernels::encrypt(Kernel k, std::span<const u8, 16> in,
                                         std::span<u8, 16> out) {
  const u64 i0 = aes_[k]->board().cpu().instructions_retired();
  auto cycles = aes_[k]->encrypt(in, out);
  return {cycles.ok() ? *cycles : 0, aes_[k]->board().cpu().instructions_retired() - i0};
}

BoardKernels::Call BoardKernels::sha1(std::span<const u8, 64> block,
                                      std::span<u8, 20> digest, Call* block_only) {
  Call total;
  auto init = sha_board_.call("f_sha1_init", 100'000'000);
  for (std::size_t i = 0; i < 64; ++i) {
    sha_board_.mem().write(static_cast<u16>(sha_msg_ + i), block[i]);
  }
  auto compress = sha_board_.call("f_sha1_block", 500'000'000);
  if (!init.ok() || !compress.ok()) {
    std::fill(digest.begin(), digest.end(), 0);
    return total;
  }
  total = {init->cycles + compress->cycles, init->instructions + compress->instructions};
  if (block_only != nullptr) *block_only = {compress->cycles, compress->instructions};
  for (int w = 0; w < 5; ++w) {
    const u16 hi = sha_board_.mem().read16(static_cast<u16>(sha_hi_ + 2 * w));
    const u16 lo = sha_board_.mem().read16(static_cast<u16>(sha_lo_ + 2 * w));
    digest[4 * w + 0] = static_cast<u8>(hi >> 8);
    digest[4 * w + 1] = static_cast<u8>(hi & 0xFF);
    digest[4 * w + 2] = static_cast<u8>(lo >> 8);
    digest[4 * w + 3] = static_cast<u8>(lo & 0xFF);
  }
  return total;
}

namespace {

class BoardKernelsWorkload : public Workload {
 public:
  bool setup(u64 seed) override {
    if (!kernels_.build()) return false;
    rmc::common::Xorshift64 rng(seed);
    ops_.resize(kOps);
    for (Op& op : ops_) {
      rng.fill(op.key);
      rng.fill(op.plain);
      std::vector<u8> msg(rng.next_below(56));
      rng.fill(msg);
      op.block = sha1_pad_block(msg);
      auto host = rmc::crypto::Aes::create(op.key);
      if (!host.ok()) return false;
      host->encrypt_block(op.plain, op.cipher);
      op.digest = rmc::crypto::Sha1::digest(msg);
    }
    return true;
  }

  Epoch run(Tracer* tracer) override {
    Epoch e;
    std::array<u64, BoardKernels::kKernels> cycles{}, calls{};
    u64 slice_start = now_ns();
    for (int i = 0; i < kOps; ++i) {
      if (i > 0 && i % kSliceOps == 0) {
        e.slice_host_s.push_back(static_cast<double>(now_ns() - slice_start) / 1e9);
        slice_start = now_ns();
      }
      const Op& op = ops_[i];
      const auto k = static_cast<BoardKernels::Kernel>(i % BoardKernels::kSha1C);
      std::array<u8, 16> cipher{};
      std::array<u8, 20> digest{};
      BoardKernels::Call key, enc, hash, block;
      {
        Tracer::Scope span(tracer, Layer::kRabbit);
        key = kernels_.set_key(k, op.key);
        enc = kernels_.encrypt(k, op.plain, cipher);
        hash = kernels_.sha1(op.block, digest, &block);
      }
      const u64 op_cycles = key.cycles + enc.cycles + hash.cycles;
      ++e.ops;
      if (cipher != op.cipher || digest != op.digest || enc.cycles == 0 ||
          block.cycles == 0) {
        ++e.failed;
        continue;
      }
      e.sim_cycles += op_cycles;
      e.useful_bytes += op.plain.size() + op.block.size();
      e.latency_ms.push_back(op_cycles / (kBoardHz / 1e3));
      cycles[k] += enc.cycles;
      ++calls[k];
      cycles[BoardKernels::kSha1C] += block.cycles;
      ++calls[BoardKernels::kSha1C];
    }
    e.slice_host_s.push_back(static_cast<double>(now_ns() - slice_start) / 1e9);
    for (int k = 0; k < BoardKernels::kKernels; ++k) {
      if (calls[k] == 0) continue;
      e.counts[cycles_per_block_metric(static_cast<BoardKernels::Kernel>(k))] =
          static_cast<double>(cycles[k]) / static_cast<double>(calls[k]);
    }
    return e;
  }

  void layer_metrics(std::map<std::string, double>& out) override {
    board_layer_metrics(kernels_, ops_.front().key, ops_.front().plain,
                        ops_.front().block, out);
  }

 private:
  struct Op {
    std::array<u8, 16> key{}, plain{}, cipher{};
    std::array<u8, 64> block{};
    std::array<u8, 20> digest{};
  };

  BoardKernels kernels_;
  std::vector<Op> ops_;
};

}  // namespace

std::string cycles_per_block_metric(BoardKernels::Kernel k) {
  // E2's optimized column is a dcc property; the other three are E1's.
  if (k == BoardKernels::kAesCOpt) return "dcc.aes_c_opt_cycles_per_block";
  return std::string("board_") + BoardKernels::kNames[k] + "_cycles_per_block";
}

void board_layer_metrics(BoardKernels& kernels, std::span<const u8, 16> key,
                         std::span<const u8, 16> plain,
                         std::span<const u8, 64> block,
                         std::map<std::string, double>& out) {
  // Host ns per simulated instruction, per image: time a batch of encrypt
  // (or compression) calls and divide by the instructions one retires.
  for (int k = 0; k < BoardKernels::kKernels; ++k) {
    const auto kernel = static_cast<BoardKernels::Kernel>(k);
    std::array<u8, 16> cipher{};
    std::array<u8, 20> digest{};
    BoardKernels::Call call;
    double ns = 0;
    if (kernel == BoardKernels::kSha1C) {
      ns = time_ns_per_call([&] { call = kernels.sha1(block, digest); }, 3);
    } else {
      kernels.set_key(kernel, key);
      ns = time_ns_per_call([&] { call = kernels.encrypt(kernel, plain, cipher); },
                            kernel == BoardKernels::kAesAsm ? 40 : 3);
    }
    const std::string name = BoardKernels::kNames[k];
    out["rabbit.instr_per_call." + name] = static_cast<double>(call.instructions);
    out["rabbit.host_ns_per_instr." + name] =
        call.instructions > 0 ? ns / static_cast<double>(call.instructions) : 0;
  }

  // Builds (E3): time the tools on the sources the images came from.
  auto asm_src = services::read_text_file(repo_file("asm/aes_hand.asm"));
  auto dc_src = services::read_text_file(repo_file("dc/aes.dc"));
  if (asm_src.ok() && dc_src.ok()) {
    out["rasm.assemble_ms"] =
        time_ns_per_call([&] { (void)rmc::rasm::assemble(*asm_src); }, 1) / 1e6;
    out["dcc.compile_ms"] =
        time_ns_per_call([&] { (void)rmc::dcc::compile(*dc_src); }, 1) / 1e6;
  }
  out["dcc.image_bytes.aes_c"] = static_cast<double>(kernels.image_bytes(BoardKernels::kAesC));
  out["dcc.image_bytes.aes_asm"] =
      static_cast<double>(kernels.image_bytes(BoardKernels::kAesAsm));
}

std::unique_ptr<Workload> make_board_kernels() {
  return std::make_unique<BoardKernelsWorkload>();
}

}  // namespace perfbench
