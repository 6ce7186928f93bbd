// Fast dispatch for rabbit::Cpu (DESIGN.md §15).
//
// Instructions are predecoded into 8-byte micro-ops cached per physical 4 KiB
// page and dispatched through computed gotos (a dense switch when the
// compiler lacks the extension). The cache is keyed by *physical* address:
// every segment boundary the hardware can express is 4 KiB-aligned, so as
// long as an instruction's bytes live in one logical page its physical image
// is contiguous under any SEGSIZE/DATASEG/STACKSEG/XPC setting and the
// decoding stays valid across bank switches. Instructions that might cross a
// page boundary (start offset > 0xFFF - 4) take the legacy per-step path
// instead of complicating the cache.
//
// Correctness contract: a run_fast() span retires exactly the instruction
// stream the same span of legacy step() calls would — same architectural
// state, same cycle counts, same per-step attributions. The differences are
// purely in *when* peripherals tick: ticks are batched and flushed at every
// observable boundary (IN/OUT, fall-back to step(), and loop exit), which is
// equivalent because every peripheral tick() is an additive accumulator and
// nothing else consults device state in between (interrupts are globally
// disabled whenever this loop runs). scripts/check.sh holds the two paths to
// byte-identical bench JSON.
#include "rabbit/cpu.h"

#include <array>
#include <utility>

#include "rabbit/isa.h"

namespace rmc::rabbit {

namespace {
using common::i8;

constexpr u32 kPageMask = Memory::kPageSize - 1;

// Cycle costs per micro-op kind, read off the table. Every row a kind
// executes has the same costs (checked at compile time); `alt` is the
// taken / repeating cost of the conditional and block-move kinds.
struct KindCost {
  u8 cyc = 0;
  u8 alt = 0;
};

constexpr auto kKindCost = [] {
  std::array<KindCost, isa::kU_Count> cost{};
  std::array<bool, isa::kU_Count> seen{};
  for (const isa::Insn& in : isa::kTable) {
    if (in.uop == isa::kU_Slow) continue;  // step() charges these rows
    KindCost& k = cost[in.uop];
    if (seen[in.uop] &&
        (k.cyc != in.cyc || (k.alt != 0 && in.alt != 0 && k.alt != in.alt))) {
      throw "rows sharing a micro-op kind must share its costs";
    }
    seen[in.uop] = true;
    k.cyc = in.cyc;
    if (in.alt != 0) k.alt = in.alt;
  }
  return cost;
}();
}  // namespace

// The shared table decoder fills a micro-op straight from the row: kind and
// length from its columns, a/b from the opcode's field bits, imm from the
// operand bytes. Illegal encodings and Slow rows re-execute through step().
void Cpu::decode_uop(u32 phys, Uop& u) const {
  const auto rd = [&](unsigned i) { return mem_.read_phys(phys + i); };
  const isa::Decoded d = isa::decode(rd);
  u = Uop{};
  u.kind = isa::kU_Slow;
  if (d.insn == nullptr || d.insn->uop == isa::kU_Slow) return;
  const isa::Insn& in = *d.insn;
  u.kind = in.uop;
  u.len = in.len;
  u.a = static_cast<u8>(((d.op >> 3) & 7) | (d.iy ? 0x80 : 0));
  u.b = static_cast<u8>(d.op & 7);
  const unsigned args = in.len - d.args;  // operand bytes
  if (args >= 1) u.imm = rd(d.args);
  if (args >= 2) u.imm = common::make16(rd(d.args), rd(d.args + 1U));
  if (args >= 3) u.b = rd(d.args + 2U);
}

#if defined(__GNUC__) || defined(__clang__)
#define RMC_CGOTO 1
#endif

void Cpu::run_fast(u64 limit) {
  Registers& r = regs_;
  const u32* const pd = mem_.page_deltas();
  const StepSink* const sink = sink_;
  CpuObserver* const obs = observer_;
  // Hot counters live in registers for the duration of the loop; they are
  // synced back to the members at every exit and around every legacy step()
  // (which increments the members itself).
  u64 cyc = cycles_;
  u64 icount = instructions_;
  u64 pending_tick = 0;
  // Current decode page, cached across steps: straight-line code and loops
  // stay in one 4 KiB page for thousands of steps. Safe to hold because
  // pages are never freed, only their slots cleared (on_code_write).
  UopPage* cur_page = nullptr;
  u32 cur_base = ~0U;

  u16 pc0 = 0;
  u32 ppc = 0;
  Uop u{};

// Every handler opens with its kind's costs in scope as `cost` (static, so
// dispatch may jump past the declaration). They are compile-time constants
// read off the table, so charging them costs what a literal would.
#define UOP_COST(n)                                     \
  if ([[maybe_unused]] static constexpr KindCost cost = \
          kKindCost[isa::kU_##n];                       \
      true)
#ifdef RMC_CGOTO
#define X(n) &&L_##n,
  static const void* const kJump[] = {RMC_UOP_LIST(X)};
#undef X
#define UOP(n) L_##n: UOP_COST(n)
#else
#define UOP(n) case isa::kU_##n: UOP_COST(n)
#endif

// Fetch/decode/dispatch the instruction at r.pc. Instructions that could
// spill past their 4 KiB logical page go through the legacy fetch path:
// physical contiguity is only guaranteed in-page.
//
// Under computed goto this expands at the end of EVERY handler (token
// threading): each opcode gets its own indirect-branch site, so the
// predictor learns per-predecessor successor patterns instead of fighting
// over one shared dispatch branch. The switch fallback keeps the single
// shared site.
#define FETCH_DISPATCH_BODY                                                \
  if (cyc >= limit) goto out;                                              \
  pc0 = r.pc;                                                              \
  if ((pc0 & kPageMask) > kPageMask + 1 - kMaxUopBytes) goto slow_path;    \
  ppc = (static_cast<u32>(pc0) + pd[pc0 >> 12]) & (Memory::kPhysSize - 1); \
  {                                                                        \
    const u32 base__ = ppc & ~kPageMask;                                   \
    if (base__ != cur_base) {                                              \
      std::unique_ptr<UopPage>& page__ = uop_pages_[ppc / Memory::kPageSize]; \
      if (page__ == nullptr) page__ = std::make_unique<UopPage>();         \
      cur_page = page__.get();                                             \
      cur_base = base__;                                                   \
    }                                                                      \
    Uop& slot__ = cur_page->ops[ppc & kPageMask];                          \
    if (slot__.kind == isa::kU_Invalid) {                                  \
      decode_uop(ppc, slot__);                                             \
      mem_.watch_code_page(ppc / Memory::kPageSize);                       \
    }                                                                      \
    u = slot__; /* by value: the op's own stores may invalidate the slot */\
  }                                                                        \
  r.pc = static_cast<u16>(pc0 + u.len)

#ifdef RMC_CGOTO
#define DISPATCH_NEXT                              \
  do {                                             \
    FETCH_DISPATCH_BODY;                           \
    goto* kJump[u.kind];                           \
  } while (0)
#else
#define DISPATCH_NEXT goto top
#endif

// Per-step accounting, identical in order and content to the legacy
// step() epilogue (instructions, cycles, tick, observe); the tick is
// merely deferred into pending_tick. Ends by dispatching the next
// instruction.
#define RETIRE(c_)                                 \
  do {                                             \
    const unsigned c__ = (c_);                     \
    ++icount;                                      \
    cyc += c__;                                    \
    pending_tick += c__;                           \
    if (sink != nullptr) {                         \
      const u16 ri__ = sink->region_of[ppc];       \
      sink->cycles[ri__] += c__;                   \
      sink->steps[ri__] += 1;                      \
    } else if (obs != nullptr) {                   \
      obs->on_step(pc0, ppc, c__);                 \
    }                                              \
    DISPATCH_NEXT;                                 \
  } while (0)

#define FLUSH_TICKS()                              \
  do {                                             \
    if (pending_tick != 0) {                       \
      io_.tick(pending_tick);                      \
      pending_tick = 0;                            \
    }                                              \
  } while (0)

top:
  FETCH_DISPATCH_BODY;
#ifdef RMC_CGOTO
  goto* kJump[u.kind];
#else
  switch (u.kind) {
#endif

  UOP(Invalid)
  UOP(Slow) {
    r.pc = pc0;
    goto slow_path;
  }

  UOP(Nop) { RETIRE(cost.cyc); }

  // --- 8-bit loads --------------------------------------------------------
  UOP(LdRR) { *reg8_[u.a] = *reg8_[u.b]; RETIRE(cost.cyc); }
  UOP(LdRMhl) { *reg8_[u.a] = mem_.read(r.hl()); RETIRE(cost.cyc); }
  UOP(StMhlR) { mem_.write(r.hl(), *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(LdRN) { *reg8_[u.a] = static_cast<u8>(u.imm); RETIRE(cost.cyc); }
  UOP(StHlN) { mem_.write(r.hl(), static_cast<u8>(u.imm)); RETIRE(cost.cyc); }
  UOP(LdABc) { r.a = mem_.read(r.bc()); RETIRE(cost.cyc); }
  UOP(LdADe) { r.a = mem_.read(r.de()); RETIRE(cost.cyc); }
  UOP(StBcA) { mem_.write(r.bc(), r.a); RETIRE(cost.cyc); }
  UOP(StDeA) { mem_.write(r.de(), r.a); RETIRE(cost.cyc); }
  UOP(LdANn) { r.a = mem_.read(u.imm); RETIRE(cost.cyc); }
  UOP(StNnA) { mem_.write(u.imm, r.a); RETIRE(cost.cyc); }

  // --- 16-bit loads -------------------------------------------------------
  UOP(LdBcI) { r.set_bc(u.imm); RETIRE(cost.cyc); }
  UOP(LdDeI) { r.set_de(u.imm); RETIRE(cost.cyc); }
  UOP(LdHlI) { r.set_hl(u.imm); RETIRE(cost.cyc); }
  UOP(LdSpI) { r.sp = u.imm; RETIRE(cost.cyc); }
  UOP(StIndHl) { mem_.write16(u.imm, r.hl()); RETIRE(cost.cyc); }
  UOP(LdHlInd) { r.set_hl(mem_.read16(u.imm)); RETIRE(cost.cyc); }

  // --- 16-bit inc/dec -----------------------------------------------------
  UOP(IncBc) { r.set_bc(static_cast<u16>(r.bc() + 1)); RETIRE(cost.cyc); }
  UOP(IncDe) { r.set_de(static_cast<u16>(r.de() + 1)); RETIRE(cost.cyc); }
  UOP(IncHl) { r.set_hl(static_cast<u16>(r.hl() + 1)); RETIRE(cost.cyc); }
  UOP(IncSp) { r.sp = static_cast<u16>(r.sp + 1); RETIRE(cost.cyc); }
  UOP(DecBc) { r.set_bc(static_cast<u16>(r.bc() - 1)); RETIRE(cost.cyc); }
  UOP(DecDe) { r.set_de(static_cast<u16>(r.de() - 1)); RETIRE(cost.cyc); }
  UOP(DecHl) { r.set_hl(static_cast<u16>(r.hl() - 1)); RETIRE(cost.cyc); }
  UOP(DecSp) { r.sp = static_cast<u16>(r.sp - 1); RETIRE(cost.cyc); }

  // --- 8-bit inc/dec ------------------------------------------------------
  UOP(IncR) { *reg8_[u.a] = alu_inc8(*reg8_[u.a]); RETIRE(cost.cyc); }
  UOP(IncMhl) {
    mem_.write(r.hl(), alu_inc8(mem_.read(r.hl())));
    RETIRE(cost.cyc);
  }
  UOP(DecR) { *reg8_[u.a] = alu_dec8(*reg8_[u.a]); RETIRE(cost.cyc); }
  UOP(DecMhl) {
    mem_.write(r.hl(), alu_dec8(mem_.read(r.hl())));
    RETIRE(cost.cyc);
  }

  // --- accumulator rotates / misc flag ops --------------------------------
  UOP(Rlca) { rot_a(0); RETIRE(cost.cyc); }
  UOP(Rrca) { rot_a(1); RETIRE(cost.cyc); }
  UOP(Rla) { rot_a(2); RETIRE(cost.cyc); }
  UOP(Rra) { rot_a(3); RETIRE(cost.cyc); }
  UOP(Daa) { daa(); RETIRE(cost.cyc); }
  UOP(Cpl) {
    r.a = static_cast<u8>(~r.a);
    set_flag(Flag::H, true);
    set_flag(Flag::N, true);
    RETIRE(cost.cyc);
  }
  UOP(Scf) {
    set_flag(Flag::C, true);
    set_flag(Flag::H, false);
    set_flag(Flag::N, false);
    RETIRE(cost.cyc);
  }
  UOP(Ccf) {
    set_flag(Flag::H, flag(Flag::C));
    set_flag(Flag::C, !flag(Flag::C));
    set_flag(Flag::N, false);
    RETIRE(cost.cyc);
  }

  // --- exchanges ----------------------------------------------------------
  UOP(ExAf) {
    std::swap(r.a, r.a2);
    std::swap(r.f, r.f2);
    RETIRE(cost.cyc);
  }
  UOP(Exx) { exx(); RETIRE(cost.cyc); }
  UOP(ExDeHl) {
    const u16 tmp = r.de();
    r.set_de(r.hl());
    r.set_hl(tmp);
    RETIRE(cost.cyc);
  }
  UOP(ExSpHl) { r.set_hl(ex_sp(r.hl())); RETIRE(cost.cyc); }

  // --- 16-bit adds --------------------------------------------------------
  UOP(AddHlBc) { r.set_hl(alu_add16(r.hl(), r.bc())); RETIRE(cost.cyc); }
  UOP(AddHlDe) { r.set_hl(alu_add16(r.hl(), r.de())); RETIRE(cost.cyc); }
  UOP(AddHlHl) { r.set_hl(alu_add16(r.hl(), r.hl())); RETIRE(cost.cyc); }
  UOP(AddHlSp) { r.set_hl(alu_add16(r.hl(), r.sp)); RETIRE(cost.cyc); }

  // --- relative control flow ----------------------------------------------
  UOP(Djnz) {
    r.b = static_cast<u8>(r.b - 1);
    if (r.b != 0) {
      r.pc = static_cast<u16>(r.pc + static_cast<i8>(u.imm));
      RETIRE(cost.alt);
    }
    RETIRE(cost.cyc);
  }
  UOP(Jr) {
    r.pc = static_cast<u16>(r.pc + static_cast<i8>(u.imm));
    RETIRE(cost.cyc);
  }
  UOP(JrCc) {
    if (cond(u.a & 3)) {
      r.pc = static_cast<u16>(r.pc + static_cast<i8>(u.imm));
      RETIRE(cost.alt);
    }
    RETIRE(cost.cyc);
  }

  // --- ALU A,r / A,(HL) / A,n ---------------------------------------------
  UOP(AddR) { alu8(0, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(AdcR) { alu8(1, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(SubR) { alu8(2, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(SbcR) { alu8(3, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(AndR) { alu8(4, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(XorR) { alu8(5, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(OrR) { alu8(6, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(CpR) { alu8(7, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(AddMhl) { alu8(0, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(AdcMhl) { alu8(1, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(SubMhl) { alu8(2, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(SbcMhl) { alu8(3, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(AndMhl) { alu8(4, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(XorMhl) { alu8(5, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(OrMhl) { alu8(6, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(CpMhl) { alu8(7, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(AddN) { alu8(0, static_cast<u8>(u.imm)); RETIRE(cost.cyc); }
  UOP(AdcN) { alu8(1, static_cast<u8>(u.imm)); RETIRE(cost.cyc); }
  UOP(SubN) { alu8(2, static_cast<u8>(u.imm)); RETIRE(cost.cyc); }
  UOP(SbcN) { alu8(3, static_cast<u8>(u.imm)); RETIRE(cost.cyc); }
  UOP(AndN) { alu8(4, static_cast<u8>(u.imm)); RETIRE(cost.cyc); }
  UOP(XorN) { alu8(5, static_cast<u8>(u.imm)); RETIRE(cost.cyc); }
  UOP(OrN) { alu8(6, static_cast<u8>(u.imm)); RETIRE(cost.cyc); }
  UOP(CpN) { alu8(7, static_cast<u8>(u.imm)); RETIRE(cost.cyc); }

  // --- absolute control flow / stack --------------------------------------
  UOP(RetCc) {
    if (cond(u.a)) {
      r.pc = pop16();
      RETIRE(cost.alt);
    }
    RETIRE(cost.cyc);
  }
  UOP(Ret) { r.pc = pop16(); RETIRE(cost.cyc); }
  UOP(PopBc) { r.set_bc(pop16()); RETIRE(cost.cyc); }
  UOP(PopDe) { r.set_de(pop16()); RETIRE(cost.cyc); }
  UOP(PopHl) { r.set_hl(pop16()); RETIRE(cost.cyc); }
  UOP(PopAf) { r.set_af(pop16()); RETIRE(cost.cyc); }
  UOP(PushBc) { push16(r.bc()); RETIRE(cost.cyc); }
  UOP(PushDe) { push16(r.de()); RETIRE(cost.cyc); }
  UOP(PushHl) { push16(r.hl()); RETIRE(cost.cyc); }
  UOP(PushAf) { push16(r.af()); RETIRE(cost.cyc); }
  UOP(Jp) { r.pc = u.imm; RETIRE(cost.cyc); }
  UOP(JpCc) {
    if (cond(u.a)) {
      r.pc = u.imm;
      RETIRE(cost.alt);
    }
    RETIRE(cost.cyc);
  }
  UOP(JpHl) { r.pc = r.hl(); RETIRE(cost.cyc); }
  UOP(Call) {
    push16(r.pc);
    r.pc = u.imm;
    RETIRE(cost.cyc);
  }
  UOP(CallCc) {
    if (cond(u.a)) {
      push16(r.pc);
      r.pc = u.imm;
      RETIRE(cost.alt);
    }
    RETIRE(cost.cyc);
  }
  UOP(Rst) {
    const u16 vector = static_cast<u16>(u.a << 3);
    if (vector == 0x28) ++debug_traps_;  // the Dynamic C debug hook
    push16(r.pc);
    r.pc = vector;
    RETIRE(cost.cyc);
  }
  UOP(Mul) { mul(); RETIRE(cost.cyc); }

  // --- I/O: flush deferred ticks first so devices see the same timeline
  // the per-step path would give them -------------------------------------
  UOP(Out) {
    FLUSH_TICKS();
    io_.write(u.imm, r.a);
    RETIRE(cost.cyc);
  }
  UOP(In) {
    FLUSH_TICKS();
    r.a = io_.read(u.imm);
    RETIRE(cost.cyc);
  }
  UOP(LdSpHl) { r.sp = r.hl(); RETIRE(cost.cyc); }
  UOP(Di) {
    iff_ = false;
    RETIRE(cost.cyc);
  }

  // --- CB prefix ----------------------------------------------------------
  UOP(CbRotR) {
    *reg8_[u.b] = rot_op(u.a, *reg8_[u.b]);
    RETIRE(cost.cyc);
  }
  UOP(CbRotMhl) {
    mem_.write(r.hl(), rot_op(u.a, mem_.read(r.hl())));
    RETIRE(cost.cyc);
  }
  UOP(CbBitR) { test_bit(u.a, *reg8_[u.b]); RETIRE(cost.cyc); }
  UOP(CbBitMhl) { test_bit(u.a, mem_.read(r.hl())); RETIRE(cost.cyc); }
  UOP(CbResR) {
    *reg8_[u.b] = static_cast<u8>(*reg8_[u.b] & ~(1U << u.a));
    RETIRE(cost.cyc);
  }
  UOP(CbResMhl) {
    mem_.write(r.hl(), static_cast<u8>(mem_.read(r.hl()) & ~(1U << u.a)));
    RETIRE(cost.cyc);
  }
  UOP(CbSetR) {
    *reg8_[u.b] = static_cast<u8>(*reg8_[u.b] | (1U << u.a));
    RETIRE(cost.cyc);
  }
  UOP(CbSetMhl) {
    mem_.write(r.hl(), static_cast<u8>(mem_.read(r.hl()) | (1U << u.a)));
    RETIRE(cost.cyc);
  }

  // --- ED prefix ----------------------------------------------------------
  UOP(SbcHlRp) {
    r.set_hl(alu_sbc16(r.hl(), rp_get(u.a >> 1), flag(Flag::C)));
    RETIRE(cost.cyc);
  }
  UOP(AdcHlRp) {
    r.set_hl(alu_adc16(r.hl(), rp_get(u.a >> 1), flag(Flag::C)));
    RETIRE(cost.cyc);
  }
  UOP(EdStRp) {
    mem_.write16(u.imm, rp_get(u.a >> 1));
    RETIRE(cost.cyc);
  }
  UOP(EdLdRp) {
    rp_set(u.a >> 1, mem_.read16(u.imm));
    RETIRE(cost.cyc);
  }
  UOP(Neg) {
    const u8 a0 = r.a;
    r.a = alu_sub8(0, a0, false);
    RETIRE(cost.cyc);
  }
  UOP(LdXpcA) {
    mem_.set_xpc(r.a);
    RETIRE(cost.cyc);
  }
  UOP(LdAXpc) {
    r.a = mem_.xpc();
    RETIRE(cost.cyc);
  }
  UOP(Bool) { bool_hl(); RETIRE(cost.cyc); }
  UOP(Ljp) {
    r.pc = u.imm;
    mem_.set_xpc(u.b);
    RETIRE(cost.cyc);
  }
  UOP(Lcall) { lcall(u.imm, u.b); RETIRE(cost.cyc); }
  UOP(Lret) { lret(); RETIRE(cost.cyc); }
  UOP(BlockLd) {
    // One LDI/LDD/LDIR/LDDR iteration; a repeating form re-executes this
    // same micro-op (pc stays put), matching the legacy pc -= 2 loop.
    if (block_ld(u.a)) {
      r.pc = pc0;
      RETIRE(cost.alt);
    }
    RETIRE(cost.cyc);
  }

  // --- DD/FD (IX/IY) prefix -----------------------------------------------
  UOP(IxLdRM) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    *reg8_[u.a & 7] =
        mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm)));
    RETIRE(cost.cyc);
  }
  UOP(IxStMR) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    mem_.write(static_cast<u16>(xy + static_cast<i8>(u.imm)), *reg8_[u.b]);
    RETIRE(cost.cyc);
  }
  UOP(IxAdd) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(0, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(cost.cyc);
  }
  UOP(IxAdc) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(1, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(cost.cyc);
  }
  UOP(IxSub) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(2, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(cost.cyc);
  }
  UOP(IxSbc) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(3, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(cost.cyc);
  }
  UOP(IxAnd) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(4, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(cost.cyc);
  }
  UOP(IxXor) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(5, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(cost.cyc);
  }
  UOP(IxOr) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(6, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(cost.cyc);
  }
  UOP(IxCp) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(7, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(cost.cyc);
  }
  UOP(IxLdI) {
    ((u.a & 0x80) ? r.iy : r.ix) = u.imm;
    RETIRE(cost.cyc);
  }
  UOP(IxStInd) {
    mem_.write16(u.imm, (u.a & 0x80) ? r.iy : r.ix);
    RETIRE(cost.cyc);
  }
  UOP(IxLdInd) {
    ((u.a & 0x80) ? r.iy : r.ix) = mem_.read16(u.imm);
    RETIRE(cost.cyc);
  }
  UOP(IxInc) {
    u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    xy = static_cast<u16>(xy + 1);
    RETIRE(cost.cyc);
  }
  UOP(IxDec) {
    u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    xy = static_cast<u16>(xy - 1);
    RETIRE(cost.cyc);
  }
  UOP(IxAddRp) {
    u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    const unsigned rp = (u.a >> 1) & 3;
    const u16 operand = rp == 2 ? xy
                      : rp == 0 ? r.bc()
                      : rp == 1 ? r.de()
                                : r.sp;
    xy = alu_add16(xy, operand);
    RETIRE(cost.cyc);
  }
  UOP(IxIncM) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    const u16 addr = static_cast<u16>(xy + static_cast<i8>(u.imm));
    mem_.write(addr, alu_inc8(mem_.read(addr)));
    RETIRE(cost.cyc);
  }
  UOP(IxDecM) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    const u16 addr = static_cast<u16>(xy + static_cast<i8>(u.imm));
    mem_.write(addr, alu_dec8(mem_.read(addr)));
    RETIRE(cost.cyc);
  }
  UOP(IxStNI) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    mem_.write(static_cast<u16>(xy + static_cast<i8>(u.imm & 0xFF)),
               static_cast<u8>(u.imm >> 8));
    RETIRE(cost.cyc);
  }
  UOP(IxPop) {
    ((u.a & 0x80) ? r.iy : r.ix) = pop16();
    RETIRE(cost.cyc);
  }
  UOP(IxPush) {
    push16((u.a & 0x80) ? r.iy : r.ix);
    RETIRE(cost.cyc);
  }
  UOP(IxExSp) {
    u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    xy = ex_sp(xy);
    RETIRE(cost.cyc);
  }
  UOP(IxJp) {
    r.pc = (u.a & 0x80) ? r.iy : r.ix;
    RETIRE(cost.cyc);
  }
  UOP(IxLdSp) {
    r.sp = (u.a & 0x80) ? r.iy : r.ix;
    RETIRE(cost.cyc);
  }

#ifndef RMC_CGOTO
  }
#endif

slow_path:
  // Exact per-step execution for anything the fast path does not model
  // (page-edge fetches, EI/HALT/RETI, illegal opcodes). Ticks flush first
  // so the legacy step()'s immediate io_.tick lands in order; the counters
  // sync around step() because it increments the members directly.
  FLUSH_TICKS();
  cycles_ = cyc;
  instructions_ = icount;
  step();
  cyc = cycles_;
  icount = instructions_;
  if (halted_ || iff_ || ei_delay_ || illegal_) return;
  goto top;

out:
  cycles_ = cyc;
  instructions_ = icount;
  FLUSH_TICKS();

#undef RETIRE
#undef FLUSH_TICKS
#undef UOP
#undef UOP_COST
#undef DISPATCH_NEXT
#undef FETCH_DISPATCH_BODY
}

}  // namespace rmc::rabbit
