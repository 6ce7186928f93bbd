#include "rabbit/cpu.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "rabbit/isa.h"

namespace rmc::rabbit {

void Cpu::reset() {
  regs_ = Registers{};
  cycles_ = 0;
  instructions_ = 0;
  debug_traps_ = 0;
  halted_ = false;
  iff_ = false;
  ei_delay_ = false;
  illegal_ = false;
  illegal_message_.clear();
  // The micro-op cache is keyed by physical address and coherent with the
  // backing bytes (Memory's code watch), so it survives resets.
}

DispatchMode Cpu::default_dispatch() {
  static const DispatchMode mode = [] {
    const char* env = std::getenv("RMC_DISPATCH");
    if (env != nullptr && std::string_view(env) == "legacy") {
      return DispatchMode::kLegacy;
    }
    return DispatchMode::kFast;
  }();
  return mode;
}

void Cpu::on_code_write(u32 phys) {
  // Only decodings that *cover* the written byte can go stale: an
  // instruction is at most kMaxUopBytes long and never cached across a page
  // boundary, so clearing the handful of slots ending at `phys` suffices.
  // Anything coarser (wiping the page) turns a data write that happens to
  // share a page with code into a 32 KiB fill — pathological for hot loops.
  static_assert(kMaxUopBytes == isa::kMaxLen);
  const u32 page = phys / Memory::kPageSize;
  UopPage* p = uop_pages_[page].get();
  if (p == nullptr) return;
  const u32 off = phys & (Memory::kPageSize - 1);
  const u32 first = off >= kMaxUopBytes - 1 ? off - (kMaxUopBytes - 1) : 0;
  for (u32 i = first; i <= off; ++i) p->ops[i] = Uop{};
}

u8 Cpu::rot_op(unsigned op, u8 v) {
  u8 res = 0;
  bool carry = false;
  switch (op) {
    case 0:  // RLC
      carry = (v & 0x80) != 0;
      res = static_cast<u8>((v << 1) | (carry ? 1 : 0));
      break;
    case 1:  // RRC
      carry = (v & 0x01) != 0;
      res = static_cast<u8>((v >> 1) | (carry ? 0x80 : 0));
      break;
    case 2:  // RL
      carry = (v & 0x80) != 0;
      res = static_cast<u8>((v << 1) | (flag(Flag::C) ? 1 : 0));
      break;
    case 3:  // RR
      carry = (v & 0x01) != 0;
      res = static_cast<u8>((v >> 1) | (flag(Flag::C) ? 0x80 : 0));
      break;
    case 4:  // SLA
      carry = (v & 0x80) != 0;
      res = static_cast<u8>(v << 1);
      break;
    case 5:  // SRA
      carry = (v & 0x01) != 0;
      res = static_cast<u8>((v >> 1) | (v & 0x80));
      break;
    case 7:  // SRL
      carry = (v & 0x01) != 0;
      res = static_cast<u8>(v >> 1);
      break;
    default:  // op 6 (SLL) is not provided by the Rabbit; callers reject it.
      res = v;
      break;
  }
  alu_logic(res, /*set_h=*/false);
  set_flag(Flag::C, carry);
  return res;
}

u8 Cpu::read_r(unsigned code) {
  return code == 6 ? mem_.read(regs_.hl()) : *reg8_[code];
}

void Cpu::write_r(unsigned code, u8 v) {
  if (code == 6) {
    mem_.write(regs_.hl(), v);
  } else {
    *reg8_[code] = v;
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

unsigned Cpu::service_interrupt() {
  // iff_ first: with interrupts globally disabled no device can be taken,
  // so the (virtual, per-device) pending_irq scan is skipped entirely.
  if (!iff_) return 0;
  IoDevice* dev = io_.pending_irq();
  if (dev == nullptr) return 0;
  iff_ = false;
  halted_ = false;
  push16(regs_.pc);
  // Interrupt table: 8-byte slots starting at 0x0040; the board's crt0 is
  // expected to place a JP <isr> in the device's slot.
  regs_.pc = static_cast<u16>(0x0040 + dev->irq_vector() * 8);
  return isa::kIrqCycles;
}

unsigned Cpu::step() {
  // Observation state is captured before execution: the instruction at pc0
  // was fetched under the segment registers in force *now* (LD XPC,A inside
  // the instruction must not retroactively move its own attribution).
  const u16 pc0 = regs_.pc;
  const u32 phys0 = observer_ != nullptr ? mem_.translate(pc0) : 0;
  if (unsigned c = service_interrupt()) {
    cycles_ += c;
    io_.tick(c);
    observe(pc0, phys0, c);
    return c;
  }
  if (halted_) {
    cycles_ += isa::kHaltIdleCycles;
    io_.tick(isa::kHaltIdleCycles);
    observe(pc0, phys0, isa::kHaltIdleCycles);
    return isa::kHaltIdleCycles;
  }
  const bool enable_after = ei_delay_;
  const isa::Decoded d = isa::decode(
      [this](unsigned i) { return mem_.read(static_cast<u16>(regs_.pc + i)); });
  unsigned c;
  if (d.insn == nullptr) {
    c = illegal(d.head);
  } else {
    const u8 op = fetch8();  // the opcode, or the page's first prefix
    bool taken;
    switch (d.insn->page) {
      case isa::Main: taken = exec_main(op); break;
      case isa::CB: taken = exec_cb(); break;
      case isa::ED: taken = exec_ed(); break;
      default: taken = exec_index(d.iy ? regs_.iy : regs_.ix); break;
    }
    c = taken ? d.insn->alt : d.insn->cyc;
  }
  if (enable_after) {
    iff_ = true;
    ei_delay_ = false;
  }
  ++instructions_;
  cycles_ += c;
  io_.tick(c);
  observe(pc0, phys0, c);
  return c;
}

StopReason Cpu::run(u64 max_cycles) {
  const u64 limit = cycles_ + max_cycles;
  while (cycles_ < limit) {
    if (dispatch_ == DispatchMode::kFast && breakpoints_.empty() && !iff_ &&
        !ei_delay_ && !halted_ && !illegal_) {
      // Fast dispatch covers every span that needs no per-step precision;
      // it returns with the budget spent or a precision condition raised.
      run_fast(limit);
      if (illegal_) return StopReason::kIllegal;
      if (halted_ && !iff_) return StopReason::kHalted;
      continue;
    }
    if (!breakpoints_.empty() && bp_hit(regs_.pc)) {
      return StopReason::kBreakpoint;
    }
    step();
    if (illegal_) return StopReason::kIllegal;
    if (halted_ && !iff_) return StopReason::kHalted;
    // Halted with interrupts enabled: keep ticking devices until one fires
    // (step() advances 2 cycles per idle iteration).
  }
  return halted_ ? StopReason::kHalted : StopReason::kCycleLimit;
}

bool Cpu::bp_hit(u16 pc) const {
  return std::binary_search(breakpoints_.begin(), breakpoints_.end(), pc);
}

void Cpu::add_breakpoint(u16 addr) {
  const auto it =
      std::lower_bound(breakpoints_.begin(), breakpoints_.end(), addr);
  if (it == breakpoints_.end() || *it != addr) breakpoints_.insert(it, addr);
}

void Cpu::clear_breakpoints() { breakpoints_.clear(); }

unsigned Cpu::illegal(unsigned head) {
  illegal_ = true;
  illegal_message_ = "illegal opcode";
  char buf[16];
  for (unsigned i = 0; i < head; ++i) {
    std::snprintf(buf, sizeof buf, " %02X",
                  mem_.read(static_cast<u16>(regs_.pc + i)));
    illegal_message_ += buf;
  }
  std::snprintf(buf, sizeof buf, " at %04X", regs_.pc);
  illegal_message_ += buf;
  regs_.pc = static_cast<u16>(regs_.pc + head);
  return isa::kIllegalCycles;
}

bool Cpu::exec_main(u8 op) {
  Registers& r = regs_;
  // LD r,r' block (0x40-0x7F) minus HALT.
  if (op >= 0x40 && op <= 0x7F) {
    if (op == 0x76) {  // HALT
      halted_ = true;
      return false;
    }
    write_r((op >> 3) & 7, read_r(op & 7));
    return false;
  }
  // ALU A,r block (0x80-0xBF).
  if (op >= 0x80 && op <= 0xBF) {
    alu8((op >> 3) & 7, read_r(op & 7));
    return false;
  }

  switch (op) {
    case 0x00: break;  // NOP
    case 0x01: case 0x11: case 0x21: case 0x31:  // LD rr,nn
      rp_set(op >> 4, fetch16());
      break;

    case 0x02: mem_.write(r.bc(), r.a); break;
    case 0x12: mem_.write(r.de(), r.a); break;
    case 0x0A: r.a = mem_.read(r.bc()); break;
    case 0x1A: r.a = mem_.read(r.de()); break;

    case 0x03: case 0x13: case 0x23: case 0x33:  // INC rr
      rp_set(op >> 4, static_cast<u16>(rp_get(op >> 4) + 1));
      break;
    case 0x0B: case 0x1B: case 0x2B: case 0x3B:  // DEC rr
      rp_set(op >> 4, static_cast<u16>(rp_get(op >> 4) - 1));
      break;

    case 0x04: case 0x0C: case 0x14: case 0x1C:
    case 0x24: case 0x2C: case 0x34: case 0x3C: {
      const unsigned dst = (op >> 3) & 7;
      write_r(dst, alu_inc8(read_r(dst)));
      break;
    }
    case 0x05: case 0x0D: case 0x15: case 0x1D:
    case 0x25: case 0x2D: case 0x35: case 0x3D: {
      const unsigned dst = (op >> 3) & 7;
      write_r(dst, alu_dec8(read_r(dst)));
      break;
    }
    case 0x06: case 0x0E: case 0x16: case 0x1E:
    case 0x26: case 0x2E: case 0x36: case 0x3E:
      write_r((op >> 3) & 7, fetch8());
      break;

    case 0x07: case 0x0F: case 0x17: case 0x1F:  // RLCA RRCA RLA RRA
      rot_a(op >> 3);
      break;

    case 0x08:  // EX AF,AF'
      std::swap(r.a, r.a2);
      std::swap(r.f, r.f2);
      break;
    case 0xD9: exx(); break;

    case 0x09: case 0x19: case 0x29: case 0x39:
      r.set_hl(alu_add16(r.hl(), rp_get(op >> 4)));
      break;

    case 0x10: {  // DJNZ d
      const auto d = static_cast<common::i8>(fetch8());
      r.b = static_cast<u8>(r.b - 1);
      if (r.b == 0) return false;
      r.pc = static_cast<u16>(r.pc + d);
      return true;
    }
    case 0x18: {  // JR d
      const auto d = static_cast<common::i8>(fetch8());
      r.pc = static_cast<u16>(r.pc + d);
      break;
    }
    case 0x20: case 0x28: case 0x30: case 0x38: {  // JR cc,d
      const auto d = static_cast<common::i8>(fetch8());
      if (!cond((op >> 3) & 3)) return false;
      r.pc = static_cast<u16>(r.pc + d);
      return true;
    }

    case 0x22: mem_.write16(fetch16(), r.hl()); break;  // LD (nn),HL
    case 0x2A: r.set_hl(mem_.read16(fetch16())); break;  // LD HL,(nn)
    case 0x32: mem_.write(fetch16(), r.a); break;
    case 0x3A: r.a = mem_.read(fetch16()); break;

    case 0x27: daa(); break;
    case 0x2F:  // CPL
      r.a = static_cast<u8>(~r.a);
      set_flag(Flag::H, true);
      set_flag(Flag::N, true);
      break;
    case 0x37:  // SCF
      set_flag(Flag::C, true);
      set_flag(Flag::H, false);
      set_flag(Flag::N, false);
      break;
    case 0x3F:  // CCF
      set_flag(Flag::H, flag(Flag::C));
      set_flag(Flag::C, !flag(Flag::C));
      set_flag(Flag::N, false);
      break;

    case 0xC0: case 0xC8: case 0xD0: case 0xD8:
    case 0xE0: case 0xE8: case 0xF0: case 0xF8:  // RET cc
      if (!cond((op >> 3) & 7)) return false;
      r.pc = pop16();
      return true;
    case 0xC9: r.pc = pop16(); break;  // RET

    case 0xC1: r.set_bc(pop16()); break;
    case 0xD1: r.set_de(pop16()); break;
    case 0xE1: r.set_hl(pop16()); break;
    case 0xF1: r.set_af(pop16()); break;
    case 0xC5: push16(r.bc()); break;
    case 0xD5: push16(r.de()); break;
    case 0xE5: push16(r.hl()); break;
    case 0xF5: push16(r.af()); break;

    case 0xC3: r.pc = fetch16(); break;  // JP nn
    case 0xC2: case 0xCA: case 0xD2: case 0xDA:
    case 0xE2: case 0xEA: case 0xF2: case 0xFA: {  // JP cc,nn
      const u16 nn = fetch16();
      if (!cond((op >> 3) & 7)) return false;
      r.pc = nn;
      return true;
    }
    case 0xCD: {  // CALL nn
      const u16 nn = fetch16();
      push16(r.pc);
      r.pc = nn;
      break;
    }
    case 0xC4: case 0xCC: case 0xD4: case 0xDC:
    case 0xE4: case 0xEC: case 0xF4: case 0xFC: {  // CALL cc,nn
      const u16 nn = fetch16();
      if (!cond((op >> 3) & 7)) return false;
      push16(r.pc);
      r.pc = nn;
      return true;
    }

    case 0xC6: case 0xCE: case 0xD6: case 0xDE:
    case 0xE6: case 0xEE: case 0xF6: case 0xFE:  // ALU A,n
      alu8((op >> 3) & 7, fetch8());
      break;

    // RST vectors. RST 28h doubles as the Dynamic C debug hook: Dynamic C
    // inserts one before every C statement in debug builds; we count them so
    // benches can report debug-instrumentation overhead directly.
    case 0xC7: case 0xCF: case 0xD7: case 0xDF:
    case 0xE7: case 0xEF: case 0xFF:
      if (op == 0xEF) ++debug_traps_;
      push16(r.pc);
      r.pc = static_cast<u16>(op & 0x38);
      break;
    case 0xF7: mul(); break;

    case 0xD3: io_.write(fetch8(), r.a); break;  // OUT (n),A
    case 0xDB: r.a = io_.read(fetch8()); break;  // IN A,(n)

    case 0xE3: r.set_hl(ex_sp(r.hl())); break;
    case 0xE9: r.pc = r.hl(); break;  // JP (HL)
    case 0xEB: {                      // EX DE,HL
      const u16 tmp = r.de();
      r.set_de(r.hl());
      r.set_hl(tmp);
      break;
    }
    case 0xF9: r.sp = r.hl(); break;  // LD SP,HL

    case 0xF3: iff_ = false; break;      // DI
    case 0xFB: ei_delay_ = true; break;  // EI
    default: break;
  }
  return false;
}

bool Cpu::exec_cb() {
  const u8 op = fetch8();
  const unsigned reg = op & 7;
  const unsigned bit = (op >> 3) & 7;
  switch (op >> 6) {
    case 0:  // rotate/shift group
      write_r(reg, rot_op(bit, read_r(reg)));
      break;
    case 1: test_bit(bit, read_r(reg)); break;  // BIT b,r
    case 2:  // RES b,r
      write_r(reg, static_cast<u8>(read_r(reg) & ~(1U << bit)));
      break;
    default:  // SET b,r
      write_r(reg, static_cast<u8>(read_r(reg) | (1U << bit)));
      break;
  }
  return false;
}

bool Cpu::exec_ed() {
  Registers& r = regs_;
  const u8 op = fetch8();
  switch (op) {
    case 0x42: case 0x52: case 0x62: case 0x72:  // SBC HL,ss
      r.set_hl(alu_sbc16(r.hl(), rp_get(op >> 4), flag(Flag::C)));
      break;
    case 0x4A: case 0x5A: case 0x6A: case 0x7A:  // ADC HL,ss
      r.set_hl(alu_adc16(r.hl(), rp_get(op >> 4), flag(Flag::C)));
      break;
    case 0x43: case 0x53: case 0x63: case 0x73:  // LD (nn),ss
      mem_.write16(fetch16(), rp_get(op >> 4));
      break;
    case 0x4B: case 0x5B: case 0x6B: case 0x7B:  // LD ss,(nn)
      rp_set(op >> 4, mem_.read16(fetch16()));
      break;

    case 0x44: {  // NEG
      const u8 a = r.a;
      r.a = alu_sub8(0, a, false);
      break;
    }
    case 0x4D:  // RETI: return + restore interrupt enable (the Rabbit's
                // ipset/ipres priority pop, collapsed to one level)
      r.pc = pop16();
      iff_ = true;
      break;

    // Rabbit bank-switch register access (real Rabbit 2000 encodings).
    case 0x67: mem_.set_xpc(r.a); break;  // LD XPC,A
    case 0x77: r.a = mem_.xpc(); break;   // LD A,XPC

    case 0x90: bool_hl(); break;

    case 0xC3: {  // LJP nn,xpc
      const u16 nn = fetch16();
      const u8 xpc = fetch8();
      r.pc = nn;
      mem_.set_xpc(xpc);
      break;
    }
    case 0xCD: {  // LCALL nn,xpc
      const u16 nn = fetch16();
      lcall(nn, fetch8());
      break;
    }
    case 0xC9: lret(); break;

    case 0xA0: case 0xA8: case 0xB0: case 0xB8:  // LDI/LDD/LDIR/LDDR
      if (!block_ld(op >> 3)) return false;
      r.pc = static_cast<u16>(r.pc - 2);  // re-execute
      return true;
    default: break;
  }
  return false;
}

bool Cpu::exec_index(u16& xy) {
  Registers& r = regs_;
  const u8 op = fetch8();

  // LD r,(IX+d) / LD (IX+d),r block.
  if (op >= 0x40 && op <= 0x7F) {
    const auto d = static_cast<common::i8>(fetch8());
    const u16 addr = static_cast<u16>(xy + d);
    if ((op & 7) == 6) {
      write_r((op >> 3) & 7, mem_.read(addr));
    } else {
      mem_.write(addr, read_r(op & 7));
    }
    return false;
  }
  // ALU A,(IX+d).
  if (op >= 0x80 && op <= 0xBF) {
    const auto d = static_cast<common::i8>(fetch8());
    alu8((op >> 3) & 7, mem_.read(static_cast<u16>(xy + d)));
    return false;
  }

  switch (op) {
    case 0x21: xy = fetch16(); break;
    case 0x22: mem_.write16(fetch16(), xy); break;
    case 0x2A: xy = mem_.read16(fetch16()); break;
    case 0x23: xy = static_cast<u16>(xy + 1); break;
    case 0x2B: xy = static_cast<u16>(xy - 1); break;
    case 0x09: xy = alu_add16(xy, r.bc()); break;
    case 0x19: xy = alu_add16(xy, r.de()); break;
    case 0x29: xy = alu_add16(xy, xy); break;
    case 0x39: xy = alu_add16(xy, r.sp); break;
    case 0x34: {
      const auto d = static_cast<common::i8>(fetch8());
      const u16 addr = static_cast<u16>(xy + d);
      mem_.write(addr, alu_inc8(mem_.read(addr)));
      break;
    }
    case 0x35: {
      const auto d = static_cast<common::i8>(fetch8());
      const u16 addr = static_cast<u16>(xy + d);
      mem_.write(addr, alu_dec8(mem_.read(addr)));
      break;
    }
    case 0x36: {
      const auto d = static_cast<common::i8>(fetch8());
      const u8 n = fetch8();
      mem_.write(static_cast<u16>(xy + d), n);
      break;
    }
    case 0xE1: xy = pop16(); break;
    case 0xE5: push16(xy); break;
    case 0xE3: xy = ex_sp(xy); break;
    case 0xE9: r.pc = xy; break;
    case 0xF9: r.sp = xy; break;
    case 0xCB: exec_index_cb(xy); break;
    default: break;
  }
  return false;
}

void Cpu::exec_index_cb(u16 base) {
  const auto d = static_cast<common::i8>(fetch8());
  const u8 op = fetch8();
  const u16 addr = static_cast<u16>(base + d);
  const unsigned bit = (op >> 3) & 7;
  switch (op >> 6) {
    case 0:
      mem_.write(addr, rot_op(bit, mem_.read(addr)));
      break;
    case 1: test_bit(bit, mem_.read(addr)); break;
    case 2:
      mem_.write(addr, static_cast<u8>(mem_.read(addr) & ~(1U << bit)));
      break;
    default:
      mem_.write(addr, static_cast<u8>(mem_.read(addr) | (1U << bit)));
      break;
  }
}

std::string Cpu::state_line() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "PC=%04X SP=%04X AF=%04X BC=%04X DE=%04X HL=%04X IX=%04X "
                "IY=%04X XPC=%02X %c%c%c%c cyc=%llu",
                regs_.pc, regs_.sp, regs_.af(), regs_.bc(), regs_.de(),
                regs_.hl(), regs_.ix, regs_.iy, mem_.xpc(),
                flag(Flag::S) ? 'S' : '-', flag(Flag::Z) ? 'Z' : '-',
                flag(Flag::PV) ? 'V' : '-', flag(Flag::C) ? 'C' : '-',
                static_cast<unsigned long long>(cycles_));
  return buf;
}

}  // namespace rmc::rabbit
