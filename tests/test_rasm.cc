// Tests for the assembler and disassembler: encoding correctness (checked
// byte-for-byte and by executing on the board), expressions, directives,
// error reporting, assemble->disassemble round trips, and sweeps over every
// row of the instruction table (rabbit/isa.h) through both interpreters.
#include <gtest/gtest.h>

#include <functional>
#include <string_view>

#include "rabbit/board.h"
#include "rabbit/isa.h"
#include "rasm/assembler.h"
#include "rasm/disasm.h"

namespace rmc::rasm {
namespace {

using common::u16;
using common::u32;
using common::u64;
using common::u8;
using rabbit::Board;
using rabbit::StopReason;

std::vector<u8> bytes_of(const std::string& src) {
  auto out = assemble(src);
  EXPECT_TRUE(out.ok()) << out.status().to_string();
  if (!out.ok()) return {};
  EXPECT_EQ(out->image.chunks.size(), 1u);
  return out->image.chunks[0].bytes;
}

// Assemble, load, call `main`, return HL.
u16 run_main(const std::string& src) {
  auto out = assemble(src);
  EXPECT_TRUE(out.ok()) << out.status().to_string();
  if (!out.ok()) return 0xDEAD;
  Board board;
  board.load(out->image);
  auto res = board.call("main");
  EXPECT_TRUE(res.ok()) << res.status().to_string();
  if (!res.ok()) return 0xDEAD;
  EXPECT_EQ(res->stop, StopReason::kHalted);
  return res->hl;
}

// ---------------------------------------------------------------------------
// Encodings
// ---------------------------------------------------------------------------

TEST(Asm, BasicLoadEncodings) {
  EXPECT_EQ(bytes_of("ld a, 12h"), (std::vector<u8>{0x3E, 0x12}));
  EXPECT_EQ(bytes_of("ld b, c"), (std::vector<u8>{0x41}));
  EXPECT_EQ(bytes_of("ld a, (hl)"), (std::vector<u8>{0x7E}));
  EXPECT_EQ(bytes_of("ld (hl), 7"), (std::vector<u8>{0x36, 0x07}));
  EXPECT_EQ(bytes_of("ld hl, 1234h"), (std::vector<u8>{0x21, 0x34, 0x12}));
  EXPECT_EQ(bytes_of("ld a, (0e000h)"), (std::vector<u8>{0x3A, 0x00, 0xE0}));
  EXPECT_EQ(bytes_of("ld (4000h), hl"), (std::vector<u8>{0x22, 0x00, 0x40}));
  EXPECT_EQ(bytes_of("ld sp, hl"), (std::vector<u8>{0xF9}));
}

TEST(Asm, IndexedEncodings) {
  EXPECT_EQ(bytes_of("ld ix, 8000h"),
            (std::vector<u8>{0xDD, 0x21, 0x00, 0x80}));
  EXPECT_EQ(bytes_of("ld a, (ix+3)"), (std::vector<u8>{0xDD, 0x7E, 0x03}));
  EXPECT_EQ(bytes_of("ld (iy-2), b"), (std::vector<u8>{0xFD, 0x70, 0xFE}));
  EXPECT_EQ(bytes_of("inc (ix+0)"), (std::vector<u8>{0xDD, 0x34, 0x00}));
}

TEST(Asm, AluEncodings) {
  EXPECT_EQ(bytes_of("add a, b"), (std::vector<u8>{0x80}));
  EXPECT_EQ(bytes_of("adc a, 5"), (std::vector<u8>{0xCE, 0x05}));
  EXPECT_EQ(bytes_of("sub (hl)"), (std::vector<u8>{0x96}));
  EXPECT_EQ(bytes_of("xor a"), (std::vector<u8>{0xAF}));
  EXPECT_EQ(bytes_of("cp 0ffh"), (std::vector<u8>{0xFE, 0xFF}));
  EXPECT_EQ(bytes_of("add hl, de"), (std::vector<u8>{0x19}));
  EXPECT_EQ(bytes_of("sbc hl, bc"), (std::vector<u8>{0xED, 0x42}));
  EXPECT_EQ(bytes_of("add ix, bc"), (std::vector<u8>{0xDD, 0x09}));
}

TEST(Asm, RotateAndBitEncodings) {
  EXPECT_EQ(bytes_of("rlc b"), (std::vector<u8>{0xCB, 0x00}));
  EXPECT_EQ(bytes_of("srl a"), (std::vector<u8>{0xCB, 0x3F}));
  EXPECT_EQ(bytes_of("bit 7, (hl)"), (std::vector<u8>{0xCB, 0x7E}));
  EXPECT_EQ(bytes_of("set 0, c"), (std::vector<u8>{0xCB, 0xC1}));
  EXPECT_EQ(bytes_of("res 3, (ix+1)"),
            (std::vector<u8>{0xDD, 0xCB, 0x01, 0x9E}));
}

TEST(Asm, RabbitSpecificEncodings) {
  EXPECT_EQ(bytes_of("mul"), (std::vector<u8>{0xF7}));
  EXPECT_EQ(bytes_of("bool hl"), (std::vector<u8>{0xED, 0x90}));
  EXPECT_EQ(bytes_of("ld xpc, a"), (std::vector<u8>{0xED, 0x67}));
  EXPECT_EQ(bytes_of("ld a, xpc"), (std::vector<u8>{0xED, 0x77}));
  EXPECT_EQ(bytes_of("lret"), (std::vector<u8>{0xED, 0xC9}));
  EXPECT_EQ(bytes_of("lcall 0e100h, 12h"),
            (std::vector<u8>{0xED, 0xCD, 0x00, 0xE1, 0x12}));
}

TEST(Asm, ControlFlowEncodings) {
  EXPECT_EQ(bytes_of("jp 0200h"), (std::vector<u8>{0xC3, 0x00, 0x02}));
  EXPECT_EQ(bytes_of("jp nz, 0200h"), (std::vector<u8>{0xC2, 0x00, 0x02}));
  EXPECT_EQ(bytes_of("call 0300h"), (std::vector<u8>{0xCD, 0x00, 0x03}));
  EXPECT_EQ(bytes_of("ret z"), (std::vector<u8>{0xC8}));
  EXPECT_EQ(bytes_of("jp (hl)"), (std::vector<u8>{0xE9}));
  EXPECT_EQ(bytes_of("rst 28h"), (std::vector<u8>{0xEF}));
}

TEST(Asm, JrComputesDisplacement) {
  // org 0x0100: jr 0x0104 -> displacement +2.
  const auto b = bytes_of("jr 0104h\nnop\nnop");
  ASSERT_GE(b.size(), 2u);
  EXPECT_EQ(b[0], 0x18);
  EXPECT_EQ(b[1], 0x02);
}

TEST(Asm, JrBackwardLoop) {
  const auto b = bytes_of("loop: nop\n jr loop");
  EXPECT_EQ(b, (std::vector<u8>{0x00, 0x18, 0xFD}));
}

TEST(Asm, JrOutOfRangeRejected) {
  std::string src = "jr far\n";
  src += "ds 200\n";
  src += "far: nop\n";
  auto out = assemble(src);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("out of range"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Directives / expressions / symbols
// ---------------------------------------------------------------------------

TEST(Asm, DbDwDsEmitData) {
  const auto b = bytes_of("db 1, 2, \"hi\", 0\ndw 1234h\nds 3");
  EXPECT_EQ(b, (std::vector<u8>{1, 2, 'h', 'i', 0, 0x34, 0x12, 0, 0, 0}));
}

TEST(Asm, EquAndExpressions) {
  const auto b = bytes_of(
      "base equ 40h\n"
      "ld a, base+2\n"
      "ld b, (base<<2)|1\n"
      "ld c, ~0 & 0ffh\n");
  EXPECT_EQ(b, (std::vector<u8>{0x3E, 0x42, 0x06, 0x01, 0x0E, 0xFF}));
}

TEST(Asm, CharLiteralsAndBinary) {
  const auto b = bytes_of("ld a, 'A'\nld b, %1010\n");
  EXPECT_EQ(b, (std::vector<u8>{0x3E, 0x41, 0x06, 0x0A}));
}

TEST(Asm, ForwardReferencesResolve) {
  const u16 hl = run_main(
      "main: ld hl, (value)\n"
      "      ret\n"
      "value: dw 777\n");
  EXPECT_EQ(hl, 777);
}

TEST(Asm, CurrentAddressDollar) {
  const auto b = bytes_of("dw $\n");  // default org 0x0100
  EXPECT_EQ(b, (std::vector<u8>{0x00, 0x01}));
}

TEST(Asm, DuplicateLabelRejected) {
  auto out = assemble("x: nop\nx: nop\n");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("duplicate"), std::string::npos);
}

TEST(Asm, UnknownMnemonicRejectedWithLineNumber) {
  auto out = assemble("nop\nfrobnicate a, b\n");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("line 2"), std::string::npos);
}

TEST(Asm, OrgPlacesChunksAtBoardPhysical) {
  auto out = assemble("org 6000h\ndb 1\n");
  ASSERT_TRUE(out.ok());
  // Data segment logical 0x6000 -> physical 0x80000 on the board map.
  EXPECT_EQ(out->image.chunks[0].phys_addr, 0x80000u);
}

TEST(Asm, XorgPlacesPhysicalAndHelpersWork) {
  auto out = assemble(
      "xorg 20100h\n"
      "table: db 0aah\n"
      "org 0100h\n"
      "main: ld a, xpcof(table)\n"
      "      ld xpc, a\n"
      "      ld hl, winof(table)\n"
      "      ld a, (hl)\n"
      "      ld l, a\n"
      "      ld h, 0\n"
      "      ret\n");
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  Board board;
  board.load(out->image);
  auto res = board.call("main");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->hl, 0xAA);
}

TEST(Asm, ListingContainsAddressesAndBytes) {
  AssembleOptions opts;
  opts.want_listing = true;
  auto out = assemble("main: ld a, 1\n ret\n", opts);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->listing.find("00100"), std::string::npos);
  EXPECT_NE(out->listing.find("3E 01"), std::string::npos);
}

TEST(Asm, BoardLogicalToPhysMap) {
  EXPECT_EQ(*board_logical_to_phys(0x0100), 0x0100u);
  EXPECT_EQ(*board_logical_to_phys(0x6000), 0x80000u);
  EXPECT_EQ(*board_logical_to_phys(0xD000), 0x8E000u);
  EXPECT_FALSE(board_logical_to_phys(0xE000).ok());
}

// ---------------------------------------------------------------------------
// Execution smoke tests (assembled programs on the board)
// ---------------------------------------------------------------------------

TEST(Asm, SumLoopProgram) {
  // Sum 1..10 into HL.
  const u16 hl = run_main(
      "main:\n"
      "    ld hl, 0\n"
      "    ld b, 10\n"
      "    ld de, 0\n"
      "loop:\n"
      "    ld e, b\n"
      "    add hl, de\n"
      "    djnz loop\n"
      "    ret\n");
  EXPECT_EQ(hl, 55);
}

TEST(Asm, MulProgram) {
  const u16 hl = run_main(
      "main:\n"
      "    ld bc, 123\n"
      "    ld de, 45\n"
      "    mul\n"
      "    ld h, b\n"
      "    ld l, c\n"
      "    ret\n");
  EXPECT_EQ(hl, 123 * 45);
}

TEST(Asm, DataSegmentReadWrite) {
  const u16 hl = run_main(
      "org 6000h\n"
      "counter: dw 0\n"
      "org 0100h\n"
      "main:\n"
      "    ld hl, (counter)\n"
      "    inc hl\n"
      "    inc hl\n"
      "    ld (counter), hl\n"
      "    ld hl, (counter)\n"
      "    ret\n");
  EXPECT_EQ(hl, 2);
}

TEST(Asm, CallingConventionNestedCalls) {
  const u16 hl = run_main(
      "main:\n"
      "    ld hl, 5\n"
      "    call double\n"
      "    call double\n"
      "    ret\n"
      "double:\n"
      "    add hl, hl\n"
      "    ret\n");
  EXPECT_EQ(hl, 20);
}

// ---------------------------------------------------------------------------
// Disassembler round trips
// ---------------------------------------------------------------------------

TEST(Disasm, SingleInstructionText) {
  const std::vector<u8> code = {0x3E, 0x42};
  auto one = disassemble_one(code, 0, 0x0100);
  EXPECT_TRUE(one.valid);
  EXPECT_EQ(one.length, 2u);
  EXPECT_EQ(one.text, "ld a, 042h");
}

TEST(Disasm, RelativeTargetsUseAbsoluteAddresses) {
  const std::vector<u8> code = {0x18, 0xFE};  // jr $
  auto one = disassemble_one(code, 0, 0x0200);
  EXPECT_EQ(one.text, "jr 00200h");
}

TEST(Disasm, InvalidByteFallsBackToDb) {
  const std::vector<u8> code = {0xED, 0x01};
  auto one = disassemble_one(code, 0, 0);
  EXPECT_FALSE(one.valid);
  EXPECT_EQ(one.length, 1u);
}

// Source spellings: assemble hand-written forms (optional accumulator,
// hex and expression operands), disassemble, reassemble, and require
// identical bytes. The table sweeps below cover every encoding; these pin
// the assembler's reading of what people write.
class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, AssembleDisassembleAssemble) {
  const std::string src = GetParam();
  auto first = assemble(src);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const auto& bytes = first->image.chunks[0].bytes;
  auto dis = disassemble_one(bytes, 0, 0x0100);
  ASSERT_TRUE(dis.valid) << src;
  EXPECT_EQ(dis.length, bytes.size()) << src << " -> " << dis.text;
  auto second = assemble(dis.text);
  ASSERT_TRUE(second.ok()) << dis.text << ": " << second.status().to_string();
  EXPECT_EQ(second->image.chunks[0].bytes, bytes) << src << " -> " << dis.text;
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, RoundTrip,
    ::testing::Values(
        "nop", "halt", "di", "ei", "exx", "daa", "cpl", "scf", "ccf", "neg",
        "ldir", "lddr", "ldi", "ldd", "mul", "bool hl", "lret", "reti",
        "ld a, 5", "ld b, c", "ld d, (hl)", "ld (hl), e", "ld (hl), 9",
        "ld a, (bc)", "ld a, (de)", "ld (bc), a", "ld (de), a",
        "ld a, (1234h)", "ld (1234h), a", "ld bc, 5678h", "ld de, 1h",
        "ld hl, 0ffffh", "ld sp, 200h", "ld hl, (30h)", "ld (30h), hl",
        "ld bc, (40h)", "ld (40h), de", "ld sp, hl", "ld ix, 7000h",
        "ld a, (ix+5)", "ld (iy-3), c", "ld (ix+2), 7h", "ld xpc, a",
        "ld a, xpc", "push bc", "pop af", "push ix", "pop iy",
        "ex de, hl", "ex af, af'", "ex (sp), hl", "ex (sp), ix",
        "add a, b", "adc a, 1", "sub (hl)", "sbc a, c", "and 0fh", "xor a",
        "or (ix+1)", "cp 30h", "add hl, sp", "adc hl, de", "sbc hl, bc",
        "add ix, de", "inc a", "dec (hl)", "inc de", "dec iy", "inc (ix+4)",
        "rlca", "rrca", "rla", "rra", "rlc c", "rrc (hl)", "rl a", "rr b",
        "sla d", "sra e", "srl h", "bit 0, a", "bit 7, (hl)", "set 3, b",
        "res 5, (ix+2)", "jp 4000h", "jp nz, 4000h", "jp (hl)", "jp (ix)",
        "call 300h", "call pe, 300h", "ret", "ret nc", "rst 18h",
        "in a, (0c0h)", "out (0c0h), a", "lcall 0e000h, 2h",
        "ljp 0e100h, 3h"));

// ---------------------------------------------------------------------------
// Whole-table sweeps (rabbit/isa.h)
// ---------------------------------------------------------------------------

namespace isa = rabbit::isa;

struct Encoding {
  const isa::Insn* insn;
  std::vector<u8> bytes;
};

// Every encoding of every row, IX and IY alike, with fixed operand bytes:
// 85h first (a negative displacement / relative offset), then 3Ch, 07h.
std::vector<Encoding> all_encodings() {
  std::vector<Encoding> out;
  for (const isa::Insn& in : isa::kTable) {
    isa::for_each_opcode(in, [&](u8 op) {
      for (u8 xy : {isa::kPrefixIX, isa::kPrefixIY}) {
        std::vector<u8> b;
        switch (in.page) {
          case isa::Main: b = {op}; break;
          case isa::CB: b = {isa::kPrefixCB, op}; break;
          case isa::ED: b = {isa::kPrefixED, op}; break;
          case isa::XY: b = {xy, op}; break;
          default: b = {xy, isa::kPrefixCB, 0x85, op}; break;
        }
        for (u8 arg : {0x85, 0x3C, 0x07}) {
          if (b.size() < in.len) b.push_back(arg);
        }
        out.push_back({&in, b});
        if (in.page != isa::XY && in.page != isa::XYCB) break;
      }
    });
  }
  return out;
}

struct SweepMachine {
  rabbit::Memory mem;
  rabbit::IoBus io;
  rabbit::Cpu cpu{mem, io};

  SweepMachine(rabbit::DispatchMode mode, const std::vector<u8>& code) {
    mem.set_flash_writable(true);
    cpu.set_dispatch(mode);
    cpu.regs().sp = 0xDFF0;
    cpu.regs().pc = 0x0100;
    u32 at = 0x0100;
    for (u8 b : code) mem.write_phys(at++, b);
  }
  std::size_t memory_hash() const {
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(mem.raw_phys()),
        rabbit::Memory::kPhysSize));
  }
};

// Disassemble every encoding and reassemble the text: the same bytes come
// back, except for the two decode-only aliases, which select the
// unprefixed row (ED 63 costs what 22 costs; ED 6B costs 13 cycles to
// 2A's 11, and no source spelling reaches it).
TEST(IsaSweep, EveryEncodingRoundTrips) {
  const std::vector<Encoding> all = all_encodings();
  EXPECT_EQ(all.size(), 668u);
  for (const Encoding& e : all) {
    const isa::Decoded d = isa::decode([&](unsigned i) { return e.bytes[i]; });
    ASSERT_EQ(d.insn, e.insn) << e.insn->text;
    const DisasmResult dis = disassemble_one(e.bytes, 0, 0x0100);
    ASSERT_TRUE(dis.valid) << e.insn->text;
    ASSERT_EQ(dis.length, e.bytes.size()) << dis.text;
    auto again = assemble(dis.text);
    ASSERT_TRUE(again.ok()) << dis.text << ": " << again.status().to_string();
    std::vector<u8> want = e.bytes;
    if (want[0] == isa::kPrefixED && (want[1] == 0x63 || want[1] == 0x6B)) {
      want = {static_cast<u8>(want[1] == 0x63 ? 0x22 : 0x2A), want[2],
              want[3]};
    }
    EXPECT_EQ(again->image.chunks[0].bytes, want) << dis.text;
  }
}

// Both interpreters execute every encoding from the same state to the same
// state, charging one of the row's two costs. The two flag states make
// every condition true in one and false in the other.
TEST(IsaSweep, InterpretersAgreeOnEveryEncoding) {
  for (const Encoding& e : all_encodings()) {
    for (const u8 flags : {0x41, 0x84}) {  // Z|C, S|P/V
      SweepMachine fast(rabbit::DispatchMode::kFast, e.bytes);
      SweepMachine legacy(rabbit::DispatchMode::kLegacy, e.bytes);
      for (SweepMachine* m : {&fast, &legacy}) {
        m->cpu.regs().f = flags;
        m->cpu.regs().set_bc(0x0102);
        m->cpu.regs().ix = 0x6100;
        m->cpu.regs().iy = 0x6200;
        EXPECT_NE(m->cpu.run(1), rabbit::StopReason::kIllegal) << e.insn->text;
      }
      const u64 cyc = fast.cpu.cycles();
      EXPECT_TRUE(cyc == e.insn->cyc || cyc == e.insn->alt) << e.insn->text;
      EXPECT_EQ(cyc, legacy.cpu.cycles()) << e.insn->text;
      EXPECT_EQ(fast.cpu.state_line(), legacy.cpu.state_line())
          << e.insn->text;
      EXPECT_EQ(fast.memory_hash(), legacy.memory_hash()) << e.insn->text;
    }
  }
}

// Everything outside the table is illegal for both interpreters and
// undecodable for the disassembler.
TEST(IsaSweep, EverythingElseIsIllegal) {
  const auto is_index = [](u8 b) {
    return b == isa::kPrefixIX || b == isa::kPrefixIY;
  };
  std::vector<std::vector<u8>> outside;
  std::size_t sequences = 0;
  for (unsigned op = 0; op < 256; ++op) {
    const u8 o = static_cast<u8>(op);
    for (std::vector<u8> b : {std::vector<u8>{o}, {isa::kPrefixCB, o},
                              {isa::kPrefixED, o}, {isa::kPrefixIX, o},
                              {isa::kPrefixIY, o},
                              {isa::kPrefixIX, isa::kPrefixCB, 0x85, o},
                              {isa::kPrefixIY, isa::kPrefixCB, 0x85, o}}) {
      // A prefix byte where an opcode belongs starts another page.
      if ((b.size() == 1 && (is_index(o) || o == isa::kPrefixCB ||
                             o == isa::kPrefixED)) ||
          (b.size() == 2 && is_index(b[0]) && o == isa::kPrefixCB)) {
        continue;
      }
      ++sequences;
      b.resize(6, 0);
      if (isa::decode([&](unsigned i) { return b[i]; }).insn == nullptr) {
        outside.push_back(b);
      }
    }
  }
  EXPECT_EQ(sequences, 252u + 256 + 256 + 255 + 255 + 256 + 256);
  EXPECT_EQ(outside.size(), sequences - 668);
  for (const std::vector<u8>& b : outside) {
    EXPECT_FALSE(disassemble_one(b, 0, 0x0100).valid);
    for (auto mode : {rabbit::DispatchMode::kFast,
                      rabbit::DispatchMode::kLegacy}) {
      SweepMachine m(mode, b);
      EXPECT_EQ(m.cpu.run(1), rabbit::StopReason::kIllegal);
      EXPECT_EQ(m.cpu.illegal_message().rfind("illegal opcode", 0), 0u);
    }
  }
}

}  // namespace
}  // namespace rmc::rasm
