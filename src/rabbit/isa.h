// The Rabbit 2000 instruction set, written down once.
//
// Every instruction form the simulator executes is one row of RMC_ISA: its
// opcode page and base byte, an operand template, its cycle cost and the
// fast-dispatch micro-op that runs it. Everything else is generated from
// the rows: the decoder both interpreters share (rabbit/cpu.cc, cpu_fast.cc),
// the disassembler (rasm/disasm.cc, the template with its fields filled in)
// and the assembler's instruction selection (rasm/assembler.cc, parsed
// operands matched against the templates). Adding or re-timing an
// instruction is a one-row edit; DESIGN.md §15 has the rationale.
//
// Standard Z80 encodings cover the Z80 core. The Rabbit-specific forms (MUL,
// BOOL HL, LD XPC,A, LJP/LCALL/LRET) use encodings of our own choosing; we
// control both the assembler and the core and make no claim of binary
// compatibility with real Rabbit ROM images.
//
// Cycle model. Costs follow the *shape* of the Rabbit 2000 datasheet
// (register ops 2, immediates ~4, memory 5-13, call/ret 8-12, far calls
// ~19). Absolute values are approximations; the experiments depend only on
// ratios between builds running on this same model. `cyc` is the cost of a
// conditional form that is not taken (or of a block move's last pass);
// `alt` is the cost when the branch is taken or the block move repeats, and
// is 0 for unconditional forms.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "common/bytes.h"

namespace rmc::rabbit::isa {

using common::u8;

// Fast-dispatch micro-op kinds (rabbit/cpu_fast.cc). The enum and the
// computed-goto table are generated from this one list. Slow rows re-execute
// through the reference step() (HALT, EI and RETI need per-step precision;
// the DD/FD CB forms are rare enough not to need a handler).
#define RMC_UOP_LIST(X)                                                   \
  X(Invalid) X(Slow) X(Nop)                                               \
  X(LdRR) X(LdRMhl) X(StMhlR) X(LdRN) X(StHlN)                            \
  X(LdABc) X(LdADe) X(StBcA) X(StDeA) X(LdANn) X(StNnA)                   \
  X(LdBcI) X(LdDeI) X(LdHlI) X(LdSpI)                                     \
  X(StIndHl) X(LdHlInd)                                                   \
  X(IncBc) X(IncDe) X(IncHl) X(IncSp)                                     \
  X(DecBc) X(DecDe) X(DecHl) X(DecSp)                                     \
  X(IncR) X(IncMhl) X(DecR) X(DecMhl)                                     \
  X(Rlca) X(Rrca) X(Rla) X(Rra)                                           \
  X(Daa) X(Cpl) X(Scf) X(Ccf)                                             \
  X(ExAf) X(Exx) X(ExDeHl) X(ExSpHl)                                      \
  X(AddHlBc) X(AddHlDe) X(AddHlHl) X(AddHlSp)                             \
  X(Djnz) X(Jr) X(JrCc)                                                   \
  X(AddR) X(AdcR) X(SubR) X(SbcR) X(AndR) X(XorR) X(OrR) X(CpR)           \
  X(AddMhl) X(AdcMhl) X(SubMhl) X(SbcMhl) X(AndMhl) X(XorMhl) X(OrMhl)    \
  X(CpMhl)                                                                \
  X(AddN) X(AdcN) X(SubN) X(SbcN) X(AndN) X(XorN) X(OrN) X(CpN)           \
  X(RetCc) X(Ret) X(PopBc) X(PopDe) X(PopHl) X(PopAf)                     \
  X(PushBc) X(PushDe) X(PushHl) X(PushAf)                                 \
  X(Jp) X(JpCc) X(JpHl) X(Call) X(CallCc) X(Rst) X(Mul)                   \
  X(Out) X(In) X(LdSpHl) X(Di)                                            \
  X(CbRotR) X(CbRotMhl) X(CbBitR) X(CbBitMhl)                             \
  X(CbResR) X(CbResMhl) X(CbSetR) X(CbSetMhl)                             \
  X(SbcHlRp) X(AdcHlRp) X(EdStRp) X(EdLdRp)                               \
  X(Neg) X(LdXpcA) X(LdAXpc) X(Bool)                                      \
  X(Ljp) X(Lcall) X(Lret) X(BlockLd)                                      \
  X(IxLdRM) X(IxStMR)                                                     \
  X(IxAdd) X(IxAdc) X(IxSub) X(IxSbc) X(IxAnd) X(IxXor) X(IxOr) X(IxCp)   \
  X(IxLdI) X(IxStInd) X(IxLdInd) X(IxInc) X(IxDec) X(IxAddRp)             \
  X(IxIncM) X(IxDecM) X(IxStNI)                                           \
  X(IxPop) X(IxPush) X(IxExSp) X(IxJp) X(IxLdSp)

enum UKind : u8 {
#define X(n) kU_##n,
  RMC_UOP_LIST(X)
#undef X
  kU_Count
};

/// Opcode pages: unprefixed, CB, ED, DD/FD (IX/IY) and DD/FD CB d op.
enum Page : u8 { Main, CB, ED, XY, XYCB, kPages };
inline constexpr u8 kPrefixCB = 0xCB;
inline constexpr u8 kPrefixED = 0xED;
inline constexpr u8 kPrefixIX = 0xDD;
inline constexpr u8 kPrefixIY = 0xFD;

// Operand templates. Fields (in braces) live in bits of the opcode byte:
//   {r3} {r0}  register b c d e h l a in bits 5-3 / 2-0 (code 6 = (hl),
//              which has rows of its own)
//   {p4}       register pair bc de hl sp in bits 5-4
//   {x4}       bc de xy sp in bits 5-4 (add ix/iy)
//   {c3}       condition nz z nc c po pe p m in bits 5-3
//   {j3}       condition nz z nc c in bits 4-3 (jr)
//   {b3}       bit number 0-7 in bits 5-3
//   {t3}       restart vector 00h-38h in bits 5-3 (30h is mul)
// Operand bytes follow the opcode in template order (DD/FD CB forms put d
// before the opcode):
//   n  8-bit immediate     nn  16-bit immediate    mm  jump target (16-bit)
//   e  relative target     (n) port                (nn) absolute address
//   (xy+d) IX/IY plus a signed displacement; xy / (xy) name IX or IY by the
//   DD/FD prefix. Anything else is literal text.
// The ED 63 / ED 6B rows of {p4} duplicate 22 / 2A: they decode, and the
// assembler selects the earlier unprefixed row.
//
//  uop       page  opcode  template              cyc alt
#define RMC_ISA(X)                                      \
  X(Nop,      Main, 0x00, "nop",                   2,  0) \
  X(LdBcI,    Main, 0x01, "ld bc, nn",             6,  0) \
  X(LdDeI,    Main, 0x11, "ld de, nn",             6,  0) \
  X(LdHlI,    Main, 0x21, "ld hl, nn",             6,  0) \
  X(LdSpI,    Main, 0x31, "ld sp, nn",             6,  0) \
  X(StBcA,    Main, 0x02, "ld (bc), a",            7,  0) \
  X(StDeA,    Main, 0x12, "ld (de), a",            7,  0) \
  X(LdABc,    Main, 0x0A, "ld a, (bc)",            6,  0) \
  X(LdADe,    Main, 0x1A, "ld a, (de)",            6,  0) \
  X(StIndHl,  Main, 0x22, "ld (nn), hl",          13,  0) \
  X(LdHlInd,  Main, 0x2A, "ld hl, (nn)",          11,  0) \
  X(StNnA,    Main, 0x32, "ld (nn), a",           10,  0) \
  X(LdANn,    Main, 0x3A, "ld a, (nn)",            9,  0) \
  X(LdRR,     Main, 0x40, "ld {r3}, {r0}",         2,  0) \
  X(LdRMhl,   Main, 0x46, "ld {r3}, (hl)",         6,  0) \
  X(StMhlR,   Main, 0x70, "ld (hl), {r0}",         6,  0) \
  X(LdRN,     Main, 0x06, "ld {r3}, n",            4,  0) \
  X(StHlN,    Main, 0x36, "ld (hl), n",            7,  0) \
  X(LdSpHl,   Main, 0xF9, "ld sp, hl",             2,  0) \
  X(IncBc,    Main, 0x03, "inc bc",                2,  0) \
  X(IncDe,    Main, 0x13, "inc de",                2,  0) \
  X(IncHl,    Main, 0x23, "inc hl",                2,  0) \
  X(IncSp,    Main, 0x33, "inc sp",                2,  0) \
  X(DecBc,    Main, 0x0B, "dec bc",                2,  0) \
  X(DecDe,    Main, 0x1B, "dec de",                2,  0) \
  X(DecHl,    Main, 0x2B, "dec hl",                2,  0) \
  X(DecSp,    Main, 0x3B, "dec sp",                2,  0) \
  X(IncR,     Main, 0x04, "inc {r3}",              2,  0) \
  X(IncMhl,   Main, 0x34, "inc (hl)",              8,  0) \
  X(DecR,     Main, 0x05, "dec {r3}",              2,  0) \
  X(DecMhl,   Main, 0x35, "dec (hl)",              8,  0) \
  X(AddHlBc,  Main, 0x09, "add hl, bc",            2,  0) \
  X(AddHlDe,  Main, 0x19, "add hl, de",            2,  0) \
  X(AddHlHl,  Main, 0x29, "add hl, hl",            2,  0) \
  X(AddHlSp,  Main, 0x39, "add hl, sp",            2,  0) \
  X(AddR,     Main, 0x80, "add a, {r0}",           2,  0) \
  X(AdcR,     Main, 0x88, "adc a, {r0}",           2,  0) \
  X(SubR,     Main, 0x90, "sub {r0}",              2,  0) \
  X(SbcR,     Main, 0x98, "sbc a, {r0}",           2,  0) \
  X(AndR,     Main, 0xA0, "and {r0}",              2,  0) \
  X(XorR,     Main, 0xA8, "xor {r0}",              2,  0) \
  X(OrR,      Main, 0xB0, "or {r0}",               2,  0) \
  X(CpR,      Main, 0xB8, "cp {r0}",               2,  0) \
  X(AddMhl,   Main, 0x86, "add a, (hl)",           5,  0) \
  X(AdcMhl,   Main, 0x8E, "adc a, (hl)",           5,  0) \
  X(SubMhl,   Main, 0x96, "sub (hl)",              5,  0) \
  X(SbcMhl,   Main, 0x9E, "sbc a, (hl)",           5,  0) \
  X(AndMhl,   Main, 0xA6, "and (hl)",              5,  0) \
  X(XorMhl,   Main, 0xAE, "xor (hl)",              5,  0) \
  X(OrMhl,    Main, 0xB6, "or (hl)",               5,  0) \
  X(CpMhl,    Main, 0xBE, "cp (hl)",               5,  0) \
  X(AddN,     Main, 0xC6, "add a, n",              4,  0) \
  X(AdcN,     Main, 0xCE, "adc a, n",              4,  0) \
  X(SubN,     Main, 0xD6, "sub n",                 4,  0) \
  X(SbcN,     Main, 0xDE, "sbc a, n",              4,  0) \
  X(AndN,     Main, 0xE6, "and n",                 4,  0) \
  X(XorN,     Main, 0xEE, "xor n",                 4,  0) \
  X(OrN,      Main, 0xF6, "or n",                  4,  0) \
  X(CpN,      Main, 0xFE, "cp n",                  4,  0) \
  X(Rlca,     Main, 0x07, "rlca",                  2,  0) \
  X(Rrca,     Main, 0x0F, "rrca",                  2,  0) \
  X(Rla,      Main, 0x17, "rla",                   2,  0) \
  X(Rra,      Main, 0x1F, "rra",                   2,  0) \
  X(Daa,      Main, 0x27, "daa",                   4,  0) \
  X(Cpl,      Main, 0x2F, "cpl",                   2,  0) \
  X(Scf,      Main, 0x37, "scf",                   2,  0) \
  X(Ccf,      Main, 0x3F, "ccf",                   2,  0) \
  X(ExAf,     Main, 0x08, "ex af, af'",            2,  0) \
  X(Exx,      Main, 0xD9, "exx",                   2,  0) \
  X(ExDeHl,   Main, 0xEB, "ex de, hl",             2,  0) \
  X(ExSpHl,   Main, 0xE3, "ex (sp), hl",          15,  0) \
  X(PopBc,    Main, 0xC1, "pop bc",                7,  0) \
  X(PopDe,    Main, 0xD1, "pop de",                7,  0) \
  X(PopHl,    Main, 0xE1, "pop hl",                7,  0) \
  X(PopAf,    Main, 0xF1, "pop af",                7,  0) \
  X(PushBc,   Main, 0xC5, "push bc",              10,  0) \
  X(PushDe,   Main, 0xD5, "push de",              10,  0) \
  X(PushHl,   Main, 0xE5, "push hl",              10,  0) \
  X(PushAf,   Main, 0xF5, "push af",              10,  0) \
  X(Djnz,     Main, 0x10, "djnz e",                5, 10) \
  X(Jr,       Main, 0x18, "jr e",                  5,  0) \
  X(JrCc,     Main, 0x20, "jr {j3}, e",            3,  5) \
  X(Jp,       Main, 0xC3, "jp mm",                 7,  0) \
  X(JpCc,     Main, 0xC2, "jp {c3}, mm",           7,  7) \
  X(JpHl,     Main, 0xE9, "jp (hl)",               4,  0) \
  X(Call,     Main, 0xCD, "call mm",              12,  0) \
  X(CallCc,   Main, 0xC4, "call {c3}, mm",         6, 12) \
  X(Ret,      Main, 0xC9, "ret",                   8,  0) \
  X(RetCc,    Main, 0xC0, "ret {c3}",              2,  8) \
  X(Rst,      Main, 0xC7, "rst {t3}",             10,  0) \
  X(Mul,      Main, 0xF7, "mul",                  12,  0) \
  X(Out,      Main, 0xD3, "out (n), a",            8,  0) \
  X(In,       Main, 0xDB, "in a, (n)",             8,  0) \
  X(Di,       Main, 0xF3, "di",                    2,  0) \
  X(Slow,     Main, 0xFB, "ei",                    2,  0) \
  X(Slow,     Main, 0x76, "halt",                  2,  0) \
  X(CbRotR,   CB,   0x00, "rlc {r0}",              4,  0) \
  X(CbRotR,   CB,   0x08, "rrc {r0}",              4,  0) \
  X(CbRotR,   CB,   0x10, "rl {r0}",               4,  0) \
  X(CbRotR,   CB,   0x18, "rr {r0}",               4,  0) \
  X(CbRotR,   CB,   0x20, "sla {r0}",              4,  0) \
  X(CbRotR,   CB,   0x28, "sra {r0}",              4,  0) \
  X(CbRotR,   CB,   0x38, "srl {r0}",              4,  0) \
  X(CbRotMhl, CB,   0x06, "rlc (hl)",             10,  0) \
  X(CbRotMhl, CB,   0x0E, "rrc (hl)",             10,  0) \
  X(CbRotMhl, CB,   0x16, "rl (hl)",              10,  0) \
  X(CbRotMhl, CB,   0x1E, "rr (hl)",              10,  0) \
  X(CbRotMhl, CB,   0x26, "sla (hl)",             10,  0) \
  X(CbRotMhl, CB,   0x2E, "sra (hl)",             10,  0) \
  X(CbRotMhl, CB,   0x3E, "srl (hl)",             10,  0) \
  X(CbBitR,   CB,   0x40, "bit {b3}, {r0}",        4,  0) \
  X(CbBitMhl, CB,   0x46, "bit {b3}, (hl)",        7,  0) \
  X(CbResR,   CB,   0x80, "res {b3}, {r0}",        4,  0) \
  X(CbResMhl, CB,   0x86, "res {b3}, (hl)",       10,  0) \
  X(CbSetR,   CB,   0xC0, "set {b3}, {r0}",        4,  0) \
  X(CbSetMhl, CB,   0xC6, "set {b3}, (hl)",       10,  0) \
  X(SbcHlRp,  ED,   0x42, "sbc hl, {p4}",          4,  0) \
  X(AdcHlRp,  ED,   0x4A, "adc hl, {p4}",          4,  0) \
  X(EdStRp,   ED,   0x43, "ld (nn), {p4}",        13,  0) \
  X(EdLdRp,   ED,   0x4B, "ld {p4}, (nn)",        13,  0) \
  X(Neg,      ED,   0x44, "neg",                   2,  0) \
  X(Slow,     ED,   0x4D, "reti",                  8,  0) \
  X(LdXpcA,   ED,   0x67, "ld xpc, a",             4,  0) \
  X(LdAXpc,   ED,   0x77, "ld a, xpc",             4,  0) \
  X(Bool,     ED,   0x90, "bool hl",               2,  0) \
  X(BlockLd,  ED,   0xA0, "ldi",                  10,  0) \
  X(BlockLd,  ED,   0xA8, "ldd",                  10,  0) \
  X(BlockLd,  ED,   0xB0, "ldir",                 10,  7) \
  X(BlockLd,  ED,   0xB8, "lddr",                 10,  7) \
  X(Ljp,      ED,   0xC3, "ljp nn, n",            10,  0) \
  X(Lcall,    ED,   0xCD, "lcall nn, n",          19,  0) \
  X(Lret,     ED,   0xC9, "lret",                 13,  0) \
  X(IxLdRM,   XY,   0x46, "ld {r3}, (xy+d)",       9,  0) \
  X(IxStMR,   XY,   0x70, "ld (xy+d), {r0}",      10,  0) \
  X(IxStNI,   XY,   0x36, "ld (xy+d), n",         11,  0) \
  X(IxLdI,    XY,   0x21, "ld xy, nn",             8,  0) \
  X(IxStInd,  XY,   0x22, "ld (nn), xy",          15,  0) \
  X(IxLdInd,  XY,   0x2A, "ld xy, (nn)",          13,  0) \
  X(IxLdSp,   XY,   0xF9, "ld sp, xy",             4,  0) \
  X(IxAdd,    XY,   0x86, "add a, (xy+d)",         9,  0) \
  X(IxAdc,    XY,   0x8E, "adc a, (xy+d)",         9,  0) \
  X(IxSub,    XY,   0x96, "sub (xy+d)",            9,  0) \
  X(IxSbc,    XY,   0x9E, "sbc a, (xy+d)",         9,  0) \
  X(IxAnd,    XY,   0xA6, "and (xy+d)",            9,  0) \
  X(IxXor,    XY,   0xAE, "xor (xy+d)",            9,  0) \
  X(IxOr,     XY,   0xB6, "or (xy+d)",             9,  0) \
  X(IxCp,     XY,   0xBE, "cp (xy+d)",             9,  0) \
  X(IxAddRp,  XY,   0x09, "add xy, {x4}",          4,  0) \
  X(IxInc,    XY,   0x23, "inc xy",                4,  0) \
  X(IxDec,    XY,   0x2B, "dec xy",                4,  0) \
  X(IxIncM,   XY,   0x34, "inc (xy+d)",           12,  0) \
  X(IxDecM,   XY,   0x35, "dec (xy+d)",           12,  0) \
  X(IxPop,    XY,   0xE1, "pop xy",                9,  0) \
  X(IxPush,   XY,   0xE5, "push xy",              12,  0) \
  X(IxExSp,   XY,   0xE3, "ex (sp), xy",          15,  0) \
  X(IxJp,     XY,   0xE9, "jp (xy)",               6,  0) \
  X(Slow,     XYCB, 0x06, "rlc (xy+d)",           13,  0) \
  X(Slow,     XYCB, 0x0E, "rrc (xy+d)",           13,  0) \
  X(Slow,     XYCB, 0x16, "rl (xy+d)",            13,  0) \
  X(Slow,     XYCB, 0x1E, "rr (xy+d)",            13,  0) \
  X(Slow,     XYCB, 0x26, "sla (xy+d)",           13,  0) \
  X(Slow,     XYCB, 0x2E, "sra (xy+d)",           13,  0) \
  X(Slow,     XYCB, 0x3E, "srl (xy+d)",           13,  0) \
  X(Slow,     XYCB, 0x46, "bit {b3}, (xy+d)",     10,  0) \
  X(Slow,     XYCB, 0x86, "res {b3}, (xy+d)",     13,  0) \
  X(Slow,     XYCB, 0xC6, "set {b3}, (xy+d)",     13,  0)

/// Cycle costs that belong to no instruction row.
inline constexpr unsigned kIrqCycles = 13;       // interrupt acknowledge
inline constexpr unsigned kHaltIdleCycles = 2;   // one halted idle tick
inline constexpr unsigned kIllegalCycles = 2;    // undecodable opcode

/// One template field: where its code sits in the opcode and how it reads.
struct Field {
  std::string_view tag;  // placeholder as written in a template
  u8 shift;              // bit position of the code in the opcode
  u8 mask;               // code width
  u8 legal;              // bit c set: code c is an instruction of the row
  u8 step;               // numeric field: operand value = code * step
  std::array<std::string_view, 8> names;  // rendering of each code
};

inline constexpr Field kFields[] = {
    {"{r3}", 3, 7, 0xBF, 0, {"b", "c", "d", "e", "h", "l", "", "a"}},
    {"{r0}", 0, 7, 0xBF, 0, {"b", "c", "d", "e", "h", "l", "", "a"}},
    {"{p4}", 4, 3, 0x0F, 0, {"bc", "de", "hl", "sp"}},
    {"{x4}", 4, 3, 0x0F, 0, {"bc", "de", "xy", "sp"}},
    {"{c3}", 3, 7, 0xFF, 0, {"nz", "z", "nc", "c", "po", "pe", "p", "m"}},
    {"{j3}", 3, 3, 0x0F, 0, {"nz", "z", "nc", "c"}},
    {"{b3}", 3, 7, 0xFF, 1, {"0", "1", "2", "3", "4", "5", "6", "7"}},
    {"{t3}", 3, 7, 0xBF, 8,
     {"000h", "008h", "010h", "018h", "020h", "028h", "", "038h"}},
};

/// Operand template kinds.
enum class Arg : u8 {
  kLit, kField, kN, kNN, kMM, kE, kPort, kAddr, kIdx, kXY, kXYInd
};

constexpr Arg arg_kind(std::string_view s) {
  if (s.front() == '{') return Arg::kField;
  if (s == "n") return Arg::kN;
  if (s == "nn") return Arg::kNN;
  if (s == "mm") return Arg::kMM;
  if (s == "e") return Arg::kE;
  if (s == "(n)") return Arg::kPort;
  if (s == "(nn)") return Arg::kAddr;
  if (s == "(xy+d)") return Arg::kIdx;
  if (s == "xy") return Arg::kXY;
  if (s == "(xy)") return Arg::kXYInd;
  return Arg::kLit;
}

/// Operand bytes an operand template occupies.
constexpr unsigned arg_bytes(Arg a) {
  switch (a) {
    case Arg::kN: case Arg::kE: case Arg::kPort: case Arg::kIdx: return 1;
    case Arg::kNN: case Arg::kMM: case Arg::kAddr: return 2;
    default: return 0;
  }
}

/// Index in kFields of a field placeholder; -1 for any other operand.
/// (Constant evaluation uses indices: sanitizer builds cannot compare
/// addresses with null at compile time.)
constexpr int field_index(std::string_view tag) {
  for (int i = 0; i < static_cast<int>(std::size(kFields)); ++i) {
    if (kFields[i].tag == tag) return i;
  }
  return -1;
}

constexpr const Field* field(std::string_view tag) {
  const int i = field_index(tag);
  return i < 0 ? nullptr : &kFields[i];
}

/// A template split into its mnemonic and ", "-separated operands.
struct Form {
  std::string_view mnemonic;
  std::array<std::string_view, 3> ops{};
  unsigned count = 0;
};

constexpr Form split(std::string_view text) {
  Form f;
  const std::size_t sp = text.find(' ');
  f.mnemonic = text.substr(0, sp);
  if (sp == std::string_view::npos) return f;
  std::string_view rest = text.substr(sp + 1);
  for (;;) {
    const std::size_t comma = rest.find(", ");
    f.ops[f.count++] = rest.substr(0, comma);
    if (comma == std::string_view::npos) return f;
    rest = rest.substr(comma + 2);
  }
}

/// Prefix bytes before the opcode (DD/FD CB d op counts DD/FD and CB; its
/// displacement is an operand byte that happens to precede the opcode).
inline constexpr u8 kPrefixBytes[kPages] = {0, 1, 1, 1, 2};

constexpr u8 insn_len(Page page, std::string_view text) {
  const Form f = split(text);
  unsigned n = kPrefixBytes[page] + 1U;
  for (unsigned i = 0; i < f.count; ++i) n += arg_bytes(arg_kind(f.ops[i]));
  return static_cast<u8>(n);
}

/// One row of the table.
struct Insn {
  UKind uop;
  Page page;
  u8 opcode;              // every field code zero
  std::string_view text;  // operand template
  u8 cyc;
  u8 alt;
  u8 len;                 // bytes, prefixes and operands included
};

inline constexpr Insn kTable[] = {
#define RMC_ISA_ROW(uop, page, op, text, cyc, alt) \
  Insn{kU_##uop, page, op, text, cyc, alt, insn_len(page, text)},
    RMC_ISA(RMC_ISA_ROW)
#undef RMC_ISA_ROW
};

/// Calls fn(opcode) for every opcode byte the row's fields spread it over.
template <class Fn>
constexpr void for_each_opcode(const Insn& in, Fn&& fn) {
  const Form form = split(in.text);
  int fa = -1;
  int fb = -1;
  for (unsigned i = 0; i < form.count; ++i) {
    if (const int f = field_index(form.ops[i]); f >= 0) (fa < 0 ? fa : fb) = f;
  }
  // An absent field contributes the single code 0.
  const auto codes = [](int f) { return f < 0 ? 1U : kFields[f].mask + 1U; };
  const auto legal = [](int f, unsigned c) {
    return f < 0 || ((kFields[f].legal >> c) & 1) != 0;
  };
  const auto place = [](int f, unsigned c) {
    return f < 0 ? 0U : c << kFields[f].shift;
  };
  for (unsigned a = 0; a < codes(fa); ++a) {
    for (unsigned b = 0; b < codes(fb); ++b) {
      if (legal(fa, a) && legal(fb, b)) {
        fn(static_cast<u8>(in.opcode | place(fa, a) | place(fb, b)));
      }
    }
  }
}

/// Page x opcode -> 1 + row index (0: not an instruction). Building it is
/// a compile-time check that no two rows claim the same encoding.
inline constexpr auto kDecode = [] {
  std::array<std::array<u8, 256>, kPages> t{};
  for (std::size_t i = 0; i < std::size(kTable); ++i) {
    for_each_opcode(kTable[i], [&](u8 op) {
      u8& slot = t[kTable[i].page][op];
      if (slot != 0) throw "two RMC_ISA rows claim one encoding";
      slot = static_cast<u8>(i + 1);
    });
  }
  return t;
}();

inline constexpr u8 kMaxLen = [] {
  u8 m = 0;
  for (const Insn& in : kTable) m = in.len > m ? in.len : m;
  return m;
}();

/// The decoder both interpreters and the disassembler share.
struct Decoded {
  const Insn* insn = nullptr;  // nullptr: not an instruction
  u8 op = 0;                   // opcode byte; field codes live in its bits
  bool iy = false;             // FD prefix (IY) rather than DD (IX)
  u8 head = 1;                 // prefix + opcode bytes, displacement included
  u8 args = 1;                 // offset of the first operand byte
};

/// `rd(i)` returns the instruction's i-th byte.
template <class Read>
constexpr Decoded decode(Read&& rd) {
  Decoded d;
  const u8 b0 = rd(0U);
  Page page = Main;
  if (b0 == kPrefixCB) {
    page = CB;
  } else if (b0 == kPrefixED) {
    page = ED;
  } else if (b0 == kPrefixIX || b0 == kPrefixIY) {
    d.iy = b0 == kPrefixIY;
    page = rd(1U) == kPrefixCB ? XYCB : XY;
  }
  d.head = page == XYCB ? 4 : static_cast<u8>(kPrefixBytes[page] + 1);
  d.args = page == XYCB ? 2 : d.head;
  d.op = page == Main ? b0 : rd(d.head - 1U);
  if (const u8 row = kDecode[page][d.op]; row != 0) d.insn = &kTable[row - 1];
  return d;
}

/// Field code of `f` in opcode `op`.
constexpr unsigned code_of(const Field& f, u8 op) {
  return (op >> f.shift) & f.mask;
}

}  // namespace rmc::rabbit::isa
