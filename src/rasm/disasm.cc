#include "rasm/disasm.h"

#include <cstdarg>
#include <cstdio>

#include "rabbit/isa.h"

namespace rmc::rasm {

using common::u16;
using common::u8;
namespace isa = rabbit::isa;

namespace {

std::string fmt(const char* f, ...) {
  char buf[64];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace

// The row's template with its fields and operand bytes filled in.
DisasmResult disassemble_one(std::span<const u8> code, std::size_t offset,
                             u16 pc) {
  DisasmResult res;
  if (offset >= code.size()) return res;
  const auto byte = [&](std::size_t i) -> u8 {
    return offset + i < code.size() ? code[offset + i] : 0;
  };
  const isa::Decoded d = isa::decode(byte);
  const std::size_t len = d.insn != nullptr ? d.insn->len : d.head;
  if (d.insn == nullptr || offset + len > code.size()) {
    res.text = fmt("db 0%02xh", code[offset]);
    return res;
  }
  const char* xy = d.iy ? "iy" : "ix";
  const isa::Form form = isa::split(d.insn->text);
  std::size_t at = d.args;  // next operand byte
  const auto next = [&] { return byte(at++); };
  const auto next16 = [&] {
    const u8 lo = next();
    return common::make16(lo, next());
  };
  std::string text(form.mnemonic);
  for (unsigned i = 0; i < form.count; ++i) {
    text += i == 0 ? " " : ", ";
    const std::string_view op = form.ops[i];
    switch (isa::arg_kind(op)) {
      case isa::Arg::kLit: text += op; break;
      case isa::Arg::kField: {
        const isa::Field& f = *isa::field(op);
        const std::string_view name = f.names[isa::code_of(f, d.op)];
        text += name == "xy" ? xy : name;
        break;
      }
      case isa::Arg::kN: text += fmt("0%02xh", next()); break;
      case isa::Arg::kNN:
      case isa::Arg::kMM: text += fmt("0%04xh", next16()); break;
      case isa::Arg::kE: {
        const auto e = static_cast<common::i8>(next());
        text += fmt("0%04xh", static_cast<u16>(pc + len + e));
        break;
      }
      case isa::Arg::kPort: text += fmt("(0%02xh)", next()); break;
      case isa::Arg::kAddr: text += fmt("(0%04xh)", next16()); break;
      case isa::Arg::kIdx:
        text += fmt("(%s%+d)", xy, static_cast<common::i8>(next()));
        break;
      case isa::Arg::kXY: text += xy; break;
      case isa::Arg::kXYInd: text += fmt("(%s)", xy); break;
    }
  }
  res.text = std::move(text);
  res.length = len;
  res.valid = true;
  return res;
}

std::string disassemble_all(std::span<const u8> code, u16 base_pc) {
  std::string out;
  std::size_t offset = 0;
  while (offset < code.size()) {
    const u16 pc = static_cast<u16>(base_pc + offset);
    DisasmResult one = disassemble_one(code, offset, pc);
    char head[16];
    std::snprintf(head, sizeof head, "%04X  ", pc);
    out += head;
    for (std::size_t i = 0; i < one.length; ++i) {
      char b[4];
      std::snprintf(b, sizeof b, "%02X", code[offset + i]);
      out += b;
    }
    out.resize(out.size() + (one.length < 5 ? (5 - one.length) * 2 : 1), ' ');
    out += ' ';
    out += one.text;
    out += '\n';
    offset += one.length;
  }
  return out;
}

}  // namespace rmc::rasm
