#include "rasm/assembler.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <optional>

#include "rabbit/isa.h"

namespace rmc::rasm {

using common::ErrorCode;
using common::i64;
using common::make_error;
using common::Result;
using common::Status;
using common::u16;
using common::u32;
using common::u8;
namespace isa = rabbit::isa;

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

// ---------------------------------------------------------------------------
// Source line splitting
// ---------------------------------------------------------------------------

struct Line {
  int number = 0;
  std::string label;
  std::string mnemonic;            // lower-case
  std::vector<std::string> operands;  // trimmed, original case preserved
  std::string raw;
};

// Strip comments (';' outside quotes) and split "label: mnem op, op".
Line parse_line(int number, std::string_view text) {
  Line line;
  line.number = number;
  line.raw = std::string(text);

  // Remove comment.
  std::string body;
  char quote = 0;
  for (char c : text) {
    if (quote) {
      body.push_back(c);
      if (c == quote) quote = 0;
      continue;
    }
    if (c == '"' || c == '\'') {
      quote = c;
      body.push_back(c);
      continue;
    }
    if (c == ';') break;
    body.push_back(c);
  }

  std::string_view rest = trim(body);
  if (rest.empty()) return line;

  // Label: leading identifier followed by ':', or an identifier followed by
  // the `equ` keyword.
  if (is_ident_start(rest.front())) {
    std::size_t i = 1;
    while (i < rest.size() && is_ident_char(rest[i])) ++i;
    if (i < rest.size() && rest[i] == ':') {
      line.label = std::string(rest.substr(0, i));
      rest = trim(rest.substr(i + 1));
    } else {
      // Peek: "name equ expr"
      std::string_view after = trim(rest.substr(i));
      if (lower(after.substr(0, 4)) == "equ " || lower(after) == "equ") {
        line.label = std::string(rest.substr(0, i));
        rest = after;
      }
    }
  }
  if (rest.empty()) return line;

  // Mnemonic.
  std::size_t i = 0;
  while (i < rest.size() && !std::isspace(static_cast<unsigned char>(rest[i])))
    ++i;
  line.mnemonic = lower(rest.substr(0, i));
  rest = trim(rest.substr(i));

  // Operands: split on commas at paren depth 0 outside quotes.
  if (!rest.empty()) {
    int depth = 0;
    quote = 0;
    std::string cur;
    for (char c : rest) {
      if (quote) {
        cur.push_back(c);
        if (c == quote) quote = 0;
        continue;
      }
      if (c == '"' || c == '\'') {
        quote = c;
        cur.push_back(c);
        continue;
      }
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ',' && depth == 0) {
        line.operands.emplace_back(trim(cur));
        cur.clear();
        continue;
      }
      cur.push_back(c);
    }
    if (!trim(cur).empty()) line.operands.emplace_back(trim(cur));
  }
  return line;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct ExprValue {
  i64 value = 0;
  bool resolved = true;
};

class ExprParser {
 public:
  ExprParser(std::string_view text, const std::map<std::string, i64>& symbols,
             i64 here)
      : text_(text), symbols_(symbols), here_(here) {}

  Result<ExprValue> parse() {
    auto v = parse_or();
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) {
      return Status(ErrorCode::kInvalidArgument,
                    "trailing characters in expression: '" +
                        std::string(text_.substr(pos_)) + "'");
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool eat2(const char* two) {
    skip_ws();
    if (pos_ + 1 < text_.size() && text_[pos_] == two[0] &&
        text_[pos_ + 1] == two[1]) {
      pos_ += 2;
      return true;
    }
    return false;
  }

  Result<ExprValue> parse_or() {
    auto lhs = parse_xor();
    if (!lhs.ok()) return lhs;
    while (true) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '|') {
        ++pos_;
        auto rhs = parse_xor();
        if (!rhs.ok()) return rhs;
        lhs->value |= rhs->value;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else {
        return lhs;
      }
    }
  }
  Result<ExprValue> parse_xor() {
    auto lhs = parse_and();
    if (!lhs.ok()) return lhs;
    while (true) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '^') {
        ++pos_;
        auto rhs = parse_and();
        if (!rhs.ok()) return rhs;
        lhs->value ^= rhs->value;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else {
        return lhs;
      }
    }
  }
  Result<ExprValue> parse_and() {
    auto lhs = parse_shift();
    if (!lhs.ok()) return lhs;
    while (true) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '&') {
        ++pos_;
        auto rhs = parse_shift();
        if (!rhs.ok()) return rhs;
        lhs->value &= rhs->value;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else {
        return lhs;
      }
    }
  }
  Result<ExprValue> parse_shift() {
    auto lhs = parse_add();
    if (!lhs.ok()) return lhs;
    while (true) {
      if (eat2("<<")) {
        auto rhs = parse_add();
        if (!rhs.ok()) return rhs;
        lhs->value <<= rhs->value;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else if (eat2(">>")) {
        auto rhs = parse_add();
        if (!rhs.ok()) return rhs;
        lhs->value = static_cast<i64>(static_cast<common::u64>(lhs->value) >>
                                      rhs->value);
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else {
        return lhs;
      }
    }
  }
  Result<ExprValue> parse_add() {
    auto lhs = parse_mul();
    if (!lhs.ok()) return lhs;
    while (true) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '+') {
        ++pos_;
        auto rhs = parse_mul();
        if (!rhs.ok()) return rhs;
        lhs->value += rhs->value;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else if (pos_ < text_.size() && text_[pos_] == '-') {
        ++pos_;
        auto rhs = parse_mul();
        if (!rhs.ok()) return rhs;
        lhs->value -= rhs->value;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else {
        return lhs;
      }
    }
  }
  Result<ExprValue> parse_mul() {
    auto lhs = parse_unary();
    if (!lhs.ok()) return lhs;
    while (true) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '*') {
        ++pos_;
        auto rhs = parse_unary();
        if (!rhs.ok()) return rhs;
        lhs->value *= rhs->value;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else if (pos_ < text_.size() && text_[pos_] == '/') {
        ++pos_;
        auto rhs = parse_unary();
        if (!rhs.ok()) return rhs;
        if (rhs->value == 0 && rhs->resolved) {
          return Status(ErrorCode::kInvalidArgument, "division by zero");
        }
        lhs->value = rhs->value ? lhs->value / rhs->value : 0;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else if (pos_ < text_.size() && text_[pos_] == '%' &&
                 !(pos_ + 1 < text_.size() &&
                   (text_[pos_ + 1] == '0' || text_[pos_ + 1] == '1'))) {
        ++pos_;
        auto rhs = parse_unary();
        if (!rhs.ok()) return rhs;
        if (rhs->value == 0 && rhs->resolved) {
          return Status(ErrorCode::kInvalidArgument, "modulo by zero");
        }
        lhs->value = rhs->value ? lhs->value % rhs->value : 0;
        lhs->resolved = lhs->resolved && rhs->resolved;
      } else {
        return lhs;
      }
    }
  }
  Result<ExprValue> parse_unary() {
    skip_ws();
    if (eat('-')) {
      auto v = parse_unary();
      if (!v.ok()) return v;
      v->value = -v->value;
      return v;
    }
    if (eat('~')) {
      auto v = parse_unary();
      if (!v.ok()) return v;
      v->value = ~v->value;
      return v;
    }
    if (eat('+')) return parse_unary();
    return parse_primary();
  }

  Result<ExprValue> parse_primary() {
    skip_ws();
    if (pos_ >= text_.size()) {
      return Status(ErrorCode::kInvalidArgument, "unexpected end of expression");
    }
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      auto v = parse_or();
      if (!v.ok()) return v;
      if (!eat(')')) {
        return Status(ErrorCode::kInvalidArgument, "missing ')'");
      }
      return v;
    }
    if (c == '$') {
      // `$ff` = hex literal; bare `$` = current address.
      if (pos_ + 1 < text_.size() &&
          std::isxdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
        ++pos_;
        return parse_number(16);
      }
      ++pos_;
      return ExprValue{here_, true};
    }
    if (c == '%') {
      ++pos_;
      return parse_number(2);
    }
    if (c == '\'') {
      // Character literal 'x' (with \n \t \\ \' \0 escapes).
      ++pos_;
      if (pos_ >= text_.size()) {
        return Status(ErrorCode::kInvalidArgument, "unterminated char literal");
      }
      char v = text_[pos_++];
      if (v == '\\' && pos_ < text_.size()) {
        const char e = text_[pos_++];
        switch (e) {
          case 'n': v = '\n'; break;
          case 't': v = '\t'; break;
          case 'r': v = '\r'; break;
          case '0': v = '\0'; break;
          default: v = e; break;
        }
      }
      if (pos_ >= text_.size() || text_[pos_] != '\'') {
        return Status(ErrorCode::kInvalidArgument, "unterminated char literal");
      }
      ++pos_;
      return ExprValue{static_cast<i64>(static_cast<u8>(v)), true};
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (c == '0' && pos_ + 1 < text_.size() &&
          (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
        pos_ += 2;
        return parse_number(16);
      }
      return parse_number_maybe_h();
    }
    if (is_ident_start(c)) {
      std::size_t start = pos_;
      while (pos_ < text_.size() && is_ident_char(text_[pos_])) ++pos_;
      std::string name = lower(text_.substr(start, pos_ - start));
      // Builtin functions.
      if (name == "xpcof" || name == "winof" || name == "hi" || name == "lo") {
        if (!eat('(')) {
          return Status(ErrorCode::kInvalidArgument,
                        name + " requires parenthesized argument");
        }
        auto v = parse_or();
        if (!v.ok()) return v;
        if (!eat(')')) {
          return Status(ErrorCode::kInvalidArgument, "missing ')'");
        }
        const i64 x = v->value;
        i64 r = 0;
        if (name == "xpcof") r = ((x >> 12) - 0x0E) & 0xFF;
        else if (name == "winof") r = 0xE000 + (x & 0x0FFF);
        else if (name == "hi") r = (x >> 8) & 0xFF;
        else r = x & 0xFF;
        return ExprValue{r, v->resolved};
      }
      auto it = symbols_.find(name);
      if (it == symbols_.end()) {
        unresolved_name_ = name;
        return ExprValue{0, false};
      }
      return ExprValue{it->second, true};
    }
    return Status(ErrorCode::kInvalidArgument,
                  std::string("unexpected character '") + c + "' in expression");
  }

  Result<ExprValue> parse_number(int base) {
    i64 v = 0;
    bool any = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else break;
      if (digit >= base) break;
      v = v * base + digit;
      ++pos_;
      any = true;
    }
    if (!any) {
      return Status(ErrorCode::kInvalidArgument, "malformed number");
    }
    return ExprValue{v, true};
  }

  // Decimal, or hex with trailing 'h' (e.g. 0E000h / 12h).
  Result<ExprValue> parse_number_maybe_h() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isxdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == 'h' || text_[pos_] == 'H')) {
      i64 v = 0;
      for (std::size_t i = start; i < pos_; ++i) {
        const char c = text_[i];
        const int digit = (c <= '9') ? c - '0'
                          : (c >= 'a') ? c - 'a' + 10
                                       : c - 'A' + 10;
        v = v * 16 + digit;
      }
      ++pos_;  // consume 'h'
      return ExprValue{v, true};
    }
    // Plain decimal: re-scan digits only.
    pos_ = start;
    i64 v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      v = v * 10 + (text_[pos_] - '0');
      ++pos_;
    }
    return ExprValue{v, true};
  }

  std::string_view text_;
  const std::map<std::string, i64>& symbols_;
  i64 here_;
  std::size_t pos_ = 0;
  std::string unresolved_name_;
};

// ---------------------------------------------------------------------------
// Operands
// ---------------------------------------------------------------------------

/// One source operand, classified without evaluating it: an expression is
/// only evaluated once a table row has accepted the operand's shape.
struct Operand {
  std::string text;    // as written, trimmed
  std::string key;     // lower case with blanks removed, for name matching
  bool paren = false;  // "(...)"

  std::string_view inner() const {
    return trim(std::string_view(text).substr(1, text.size() - 2));
  }
};

Operand classify(std::string_view text) {
  Operand o;
  o.text = std::string(trim(text));
  for (char c : o.text) {
    const auto uc = static_cast<unsigned char>(c);
    if (!std::isspace(uc)) o.key.push_back(static_cast<char>(std::tolower(uc)));
  }
  o.paren =
      o.text.size() >= 2 && o.text.front() == '(' && o.text.back() == ')';
  return o;
}

bool is_register(std::string_view key) {
  static constexpr std::string_view kRegs[] = {
      "a",  "b",  "c",  "d",  "e",  "h",  "l",   "af",
      "bc", "de", "hl", "sp", "ix", "iy", "af'", "xpc"};
  return std::find(std::begin(kRegs), std::end(kRegs), key) != std::end(kRegs);
}

/// "ix"/"iy" when the operand is (ix), (ix+d) or (ix-d) (or the iy forms).
std::string_view index_of(const Operand& o) {
  const std::string_view k = o.key;
  if (!o.paren || k.size() < 4 || k[1] != 'i' || (k[2] != 'x' && k[2] != 'y') ||
      (k[3] != ')' && k[3] != '+' && k[3] != '-')) {
    return {};
  }
  return k.substr(1, 2);
}

/// A bare expression: neither a register nor a parenthesized operand.
bool is_expr(const Operand& o) { return !o.paren && !is_register(o.key); }

/// A parenthesized expression: an absolute address or a port.
bool is_memory(const Operand& o) {
  return o.paren && index_of(o).empty() &&
         !is_register(std::string_view(o.key).substr(1, o.key.size() - 2));
}

/// The 8-bit ALU group's accumulator operand is optional: `add a, b` and
/// `add b` are one instruction. Source lines and table templates both drop
/// it before they are compared.
bool drops_accumulator(std::string_view mnemonic, std::size_t count,
                       std::string_view first) {
  static constexpr std::string_view kAlu[] = {"add", "adc", "sub", "sbc",
                                              "and", "xor", "or",  "cp"};
  return count == 2 && first == "a" &&
         std::find(std::begin(kAlu), std::end(kAlu), mnemonic) !=
             std::end(kAlu);
}

/// One operand template, parsed once.
struct Pattern {
  isa::Arg kind = isa::Arg::kLit;
  const isa::Field* field = nullptr;  // kField
  std::string_view text;              // kLit
};

/// A table row as the matcher sees it, accumulator operand dropped.
struct Candidate {
  const isa::Insn* insn;
  unsigned count;
  std::array<Pattern, 3> ops;
};

/// Table rows by mnemonic, in table order.
const std::vector<Candidate>* candidates(std::string_view mnemonic) {
  static const auto kByMnemonic = [] {
    std::map<std::string_view, std::vector<Candidate>, std::less<>> m;
    for (const isa::Insn& in : isa::kTable) {
      isa::Form f = isa::split(in.text);
      if (drops_accumulator(f.mnemonic, f.count, f.ops[0])) {
        f.ops[0] = f.ops[1];
        f.count = 1;
      }
      Candidate c{&in, f.count, {}};
      for (unsigned i = 0; i < f.count; ++i) {
        c.ops[i] = {isa::arg_kind(f.ops[i]), isa::field(f.ops[i]), f.ops[i]};
      }
      m[f.mnemonic].push_back(c);
    }
    return m;
  }();
  const auto it = kByMnemonic.find(mnemonic);
  return it == kByMnemonic.end() ? nullptr : &it->second;
}

/// A named field code matches the operand; "lz"/"lo" are the Rabbit
/// spellings of the po/pe conditions.
bool names_match(std::string_view name, std::string_view key) {
  return key == name || (name == "po" && key == "lz") ||
         (name == "pe" && key == "lo");
}

}  // namespace

Result<u32> board_logical_to_phys(u32 logical) {
  if (logical < 0x6000) return logical;
  if (logical < 0xD000) return logical + 0x7A000;
  if (logical < 0xE000) return logical + 0x81000;
  return Status(ErrorCode::kInvalidArgument,
                "logical address in XPC window; use xorg for extended memory");
}

namespace {

// ---------------------------------------------------------------------------
// Assembler proper
// ---------------------------------------------------------------------------

class Assembler {
 public:
  explicit Assembler(const AssembleOptions& options) : options_(options) {}

  Result<AssembleOutput> assemble(std::string_view source) {
    std::vector<Line> lines;
    int n = 1;
    std::size_t start = 0;
    while (start <= source.size()) {
      std::size_t end = source.find('\n', start);
      if (end == std::string_view::npos) end = source.size();
      lines.push_back(parse_line(n++, source.substr(start, end - start)));
      start = end + 1;
    }

    for (pass_ = 1; pass_ <= 2; ++pass_) {
      addr_ = options_.default_org;
      xmem_mode_ = false;
      chunk_ = nullptr;
      if (pass_ == 2) output_.image.chunks.clear();
      for (const Line& line : lines) {
        Status s = do_line(line);
        if (!s.is_ok()) {
          return Status(s.code(), "line " + std::to_string(line.number) +
                                      ": " + s.message());
        }
      }
    }

    for (const auto& [name, value] : symbols_) {
      output_.image.symbols[name] = static_cast<u32>(value);
    }
    for (const std::string& fn : functions_) {
      if (!symbols_.count(fn)) {
        return Status(ErrorCode::kNotFound,
                      "func declares unknown label: " + fn);
      }
      output_.image.functions.push_back(fn);
    }
    if (options_.want_listing) {
      // Symbol-map appendix: address / F(unction) flag / name, sorted by
      // address — the map CycleProfiler attribution is built from.
      output_.listing += "\n; symbols\n";
      std::vector<std::pair<i64, std::string>> by_addr;
      for (const auto& [name, value] : symbols_) {
        by_addr.emplace_back(value, name);
      }
      std::sort(by_addr.begin(), by_addr.end());
      for (const auto& [value, name] : by_addr) {
        const bool is_fn =
            std::find(functions_.begin(), functions_.end(), name) !=
            functions_.end();
        char head[32];
        std::snprintf(head, sizeof head, "; %05llX %c ",
                      static_cast<unsigned long long>(value),
                      is_fn ? 'F' : ' ');
        output_.listing += head + name + "\n";
      }
    }
    auto main_it = symbols_.find("main");
    if (main_it != symbols_.end()) {
      output_.image.entry = static_cast<u32>(main_it->second);
    } else if (!output_.image.chunks.empty()) {
      output_.image.entry = options_.default_org;
    }
    return std::move(output_);
  }

 private:
  Status do_line(const Line& line) {
    emitted_.clear();
    const i64 line_addr = addr_;

    if (!line.label.empty() && line.mnemonic != "equ") {
      Status s = define_symbol(lower(line.label), addr_);
      if (!s.is_ok()) return s;
    }

    Status s = Status::ok();
    if (!line.mnemonic.empty()) s = dispatch(line);
    if (!s.is_ok()) return s;

    if (pass_ == 2) {
      if (!emitted_.empty()) {
        ensure_chunk();
        chunk_->bytes.insert(chunk_->bytes.end(), emitted_.begin(),
                             emitted_.end());
      }
      if (options_.want_listing) {
        char head[32];
        std::snprintf(head, sizeof head, "%05llX  ",
                      static_cast<unsigned long long>(line_addr));
        std::string bytes;
        for (std::size_t i = 0; i < emitted_.size() && i < 6; ++i) {
          char b[4];
          std::snprintf(b, sizeof b, "%02X ", emitted_[i]);
          bytes += b;
        }
        if (emitted_.size() > 6) bytes += "...";
        bytes.resize(20, ' ');
        output_.listing += head + bytes + line.raw + "\n";
      }
    }
    addr_ += static_cast<i64>(emitted_.size());
    return Status::ok();
  }

  Status define_symbol(const std::string& name, i64 value) {
    if (pass_ == 1) {
      if (symbols_.count(name)) {
        return Status(ErrorCode::kAlreadyExists, "duplicate symbol: " + name);
      }
      symbols_[name] = value;
    } else if (symbols_[name] != value) {
      // Phase error: an instruction changed size between passes.
      return Status(ErrorCode::kInternal,
                    "phase error on symbol '" + name + "'");
    }
    return Status::ok();
  }

  void ensure_chunk() {
    if (chunk_ != nullptr) return;
    u32 phys;
    if (xmem_mode_) {
      phys = static_cast<u32>(addr_);
    } else {
      auto r = board_logical_to_phys(static_cast<u32>(addr_));
      phys = r.ok() ? *r : static_cast<u32>(addr_);
    }
    output_.image.chunks.push_back(rabbit::ImageChunk{phys, {}});
    chunk_ = &output_.image.chunks.back();
  }

  // ----- operand parsing ---------------------------------------------------

  Result<ExprValue> eval(std::string_view text) {
    ExprParser p(text, symbols_, addr_);
    auto v = p.parse();
    if (!v.ok()) return v;
    if (pass_ == 2 && !v->resolved) {
      return Status(ErrorCode::kNotFound,
                    "unresolved symbol in '" + std::string(text) + "'");
    }
    return v;
  }

  // ----- emission ----------------------------------------------------------

  void emit(u8 b) { emitted_.push_back(b); }
  void emit16(i64 v) {
    emit(static_cast<u8>(v & 0xFF));
    emit(static_cast<u8>((v >> 8) & 0xFF));
  }

  /// jp/call/jr targets: xorg labels (physical, >0xFFFF) become window
  /// addresses automatically.
  i64 to_logical(i64 v) const {
    if (v > 0xFFFF) return 0xE000 + (v & 0x0FFF);
    return v;
  }

  Status need_operands(const Line& line, std::size_t n) {
    if (line.operands.size() != n) {
      return Status(ErrorCode::kInvalidArgument,
                    line.mnemonic + " expects " + std::to_string(n) +
                        " operand(s), got " +
                        std::to_string(line.operands.size()));
    }
    return Status::ok();
  }

  // ----- instructions: source operands matched against isa.h rows ----------

  /// What a row's operand templates bound while matching.
  struct Binding {
    unsigned opcode = 0;  // row opcode with the named field codes or'ed in
    std::string_view xy;  // "ix"/"iy" once an operand names one
    bool bind_xy(std::string_view name) {
      if (xy.empty()) xy = name;
      return xy == name;
    }
  };

  static bool match_operand(const Pattern& p, const Operand& o, Binding& b) {
    switch (p.kind) {
      case isa::Arg::kLit: return o.key == p.text;
      case isa::Arg::kField: {
        const isa::Field& f = *p.field;
        if (f.step != 0) return is_expr(o);  // numeric: read on emission
        for (unsigned code = 0; code <= f.mask; ++code) {
          if (((f.legal >> code) & 1) == 0) continue;
          const std::string_view name = f.names[code];
          const bool hit = name == "xy"
                               ? (o.key == "ix" || o.key == "iy") &&
                                     b.bind_xy(o.key)
                               : names_match(name, o.key);
          if (hit) {
            b.opcode |= code << f.shift;
            return true;
          }
        }
        return false;
      }
      case isa::Arg::kN:
      case isa::Arg::kNN:
      case isa::Arg::kMM:
      case isa::Arg::kE: return is_expr(o);
      case isa::Arg::kPort:
      case isa::Arg::kAddr: return is_memory(o);
      case isa::Arg::kIdx: {
        const std::string_view xy = index_of(o);
        return !xy.empty() && b.bind_xy(xy);
      }
      case isa::Arg::kXYInd:
        return (o.key == "(ix)" || o.key == "(iy)") &&
               b.bind_xy(std::string_view(o.key).substr(1, 2));
      case isa::Arg::kXY:
        return (o.key == "ix" || o.key == "iy") && b.bind_xy(o.key);
    }
    return false;
  }

  Status instruction(const Line& line) {
    const std::vector<Candidate>* rows = candidates(line.mnemonic);
    if (rows == nullptr) {
      return Status(ErrorCode::kInvalidArgument,
                    "unknown mnemonic: " + line.mnemonic);
    }
    std::vector<Operand> ops;
    if ((line.mnemonic == "lcall" || line.mnemonic == "ljp") &&
        line.operands.size() == 1) {
      // A physical label supplies both the window address and the bank.
      const std::string& target = line.operands[0];
      ops.push_back(classify("winof(" + target + ")"));
      ops.push_back(classify("xpcof(" + target + ")"));
    } else {
      for (const std::string& text : line.operands) {
        ops.push_back(classify(text));
      }
    }
    if (drops_accumulator(line.mnemonic, ops.size(),
                          ops.empty() ? "" : ops[0].key)) {
      ops.erase(ops.begin());
    }
    for (const Candidate& c : *rows) {
      if (c.count != ops.size()) continue;
      Binding b{c.insn->opcode, {}};
      bool ok = true;
      for (unsigned i = 0; ok && i < c.count; ++i) {
        ok = match_operand(c.ops[i], ops[i], b);
      }
      if (ok) return encode(c, ops, b);
    }
    std::string text = line.mnemonic;
    for (std::size_t i = 0; i < line.operands.size(); ++i) {
      text += (i == 0 ? " " : ", ") + line.operands[i];
    }
    return Status(ErrorCode::kInvalidArgument, "unsupported operands: " + text);
  }

  /// Emit a matched row: prefixes, opcode and operand bytes.
  Status encode(const Candidate& c, const std::vector<Operand>& ops,
                Binding b) {
    const isa::Insn& in = *c.insn;
    u8 args[3] = {};
    unsigned n = 0;
    for (unsigned i = 0; i < c.count; ++i) {
      const Operand& o = ops[i];
      const isa::Arg kind = c.ops[i].kind;
      if (kind == isa::Arg::kLit || kind == isa::Arg::kXY ||
          kind == isa::Arg::kXYInd ||
          (kind == isa::Arg::kField && c.ops[i].field->step == 0)) {
        continue;  // no operand byte, nothing to evaluate
      }
      std::string_view text = o.text;
      if (kind == isa::Arg::kPort || kind == isa::Arg::kAddr) text = o.inner();
      if (kind == isa::Arg::kIdx) text = trim(o.inner().substr(2));
      i64 v = 0;
      if (!text.empty()) {
        auto r = eval(text);
        if (!r.ok()) return r.status();
        v = r->value;
      }
      switch (kind) {
        case isa::Arg::kField: {
          const isa::Field& f = *c.ops[i].field;
          const i64 code = v / f.step;
          if (v % f.step != 0 || code < 0 || code > f.mask ||
              ((f.legal >> code) & 1) == 0) {
            return Status(ErrorCode::kOutOfRange,
                          "operand out of range: " + o.text);
          }
          b.opcode |= static_cast<unsigned>(code) << f.shift;
          break;
        }
        case isa::Arg::kMM: v = to_logical(v); [[fallthrough]];
        case isa::Arg::kNN:
        case isa::Arg::kAddr:
          args[n++] = static_cast<u8>(v & 0xFF);
          args[n++] = static_cast<u8>((v >> 8) & 0xFF);
          break;
        case isa::Arg::kE: {
          const i64 disp = to_logical(v) - (addr_ + in.len);
          if (pass_ == 2 && (disp < -128 || disp > 127)) {
            return Status(ErrorCode::kOutOfRange,
                          "relative target out of range (" +
                              std::to_string(disp) + ")");
          }
          args[n++] = static_cast<u8>(disp & 0xFF);
          break;
        }
        default:  // n, (n), (xy+d)
          args[n++] = static_cast<u8>(v & 0xFF);
          break;
      }
    }
    const u8 xy = b.xy == "iy" ? isa::kPrefixIY : isa::kPrefixIX;
    const u8 op = static_cast<u8>(b.opcode);
    switch (in.page) {
      case isa::Main: emit(op); break;
      case isa::CB: emit(isa::kPrefixCB); emit(op); break;
      case isa::ED: emit(isa::kPrefixED); emit(op); break;
      case isa::XY: emit(xy); emit(op); break;
      case isa::XYCB:  // the displacement precedes the opcode
        emit(xy);
        emit(isa::kPrefixCB);
        emit(args[0]);
        emit(op);
        return Status::ok();
      case isa::kPages: break;
    }
    for (unsigned i = 0; i < n; ++i) emit(args[i]);
    return Status::ok();
  }

  // ----- instruction dispatch ---------------------------------------------

  Status dispatch(const Line& line) {
    const std::string& m = line.mnemonic;

    // Directives.
    if (m == "org" || m == "xorg") {
      Status s = need_operands(line, 1);
      if (!s.is_ok()) return s;
      auto v = eval(line.operands[0]);
      if (!v.ok()) return v.status();
      addr_ = v->value;
      xmem_mode_ = (m == "xorg");
      if (!xmem_mode_) {
        auto p = board_logical_to_phys(static_cast<u32>(addr_));
        if (!p.ok()) return p.status();
      }
      chunk_ = nullptr;  // start a new chunk on next emission
      return Status::ok();
    }
    if (m == "equ") {
      if (line.label.empty()) {
        return Status(ErrorCode::kInvalidArgument, "equ requires a label");
      }
      Status s = need_operands(line, 1);
      if (!s.is_ok()) return s;
      auto v = eval(line.operands[0]);
      if (!v.ok()) return v.status();
      return define_symbol(lower(line.label), v->value);
    }
    if (m == "db" || m == "defb") {
      for (const auto& text : line.operands) {
        if (!text.empty() && text.front() == '"') {
          if (text.size() < 2 || text.back() != '"') {
            return Status(ErrorCode::kInvalidArgument, "unterminated string");
          }
          for (std::size_t i = 1; i + 1 < text.size(); ++i) {
            char c = text[i];
            if (c == '\\' && i + 2 < text.size()) {
              ++i;
              switch (text[i]) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case '0': c = '\0'; break;
                default: c = text[i]; break;
              }
            }
            emit(static_cast<u8>(c));
          }
        } else {
          auto v = eval(text);
          if (!v.ok()) return v.status();
          emit(static_cast<u8>(v->value & 0xFF));
        }
      }
      return Status::ok();
    }
    if (m == "dw" || m == "defw") {
      for (const auto& text : line.operands) {
        auto v = eval(text);
        if (!v.ok()) return v.status();
        emit16(v->value);
      }
      return Status::ok();
    }
    if (m == "ds" || m == "defs") {
      Status s = need_operands(line, 1);
      if (!s.is_ok()) return s;
      auto v = eval(line.operands[0]);
      if (!v.ok()) return v.status();
      if (v->value < 0 || v->value > 0x10000) {
        return Status(ErrorCode::kOutOfRange, "ds size out of range");
      }
      for (i64 i = 0; i < v->value; ++i) emit(0);
      return Status::ok();
    }
    if (m == "align") {
      Status s = need_operands(line, 1);
      if (!s.is_ok()) return s;
      auto v = eval(line.operands[0]);
      if (!v.ok()) return v.status();
      if (v->value <= 0) {
        return Status(ErrorCode::kInvalidArgument, "bad alignment");
      }
      while ((addr_ + static_cast<i64>(emitted_.size())) % v->value != 0) {
        emit(0);
      }
      return Status::ok();
    }
    if (m == "func") {
      // `func name[, name...]` — declare labels as function entry points.
      // Emits nothing; the names land in Image::functions (resolved against
      // the symbol table after pass 2) for cycle attribution.
      if (line.operands.empty()) {
        return Status(ErrorCode::kInvalidArgument,
                      "func requires at least one label name");
      }
      if (pass_ == 1) {
        for (const auto& text : line.operands) {
          functions_.push_back(lower(trim(text)));
        }
      }
      return Status::ok();
    }

    return instruction(line);
  }

  const AssembleOptions& options_;
  AssembleOutput output_;
  std::map<std::string, i64> symbols_;
  std::vector<std::string> functions_;  // func-declared, pass-1 order
  int pass_ = 1;
  i64 addr_ = 0;
  bool xmem_mode_ = false;
  rabbit::ImageChunk* chunk_ = nullptr;
  std::vector<u8> emitted_;
};

}  // namespace

Result<AssembleOutput> assemble(std::string_view source,
                                const AssembleOptions& options) {
  Assembler a(options);
  return a.assemble(source);
}

}  // namespace rmc::rasm
