#include "circuit/qasm.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

namespace cloudqc {
namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  std::ostringstream os;
  os << "QASM parse error (line " << line << "): " << msg;
  throw QasmError(os.str());
}

/// Token-level scanner over one statement (already split on ';').
class Cursor {
 public:
  Cursor(std::string_view text, int line,
         const std::map<std::string, double>* vars = nullptr)
      : text_(text), line_(line), vars_(vars) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool done() {
    skip_ws();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(line_, std::string("expected '") + c + "' in '" +
                      std::string(text_) + "'");
    }
  }

  std::string ident() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (start == pos_) fail(line_, "expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  int integer() {
    skip_ws();
    std::size_t start = pos_;
    long long value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + (text_[pos_] - '0');
      if (value > std::numeric_limits<int>::max()) {
        fail(line_, "integer too large");
      }
      ++pos_;
    }
    if (start == pos_) fail(line_, "expected integer");
    return static_cast<int>(value);
  }

  int line() const { return line_; }
  std::string_view rest() const { return text_.substr(pos_); }
  void advance(std::size_t n) { pos_ += n; }

  // --- angle-expression evaluator (recursive descent) -------------------
  double expr() { return parse_add(); }

 private:
  double parse_add() {
    double v = parse_mul();
    while (true) {
      if (consume('+')) {
        v += parse_mul();
      } else if (consume('-')) {
        v -= parse_mul();
      } else {
        return v;
      }
    }
  }
  double parse_mul() {
    double v = parse_unary();
    while (true) {
      if (consume('*')) {
        v *= parse_unary();
      } else if (consume('/')) {
        v /= parse_unary();
      } else {
        return v;
      }
    }
  }
  double parse_unary() {
    // Every nesting level (parenthesis, sign, exponent, function call)
    // passes through here; the bound keeps hostile input off the stack.
    constexpr int kMaxDepth = 256;
    if (++depth_ > kMaxDepth) fail(line_, "expression nested too deeply");
    double v = 0.0;
    if (consume('-')) {
      v = -parse_unary();
    } else if (consume('+')) {
      v = parse_unary();
    } else {
      v = parse_pow();
    }
    --depth_;
    return v;
  }
  double parse_pow() {
    double base = parse_atom();
    if (consume('^')) return std::pow(base, parse_unary());
    return base;
  }
  double parse_atom() {
    skip_ws();
    if (consume('(')) {
      const double v = parse_add();
      expect(')');
      return v;
    }
    if (pos_ < text_.size() &&
        (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '.')) {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
               (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
      const std::string token(text_.substr(start, pos_ - start));
      char* end = nullptr;
      const double v = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) {
        fail(line_, "malformed number '" + token + "'");
      }
      return v;
    }
    // pi, a gate parameter, or a function call (sin/cos/tan/exp/ln/sqrt
    // per OpenQASM 2).
    const std::string id = ident();
    if (id == "pi") return M_PI;
    if (vars_ != nullptr) {
      const auto it = vars_->find(id);
      if (it != vars_->end()) return it->second;
    }
    if (consume('(')) {
      const double arg = parse_add();
      expect(')');
      if (id == "sin") return std::sin(arg);
      if (id == "cos") return std::cos(arg);
      if (id == "tan") return std::tan(arg);
      if (id == "exp") return std::exp(arg);
      if (id == "ln") return std::log(arg);
      if (id == "sqrt") return std::sqrt(arg);
      fail(line_, "unknown function '" + id + "'");
    }
    fail(line_, "unknown symbol '" + id + "' in expression");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
  const std::map<std::string, double>* vars_;
  int depth_ = 0;  // current parse_unary nesting
};

std::optional<GateKind> lookup_gate(const std::string& name) {
  static const std::map<std::string, GateKind> kMap = {
      {"h", GateKind::kH},     {"x", GateKind::kX},
      {"y", GateKind::kY},     {"z", GateKind::kZ},
      {"s", GateKind::kS},     {"sdg", GateKind::kSdg},
      {"t", GateKind::kT},     {"tdg", GateKind::kTdg},
      {"rx", GateKind::kRx},   {"ry", GateKind::kRy},
      {"rz", GateKind::kRz},   {"u1", GateKind::kU1},
      {"u2", GateKind::kU2},   {"u3", GateKind::kU3},
      {"u", GateKind::kU3},    {"p", GateKind::kU1},
      {"sx", GateKind::kSx},   {"cx", GateKind::kCx},
      {"CX", GateKind::kCx},   {"cz", GateKind::kCz},
      {"cp", GateKind::kCp},   {"cu1", GateKind::kCp},
      {"swap", GateKind::kSwap}, {"rzz", GateKind::kRzz},
      {"ryy", GateKind::kRyy}, {"rxx", GateKind::kRxx},
  };
  const auto it = kMap.find(name);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

struct Register {
  std::string name;
  int size = 0;
  int offset = 0;  // flat base index
};

/// One pre-split statement with its source line.
struct Stmt {
  std::string text;
  int line;
};

struct ParserState {
  std::vector<Register> qregs;
  // Custom gate definitions, inlined at application sites. Body statements
  // reference qargs/params by name.
  struct GateDef {
    std::vector<std::string> params;
    std::vector<std::string> qargs;
    std::vector<Stmt> body;
  };
  std::map<std::string, GateDef> gate_defs;

  const Register* find_qreg(const std::string& name) const {
    for (const auto& r : qregs) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }
};

/// One operand: a whole register (index = -1) or one element of it.
struct Operand {
  const Register* reg = nullptr;
  int index = -1;
};

/// Substitution environment while inlining a custom gate's body.
struct Subst {
  std::map<std::string, double> params;
  std::map<std::string, Operand> qargs;
};

Operand parse_operand(Cursor& cur, const ParserState& st,
                      const Subst* subst) {
  const std::string name = cur.ident();
  if (subst != nullptr) {
    const auto it = subst->qargs.find(name);
    if (it != subst->qargs.end()) return it->second;
  }
  const Register* reg = st.find_qreg(name);
  if (reg == nullptr) fail(cur.line(), "unknown register '" + name + "'");
  Operand op{reg, -1};
  if (cur.consume('[')) {
    op.index = cur.integer();
    cur.expect(']');
    if (op.index < 0 || op.index >= reg->size) {
      fail(cur.line(), "register index out of range");
    }
  }
  return op;
}

void apply_gate(Circuit& circ, GateKind kind, double param,
                const std::vector<Operand>& ops, int line) {
  const bool two = is_two_qubit(kind);
  const std::size_t arity = two ? 2 : 1;
  if (ops.size() != arity) fail(line, "wrong operand count for gate");

  // Broadcast semantics: any whole-register operand is expanded; all whole
  // registers in one statement must have the same length.
  int broadcast = -1;
  for (const auto& op : ops) {
    if (op.index < 0) {
      if (broadcast >= 0 && broadcast != op.reg->size) {
        fail(line, "mismatched register sizes in broadcast");
      }
      broadcast = op.reg->size;
    }
  }
  const int reps = broadcast < 0 ? 1 : broadcast;
  for (int r = 0; r < reps; ++r) {
    QubitId q[2] = {kNoQubit, kNoQubit};
    for (std::size_t i = 0; i < arity; ++i) {
      const int idx = ops[i].index < 0 ? r : ops[i].index;
      q[i] = static_cast<QubitId>(ops[i].reg->offset + idx);
    }
    if (two) {
      if (q[0] == q[1]) fail(line, "2-qubit gate needs distinct qubits");
      circ.add(Gate::two(kind, q[0], q[1], param));
    } else {
      circ.add(Gate::one(kind, q[0], param));
    }
  }
}

/// Statement executor shared by the top level and inlined gate bodies.
class Executor {
 public:
  Executor(ParserState& st, Circuit& circ) : st_(st), circ_(circ) {}

  void exec(const Stmt& s, const Subst* subst, int depth) {
    constexpr int kMaxInlineDepth = 16;
    if (depth > kMaxInlineDepth) {
      fail(s.line, "gate definitions nested too deeply (cycle?)");
    }
    const std::map<std::string, double>* vars =
        subst != nullptr ? &subst->params : nullptr;
    Cursor cur(s.text, s.line, vars);
    if (cur.done()) return;

    std::string head;
    try {
      head = cur.ident();
    } catch (const QasmError&) {
      return;  // stray '}' etc.
    }
    if (head == "barrier") return;  // synchronisation only in our model
    if (head == "if") {
      // `if (c==k) gate ...` — strip the condition, apply the gate (our
      // simulator has no classical values; the gate still occupies time).
      cur.expect('(');
      while (!cur.done() && cur.peek() != ')') cur.advance(1);
      cur.expect(')');
      head = cur.ident();
    }
    if (head == "measure") {
      const Operand q = parse_operand(cur, st_, subst);
      apply_gate(circ_, GateKind::kMeasure, 0.0, {q}, s.line);
      return;
    }
    if (head == "reset") {
      const Operand q = parse_operand(cur, st_, subst);
      apply_gate(circ_, GateKind::kReset, 0.0, {q}, s.line);
      return;
    }

    // Parenthesised parameters (builtin and custom gates alike).
    std::vector<double> params;
    if (cur.consume('(')) {
      if (cur.peek() != ')') {
        params.push_back(cur.expr());
        while (cur.consume(',')) params.push_back(cur.expr());
      }
      cur.expect(')');
    }
    // Overflowing literals and expressions such as 1/0 end up here.
    for (const double p : params) {
      if (!std::isfinite(p)) fail(s.line, "gate parameter is not finite");
    }
    std::vector<Operand> ops;
    ops.push_back(parse_operand(cur, st_, subst));
    while (cur.consume(',')) ops.push_back(parse_operand(cur, st_, subst));

    if (const auto kind = lookup_gate(head)) {
      // Latency modelling only needs the first angle (u2/u3 carry more).
      apply_gate(circ_, *kind, params.empty() ? 0.0 : params[0], ops, s.line);
      return;
    }

    // Custom gate: inline its body with substituted params/qargs.
    const auto def_it = st_.gate_defs.find(head);
    if (def_it == st_.gate_defs.end()) {
      fail(s.line, "unsupported gate '" + head + "'");
    }
    const ParserState::GateDef& def = def_it->second;
    if (params.size() != def.params.size()) {
      fail(s.line, "gate '" + head + "' expects " +
                       std::to_string(def.params.size()) + " parameter(s)");
    }
    if (ops.size() != def.qargs.size()) {
      fail(s.line, "gate '" + head + "' expects " +
                       std::to_string(def.qargs.size()) + " qubit(s)");
    }
    // Broadcast: any whole-register operand expands the application.
    int reps = 1;
    for (const auto& op : ops) {
      if (op.index < 0) {
        if (reps != 1 && reps != op.reg->size) {
          fail(s.line, "mismatched register sizes in broadcast");
        }
        reps = op.reg->size;
      }
    }
    for (int r = 0; r < reps; ++r) {
      Subst child;
      for (std::size_t i = 0; i < params.size(); ++i) {
        child.params[def.params[i]] = params[i];
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        Operand concrete = ops[i];
        if (concrete.index < 0) concrete.index = r;
        child.qargs[def.qargs[i]] = concrete;
      }
      for (const Stmt& body_stmt : def.body) {
        exec(body_stmt, &child, depth + 1);
      }
    }
  }

 private:
  ParserState& st_;
  Circuit& circ_;
};

/// Parse a `gate name(p, ...) a, b {` header (brace already attached).
ParserState::GateDef parse_gate_header(const Stmt& s, std::string* out_name) {
  std::string text = s.text;
  if (!text.empty() && text.back() == '{') text.pop_back();
  Cursor cur(text, s.line);
  cur.ident();  // "gate"
  *out_name = cur.ident();
  ParserState::GateDef def;
  if (cur.consume('(')) {
    if (cur.peek() != ')') {
      def.params.push_back(cur.ident());
      while (cur.consume(',')) def.params.push_back(cur.ident());
    }
    cur.expect(')');
  }
  def.qargs.push_back(cur.ident());
  while (cur.consume(',')) def.qargs.push_back(cur.ident());
  return def;
}

/// Strip comments and split `chunk` into ';'-terminated statements,
/// appending to `out`. Braces stay attached to their statement so the
/// gate-definition collector can track block structure. Line numbers count
/// within the chunk, starting at 1.
void split_statements(std::string_view chunk, std::vector<Stmt>& out) {
  std::string cur;
  int line = 1, stmt_line = 1;
  bool in_comment = false;
  bool seen_content = false;  // non-whitespace seen in current statement
  auto flush = [&](char terminator) {
    std::string text = std::move(cur);
    if (terminator == '{' || terminator == '}') text += terminator;
    out.push_back({std::move(text), stmt_line});
    cur.clear();
    seen_content = false;
  };
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const char c = chunk[i];
    if (c == '\n') {
      ++line;
      in_comment = false;
      cur += ' ';
      continue;
    }
    if (in_comment) continue;
    if (c == '/' && i + 1 < chunk.size() && chunk[i + 1] == '/') {
      in_comment = true;
      ++i;
      continue;
    }
    if (c == ';' || c == '{' || c == '}') {
      flush(c);
      continue;
    }
    if (!seen_content && !std::isspace(static_cast<unsigned char>(c))) {
      stmt_line = line;  // statement starts at its first real character
      seen_content = true;
    }
    cur += c;
  }
  if (seen_content) out.push_back({cur, stmt_line});
}

/// qelib1 gates that are not primitive in our IR, provided as macro
/// definitions and inlined like user-defined gates. Decompositions follow
/// qelib1.inc / Nielsen & Chuang.
constexpr std::string_view kQelibPrelude = R"(
gate ccx a, b, c {
  h c; cx b, c; tdg c; cx a, c; t c; cx b, c; tdg c; cx a, c;
  t b; t c; h c; cx a, b; t a; tdg b; cx a, b;
}
gate cswap a, b, c { cx c, b; ccx a, b, c; cx c, b; }
gate crz(t) a, b { rz(t/2) b; cx a, b; rz(-t/2) b; cx a, b; }
gate cry(t) a, b { ry(t/2) b; cx a, b; ry(-t/2) b; cx a, b; }
gate crx(t) a, b { h b; rz(t/2) b; cx a, b; rz(-t/2) b; cx a, b; h b; }
gate cy a, b { sdg b; cx a, b; s b; }
gate ch a, b { ry(pi/4) b; cx a, b; ry(-pi/4) b; }
gate cu3(t, p, l) a, b {
  rz((l+p)/2) a; rz((l-p)/2) b; cx a, b;
  u3(-t/2) b; cx a, b; u3(t/2) b;
}
gate rccx a, b, c {
  h c; t c; cx b, c; tdg c; cx a, c; t c; cx b, c; tdg c; h c;
}
gate csx a, b { h b; cp(pi/2) a, b; h b; }
)";

}  // namespace

Circuit parse_qasm(std::string_view source, std::string name) {
  // Strip comments, split into ';'-terminated statements while tracking
  // line numbers; '{'/'}' from gate definitions are handled inline. The
  // qelib prelude is split first so ccx/cswap/controlled-rotation macros
  // are always defined; user line numbers restart at 1 for their chunk.
  std::vector<Stmt> stmts;
  for (const std::string_view chunk : {kQelibPrelude, source}) {
    split_statements(chunk, stmts);
  }

  ParserState st;
  Circuit circ(std::move(name), 0);
  int total_qubits = 0;

  // First pass: qreg declarations (QASM requires decl-before-use, but we
  // are lenient and scan them all first so offsets are stable).
  for (const auto& s : stmts) {
    Cursor cur(s.text, s.line);
    if (cur.done()) continue;
    std::string head;
    try {
      head = cur.ident();
    } catch (const QasmError&) {
      continue;  // e.g. a bare '}' statement
    }
    if (head == "qreg") {
      Register r;
      r.name = cur.ident();
      cur.expect('[');
      r.size = cur.integer();
      cur.expect(']');
      if (r.size > std::numeric_limits<int>::max() - total_qubits) {
        fail(s.line, "too many qubits");
      }
      r.offset = total_qubits;
      total_qubits += r.size;
      st.qregs.push_back(r);
    }
  }
  circ = Circuit(circ.name(), static_cast<QubitId>(total_qubits));

  // Second pass: collect gate definitions and execute top-level gates.
  Executor executor(st, circ);
  bool collecting_def = false;
  std::string def_name;
  ParserState::GateDef def;
  for (const auto& s : stmts) {
    if (collecting_def) {
      // Body statements end with ';'; the lone '}' closes the definition.
      std::string trimmed = s.text;
      while (!trimmed.empty() &&
             std::isspace(static_cast<unsigned char>(trimmed.front()))) {
        trimmed.erase(trimmed.begin());
      }
      if (!trimmed.empty() && trimmed.back() == '}') {
        st.gate_defs[def_name] = std::move(def);
        def = {};
        collecting_def = false;
      } else if (!trimmed.empty()) {
        def.body.push_back({trimmed, s.line});
      }
      continue;
    }

    Cursor cur(s.text, s.line);
    if (cur.done()) continue;
    std::string head;
    try {
      head = cur.ident();
    } catch (const QasmError&) {
      continue;
    }
    if (head == "OPENQASM" || head == "include" || head == "creg" ||
        head == "qreg" || head == "opaque") {
      continue;
    }
    if (head == "gate") {
      def = parse_gate_header(s, &def_name);
      if (!s.text.empty() && s.text.back() == '{') {
        collecting_def = true;
      }
      continue;
    }
    executor.exec(s, nullptr, 0);
  }
  return circ;
}

Circuit parse_qasm_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw QasmError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string stem = path;
  if (const auto slash = stem.find_last_of('/'); slash != std::string::npos) {
    stem = stem.substr(slash + 1);
  }
  if (const auto dot = stem.find_last_of('.'); dot != std::string::npos) {
    stem = stem.substr(0, dot);
  }
  return parse_qasm(buf.str(), stem);
}

std::string to_qasm(const Circuit& c) {
  std::ostringstream os;
  os << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  os << "qreg q[" << c.num_qubits() << "];\n";
  os << "creg c[" << c.num_qubits() << "];\n";
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::kBarrier) {
      os << "barrier q;\n";
      continue;
    }
    if (g.kind == GateKind::kMeasure) {
      os << "measure q[" << g.qubits[0] << "] -> c[" << g.qubits[0] << "];\n";
      continue;
    }
    os << gate_name(g.kind);
    switch (g.kind) {
      case GateKind::kRx:
      case GateKind::kRy:
      case GateKind::kRz:
      case GateKind::kU1:
      case GateKind::kCp:
      case GateKind::kRzz:
      case GateKind::kRyy:
      case GateKind::kRxx: {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "(%.17g)", g.param);
        os << buf;
        break;
      }
      case GateKind::kU2:
        os << "(0,0)";
        break;
      case GateKind::kU3:
        os << "(0,0,0)";
        break;
      default:
        break;
    }
    os << " q[" << g.qubits[0] << "]";
    if (g.two_qubit()) os << ",q[" << g.qubits[1] << "]";
    os << ";\n";
  }
  return os.str();
}

}  // namespace cloudqc
