#include "ltl/formula.hpp"

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/diagnostics.hpp"

namespace speccc::ltl {

const char* op_name(Op op) {
  switch (op) {
    case Op::kTrue: return "true";
    case Op::kFalse: return "false";
    case Op::kAp: return "ap";
    case Op::kNot: return "not";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kImplies: return "implies";
    case Op::kIff: return "iff";
    case Op::kNext: return "next";
    case Op::kEventually: return "eventually";
    case Op::kAlways: return "always";
    case Op::kUntil: return "until";
    case Op::kWeakUntil: return "weak_until";
    case Op::kRelease: return "release";
  }
  return "?";
}

bool is_temporal(Op op) {
  switch (op) {
    case Op::kNext:
    case Op::kEventually:
    case Op::kAlways:
    case Op::kUntil:
    case Op::kWeakUntil:
    case Op::kRelease:
      return true;
    default:
      return false;
  }
}

namespace {

std::size_t combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

/// Process-wide intern arena. Nodes are kept alive for the lifetime of the
/// process; formulas are small and specifications are bounded, so this is a
/// deliberate leak-until-exit design (the arena is a Meyers singleton whose
/// destructor releases everything at shutdown).
///
/// The table holds the nodes themselves and is probed with a borrowed view
/// of the candidate (op, name, children) and its hash, computed before the
/// lock. A hit copies and allocates nothing; only a miss builds a node.
class Arena {
 public:
  static Arena& instance() {
    static Arena arena;
    return arena;
  }

  Formula intern(Op op, std::string_view ap_name,
                 std::span<const Formula> children) {
    std::size_t hash = combine(static_cast<std::size_t>(op),
                               std::hash<std::string_view>{}(ap_name));
    for (Formula c : children) {
      speccc_check(!c.is_null(), "child formula must not be null");
      hash = combine(hash, std::hash<const void*>{}(c.node_));
    }
    const Probe probe{op, ap_name, children, hash};

    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = table_.find(probe);
    if (it != table_.end()) return Formula(*it);

    auto node = std::make_unique<detail::Node>();
    node->op = op;
    node->ap_name = ap_name;
    node->children.assign(children.begin(), children.end());
    node->id = next_id_++;
    node->hash = hash;
    node->length = 1;
    for (Formula c : children) node->length += c.length();

    const detail::Node* raw = node.get();
    nodes_.push_back(std::move(node));
    table_.insert(raw);
    return Formula(raw);
  }

 private:
  /// A candidate node, borrowed from the caller, with its hash.
  struct Probe {
    Op op;
    std::string_view ap_name;
    std::span<const Formula> children;
    std::size_t hash;
  };
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(const detail::Node* n) const { return n->hash; }
    std::size_t operator()(const Probe& p) const { return p.hash; }
  };
  struct Equal {
    using is_transparent = void;
    bool operator()(const detail::Node* a, const detail::Node* b) const {
      return a == b;
    }
    bool operator()(const Probe& p, const detail::Node* n) const {
      return p.op == n->op && p.ap_name == n->ap_name &&
             std::equal(p.children.begin(), p.children.end(),
                        n->children.begin(), n->children.end());
    }
    bool operator()(const detail::Node* n, const Probe& p) const {
      return (*this)(p, n);
    }
  };

  Arena() = default;
  std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<std::unique_ptr<detail::Node>> nodes_;
  std::unordered_set<const detail::Node*, Hash, Equal> table_;
};

Op Formula::op() const {
  speccc_check(node_ != nullptr, "null formula");
  return node_->op;
}

const std::string& Formula::ap_name() const {
  speccc_check(node_ != nullptr && node_->op == Op::kAp,
               "ap_name on non-proposition");
  return node_->ap_name;
}

const std::vector<Formula>& Formula::children() const {
  speccc_check(node_ != nullptr, "null formula");
  return node_->children;
}

Formula Formula::child(std::size_t i) const {
  const auto& cs = children();
  speccc_check(i < cs.size(), "child index out of range");
  return cs[i];
}

std::size_t Formula::arity() const { return children().size(); }

std::size_t Formula::length() const {
  speccc_check(node_ != nullptr, "null formula");
  return node_->length;
}

std::uint64_t Formula::id() const {
  speccc_check(node_ != nullptr, "null formula");
  return node_->id;
}

std::size_t Formula::hash() const {
  speccc_check(node_ != nullptr, "null formula");
  return node_->hash;
}

std::set<std::string> Formula::atoms() const {
  std::set<std::string> out;
  std::vector<Formula> stack{*this};
  while (!stack.empty()) {
    Formula f = stack.back();
    stack.pop_back();
    if (f.op() == Op::kAp) {
      out.insert(f.ap_name());
    } else {
      for (Formula c : f.children()) stack.push_back(c);
    }
  }
  return out;
}

bool Formula::is_propositional() const {
  if (is_temporal(op())) return false;
  for (Formula c : children()) {
    if (!c.is_propositional()) return false;
  }
  return true;
}

// ---- Factories --------------------------------------------------------------

namespace {

/// An operator node over `children` with no proposition name.
Formula make(Op op, std::initializer_list<Formula> children) {
  return Arena::instance().intern(op, {}, {children.begin(), children.size()});
}

}  // namespace

Formula tru() {
  static const Formula t = make(Op::kTrue, {});
  return t;
}

Formula fls() {
  static const Formula f = make(Op::kFalse, {});
  return f;
}

Formula ap(const std::string& name) {
  speccc_check(!name.empty(), "proposition name must be non-empty");
  return Arena::instance().intern(Op::kAp, name, {});
}

Formula lnot(Formula f) {
  if (f.op() == Op::kTrue) return fls();
  if (f.op() == Op::kFalse) return tru();
  if (f.op() == Op::kNot) return f.child(0);  // double negation
  return make(Op::kNot, {f});
}

namespace {

/// Flatten nested n-ary nodes of the same op, fold constants.
/// `unit` is the neutral element, `zero` the absorbing element.
Formula nary(Op op, std::span<const Formula> fs, Formula unit, Formula zero) {
  std::vector<Formula> flat;
  flat.reserve(fs.size());
  // Flattened operands, exact duplicates dropped (first occurrence kept).
  const auto keep = [&flat](Formula f) {
    if (std::find(flat.begin(), flat.end(), f) == flat.end()) flat.push_back(f);
  };
  for (Formula f : fs) {
    speccc_check(!f.is_null(), "null operand");
    if (f == zero) return zero;
    if (f == unit) continue;
    if (f.op() == op) {
      for (Formula c : f.children()) keep(c);
    } else {
      keep(f);
    }
  }
  if (flat.empty()) return unit;
  if (flat.size() == 1) return flat.front();
  return Arena::instance().intern(op, {}, flat);
}

}  // namespace

Formula land(std::vector<Formula> fs) { return nary(Op::kAnd, fs, tru(), fls()); }
Formula land(Formula a, Formula b) {
  const Formula both[] = {a, b};
  return nary(Op::kAnd, both, tru(), fls());
}
Formula lor(std::vector<Formula> fs) { return nary(Op::kOr, fs, fls(), tru()); }
Formula lor(Formula a, Formula b) {
  const Formula both[] = {a, b};
  return nary(Op::kOr, both, fls(), tru());
}

Formula implies(Formula a, Formula b) {
  if (a.op() == Op::kTrue) return b;
  if (a.op() == Op::kFalse) return tru();
  if (b.op() == Op::kTrue) return tru();
  return make(Op::kImplies, {a, b});
}

Formula iff(Formula a, Formula b) {
  if (a == b) return tru();
  return make(Op::kIff, {a, b});
}

Formula next(Formula f) { return make(Op::kNext, {f}); }

Formula next_n(Formula f, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) f = next(f);
  return f;
}

Formula eventually(Formula f) {
  if (f.op() == Op::kEventually) return f;  // FF phi == F phi
  if (f.op() == Op::kTrue || f.op() == Op::kFalse) return f;
  return make(Op::kEventually, {f});
}

Formula always(Formula f) {
  if (f.op() == Op::kAlways) return f;  // GG phi == G phi
  if (f.op() == Op::kTrue || f.op() == Op::kFalse) return f;
  return make(Op::kAlways, {f});
}

Formula until(Formula a, Formula b) {
  if (b.op() == Op::kTrue || b.op() == Op::kFalse) return b;
  if (a.op() == Op::kFalse) return b;
  return make(Op::kUntil, {a, b});
}

Formula weak_until(Formula a, Formula b) {
  if (a.op() == Op::kTrue) return tru();
  if (b.op() == Op::kTrue) return tru();
  if (a.op() == Op::kFalse) return b;
  return make(Op::kWeakUntil, {a, b});
}

Formula release(Formula a, Formula b) {
  if (b.op() == Op::kTrue || b.op() == Op::kFalse) return b;
  if (a.op() == Op::kTrue) return b;
  return make(Op::kRelease, {a, b});
}

// ---- Canonical digest -------------------------------------------------------

util::Digest canonical_digest(Formula f) {
  speccc_check(!f.is_null(), "cannot digest a null formula");
  // Iterative post-order over the DAG with per-call memoization keyed by
  // the node id: sharing keeps the walk linear in distinct subformulas,
  // and deep Next chains (timed requirements reach hundreds of X's) never
  // touch the call stack.
  std::unordered_map<std::uint64_t, util::Digest> memo;
  std::vector<std::pair<Formula, bool>> stack{{f, false}};
  while (!stack.empty()) {
    auto [node, children_done] = stack.back();
    stack.pop_back();
    if (memo.count(node.id()) != 0) continue;
    if (!children_done) {
      stack.push_back({node, true});
      for (Formula c : node.children()) stack.push_back({c, false});
      continue;
    }
    util::DigestBuilder builder("ltl");
    builder.u64(static_cast<std::uint64_t>(node.op()));
    if (node.op() == Op::kAp) builder.str(node.ap_name());
    builder.u64(node.arity());
    for (Formula c : node.children()) builder.digest(memo.at(c.id()));
    memo.emplace(node.id(), builder.finalize());
  }
  return memo.at(f.id());
}

// ---- Printing ---------------------------------------------------------------

namespace {

struct Symbols {
  const char* tru;
  const char* fls;
  const char* nt;
  const char* an;
  const char* orr;
  const char* imp;
  const char* iff;
  const char* nxt;
  const char* ev;
  const char* alw;
  const char* until;
  const char* wuntil;
  const char* release;
};

constexpr Symbols kAsciiSyms{"true", "false", "!",  "&&", "||", "->",
                             "<->",  "X",     "F",  "G",  "U",  "W",
                             "R"};
constexpr Symbols kPaperSyms{"true", "false", "¬", "&&", "||",
                             "→", "↔", "X", "♦", "□",
                             "U", "W", "R"};

// Precedence, higher binds tighter.
int precedence(Op op) {
  switch (op) {
    case Op::kIff: return 1;
    case Op::kImplies: return 2;
    case Op::kUntil:
    case Op::kWeakUntil:
    case Op::kRelease: return 3;
    case Op::kOr: return 4;
    case Op::kAnd: return 5;
    default: return 6;  // unary and atoms
  }
}

void print(std::ostream& os, Formula f, const Symbols& sym, int parent_prec) {
  const int prec = precedence(f.op());
  const bool need_parens = prec < parent_prec;
  if (need_parens) os << '(';
  switch (f.op()) {
    case Op::kTrue: os << sym.tru; break;
    case Op::kFalse: os << sym.fls; break;
    case Op::kAp: os << f.ap_name(); break;
    case Op::kNot: {
      os << sym.nt;
      Formula c = f.child(0);
      const bool bare = c.arity() == 0 || c.op() == Op::kNot ||
                        c.op() == Op::kNext || c.op() == Op::kEventually ||
                        c.op() == Op::kAlways;
      if (bare) {
        print(os, c, sym, 0);
      } else {
        os << '(';
        print(os, c, sym, 0);
        os << ')';
      }
      break;
    }
    case Op::kAnd:
    case Op::kOr: {
      const char* s = f.op() == Op::kAnd ? sym.an : sym.orr;
      for (std::size_t i = 0; i < f.arity(); ++i) {
        if (i > 0) os << ' ' << s << ' ';
        print(os, f.child(i), sym, prec + 1);
      }
      break;
    }
    case Op::kImplies:
    case Op::kIff: {
      const char* s = f.op() == Op::kImplies ? sym.imp : sym.iff;
      print(os, f.child(0), sym, prec + 1);
      os << ' ' << s << ' ';
      print(os, f.child(1), sym, prec);  // right associative
      break;
    }
    case Op::kUntil:
    case Op::kWeakUntil:
    case Op::kRelease: {
      const char* s = f.op() == Op::kUntil     ? sym.until
                      : f.op() == Op::kWeakUntil ? sym.wuntil
                                                 : sym.release;
      print(os, f.child(0), sym, prec + 1);
      os << ' ' << s << ' ';
      print(os, f.child(1), sym, prec + 1);
      break;
    }
    case Op::kNext:
    case Op::kEventually:
    case Op::kAlways: {
      const char* s = f.op() == Op::kNext        ? sym.nxt
                      : f.op() == Op::kEventually ? sym.ev
                                                  : sym.alw;
      os << s << ' ';
      // Unary temporal operators parenthesize everything except atoms and
      // chained unary operators: "G (a -> b)", "X X c", "F !p".
      Formula c = f.child(0);
      const bool bare = c.arity() == 0 || c.op() == Op::kNot ||
                        c.op() == Op::kNext || c.op() == Op::kEventually ||
                        c.op() == Op::kAlways;
      if (bare) {
        print(os, c, sym, 0);
      } else {
        os << '(';
        print(os, c, sym, 0);
        os << ')';
      }
      break;
    }
  }
  if (need_parens) os << ')';
}

}  // namespace

std::string to_string(Formula f, Style style) {
  speccc_check(!f.is_null(), "cannot print a null formula");
  std::ostringstream os;
  print(os, f, style == Style::kAscii ? kAsciiSyms : kPaperSyms, 0);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, Formula f) {
  return os << to_string(f);
}

}  // namespace speccc::ltl
