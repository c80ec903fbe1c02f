// Linear temporal logic formulas (paper Section IV-A).
//
// Formulas are immutable, hash-consed DAG nodes: building the same formula
// twice yields the same node, so equality is a pointer comparison and
// structural sharing is automatic. Construction goes through the free
// factory functions (ap, lnot, land, always, ...) which perform only
// *neutral* normalizations (flattening of nested conjunctions/disjunctions,
// constant folding) so that the printed form of a translated requirement
// matches the paper's appendix.
//
// Interning: every factory probes one process-wide table with a borrowed
// view of the candidate node (operator, proposition name, child handles)
// and its hash. A hit -- the common case, since specs reuse subformulas --
// copies and allocates nothing; only a miss builds and stores a node.
// tru() and fls() are built once and returned from static handles. The
// table sits behind one mutex, so factories may be called from any number
// of threads at once; equal formulas built on different threads get the
// same node. Handles and nodes are immutable, so reading them needs no
// lock. id() is the creation index, so it depends on which thread got to a
// node first; hash() and length() do not.
//
// The grammar follows the paper:
//   phi ::= p | !phi | phi || phi | X phi | F phi | G phi | phi U phi
// extended with the derived operators &&, ->, <->, W (weak until) and R
// (release) that the translator and the synthesis engines use directly.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "util/digest.hpp"

namespace speccc::ltl {

enum class Op : std::uint8_t {
  kTrue,
  kFalse,
  kAp,        // atomic proposition
  kNot,
  kAnd,       // n-ary, order-preserving
  kOr,        // n-ary, order-preserving
  kImplies,   // binary
  kIff,       // binary
  kNext,      // X
  kEventually,  // F / "eventually"
  kAlways,      // G / "always"
  kUntil,       // U (strong)
  kWeakUntil,   // W
  kRelease,     // R
};

[[nodiscard]] const char* op_name(Op op);
[[nodiscard]] bool is_temporal(Op op);

class Formula;

namespace detail {
struct Node {
  Op op;
  std::string ap_name;          // only for kAp
  std::vector<Formula> children;
  std::uint64_t id = 0;         // stable creation index (total order)
  std::size_t hash = 0;
  std::size_t length = 1;       // node count of the DAG unfolded as a tree
};
}  // namespace detail

/// Lightweight immutable handle to a hash-consed formula node.
///
/// A default-constructed Formula is a null handle; all factory functions
/// return non-null handles. Nodes live for the duration of the process
/// (interned in a global arena), so handles are trivially copyable.
class Formula {
 public:
  Formula() = default;

  [[nodiscard]] bool is_null() const { return node_ == nullptr; }
  [[nodiscard]] Op op() const;
  [[nodiscard]] const std::string& ap_name() const;
  [[nodiscard]] const std::vector<Formula>& children() const;
  [[nodiscard]] Formula child(std::size_t i) const;
  [[nodiscard]] std::size_t arity() const;
  /// Number of operators/propositions when the DAG is unfolded as a tree.
  /// This is the "length of a formula" that Section VI reports G4LTL to be
  /// sensitive to.
  [[nodiscard]] std::size_t length() const;
  /// Stable total order (creation index); used for deterministic containers.
  [[nodiscard]] std::uint64_t id() const;

  friend bool operator==(Formula a, Formula b) { return a.node_ == b.node_; }
  friend bool operator!=(Formula a, Formula b) { return a.node_ != b.node_; }
  friend bool operator<(Formula a, Formula b) { return a.id() < b.id(); }

  [[nodiscard]] std::size_t hash() const;

  /// All atomic proposition names in the formula, sorted.
  [[nodiscard]] std::set<std::string> atoms() const;

  /// True if the formula contains no temporal operator.
  [[nodiscard]] bool is_propositional() const;

 private:
  friend class Arena;
  explicit Formula(const detail::Node* node) : node_(node) {}
  const detail::Node* node_ = nullptr;
};

// ---- Factory functions (the only way to build formulas) --------------------

[[nodiscard]] Formula tru();
[[nodiscard]] Formula fls();
[[nodiscard]] Formula ap(const std::string& name);
[[nodiscard]] Formula lnot(Formula f);
[[nodiscard]] Formula land(std::vector<Formula> fs);
[[nodiscard]] Formula land(Formula a, Formula b);
[[nodiscard]] Formula lor(std::vector<Formula> fs);
[[nodiscard]] Formula lor(Formula a, Formula b);
[[nodiscard]] Formula implies(Formula a, Formula b);
[[nodiscard]] Formula iff(Formula a, Formula b);
[[nodiscard]] Formula next(Formula f);
/// X^n f : n nested Next operators (paper Section IV-E time encoding).
[[nodiscard]] Formula next_n(Formula f, std::size_t n);
[[nodiscard]] Formula eventually(Formula f);
[[nodiscard]] Formula always(Formula f);
[[nodiscard]] Formula until(Formula a, Formula b);
[[nodiscard]] Formula weak_until(Formula a, Formula b);
[[nodiscard]] Formula release(Formula a, Formula b);

// ---- Canonical digest -------------------------------------------------------

/// Stable 128-bit structural digest of a formula: a pure function of the
/// operator tree (ops, proposition names, child order), independent of the
/// intern arena's creation order, the process, and the platform — unlike
/// id() (a creation index) and hash() (std::hash-seeded). Structurally
/// equal formulas always collide; structurally different formulas collide
/// with probability ~2^-128. This is the level-2 cache key of
/// cache/store.hpp: any artifact derived from a formula alone (tableau
/// satisfiability, an NBW, a synthesis verdict given a signature) may be
/// memoized under it.
[[nodiscard]] util::Digest canonical_digest(Formula f);

// ---- Printing ---------------------------------------------------------------

/// Printing style. kAscii is the canonical machine-readable form accepted by
/// parse(); kPaper mimics the appendix of the paper (□, ♦, ¬, →).
enum class Style { kAscii, kPaper };

[[nodiscard]] std::string to_string(Formula f, Style style = Style::kAscii);
std::ostream& operator<<(std::ostream& os, Formula f);

}  // namespace speccc::ltl

template <>
struct std::hash<speccc::ltl::Formula> {
  std::size_t operator()(speccc::ltl::Formula f) const noexcept {
    return f.is_null() ? 0 : f.hash();
  }
};
