// Reduced ordered binary decision diagrams with complement edges.
//
// This is the symbolic backbone of the scalable synthesis engine: Table I
// specifications have 20-30 input/output variables plus monitor state bits,
// far beyond explicit-alphabet game solving. The production layout follows
// the classic Brace/Rudell/Bryant design (and the packed-arena engine craft
// of ABC/ZZ):
//
//   * Complement edges. An edge is `(node_index << 1) | complement`, so
//     negation is O(1) and a function and its negation share one DAG. The
//     canonical-form invariant (enforced by `mk`) is that the stored *high*
//     arc of every node is regular; `check_canonical()` audits it.
//   * Flat packed node arena. Nodes are 12-byte POD entries in one vector
//     (no garbage collection: nodes live until the manager dies), found via
//     an open-addressing unique table instead of an `unordered_map`.
//   * Bounded, lossy computed cache. One power-of-two direct-mapped table
//     memoizes ITE, quantification, relational products, composition, and
//     cube cofactors across calls; collisions overwrite (never chain), so
//     long-running fixpoints stop growing without bound. `clear_caches()`
//     drops every memoized result (safe at any point between operations);
//     `stats()` reports hit/miss/eviction counters.
//   * Fused operators. `and_exists` (the relational product), the dual
//     `forall_implies`, and the one-call `preimage`
//     (vector_compose + constrain + quantify) avoid materializing the
//     intermediate conjunction the textbook three-pass formulation builds.
//
// Quantified variable sets and substitution vectors are interned, so a
// fixpoint that re-quantifies the same cube every iteration keys the
// computed cache on a small id and reuses results across iterations.
// Variable order is fixed at creation order.
//
// Threading rule (unchanged): a Manager is single-threaded by design; use
// one Manager per worker (see batch/batch.hpp).
//
// Edges: edge 0 is the true terminal, edge 1 its complement (false). A Bdd
// value is a (manager, edge) pair; all operations must stay within one
// manager.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/diagnostics.hpp"

namespace speccc::bdd {

class Manager;

/// Operation counters for benchmarks, batch reports, and tuning. All
/// counters are cumulative over the manager's lifetime (clear_caches()
/// empties the cache but keeps the counters).
struct Stats {
  std::size_t peak_nodes = 0;       ///< arena high-water mark (nodes are never freed)
  std::size_t unique_hits = 0;      ///< mk() calls answered from the unique table
  std::size_t cache_hits = 0;       ///< computed-cache hits
  std::size_t cache_misses = 0;     ///< computed-cache misses
  std::size_t cache_evictions = 0;  ///< live entries overwritten (lossy collisions)
};

/// A handle to a BDD edge. Cheap to copy; valid as long as its manager.
class Bdd {
 public:
  Bdd() = default;

  [[nodiscard]] bool is_null() const { return mgr_ == nullptr; }
  /// The raw edge: (node index << 1) | complement bit.
  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] Manager* manager() const { return mgr_; }

  [[nodiscard]] bool is_true() const { return index_ == 0 && mgr_ != nullptr; }
  [[nodiscard]] bool is_false() const { return index_ == 1 && mgr_ != nullptr; }
  [[nodiscard]] bool is_terminal() const { return index_ <= 1; }

  friend bool operator==(Bdd a, Bdd b) {
    return a.mgr_ == b.mgr_ && a.index_ == b.index_;
  }
  friend bool operator!=(Bdd a, Bdd b) { return !(a == b); }

  // Operator sugar; all delegate to the manager.
  [[nodiscard]] Bdd operator!() const;
  [[nodiscard]] Bdd operator&(Bdd other) const;
  [[nodiscard]] Bdd operator|(Bdd other) const;
  [[nodiscard]] Bdd operator^(Bdd other) const;

 private:
  friend class Manager;
  Bdd(Manager* mgr, std::uint32_t index) : mgr_(mgr), index_(index) {}
  Manager* mgr_ = nullptr;
  std::uint32_t index_ = 0;
};

class Manager {
 public:
  Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  [[nodiscard]] Bdd bdd_true() { return {this, kTrueEdge}; }
  [[nodiscard]] Bdd bdd_false() { return {this, kFalseEdge}; }

  /// Create a fresh variable (appended at the bottom of the order). Returns
  /// its index.
  int new_var();
  [[nodiscard]] int num_vars() const { return num_vars_; }

  /// The BDD for a single variable / its negation.
  [[nodiscard]] Bdd var(int v);
  [[nodiscard]] Bdd nvar(int v);
  /// Literal: variable v with the given polarity.
  [[nodiscard]] Bdd literal(int v, bool positive) {
    return positive ? var(v) : nvar(v);
  }
  /// Conjunction of literals (a minterm when every variable appears).
  [[nodiscard]] Bdd cube(const std::vector<std::pair<int, bool>>& literals);

  // Core operations (memoized in the shared computed cache). Negation is
  // O(1): it only flips the complement bit of the edge.
  [[nodiscard]] Bdd ite(Bdd f, Bdd g, Bdd h);
  [[nodiscard]] Bdd bdd_not(Bdd f) {
    speccc_check(f.manager() == this, "not across managers");
    return wrap(f.index() ^ 1u);
  }
  [[nodiscard]] Bdd bdd_and(Bdd f, Bdd g) { return ite(f, g, bdd_false()); }
  [[nodiscard]] Bdd bdd_or(Bdd f, Bdd g) { return ite(f, bdd_true(), g); }
  [[nodiscard]] Bdd bdd_xor(Bdd f, Bdd g) { return ite(f, bdd_not(g), g); }
  [[nodiscard]] Bdd implies(Bdd f, Bdd g) { return ite(f, g, bdd_true()); }
  [[nodiscard]] Bdd iff(Bdd f, Bdd g) { return bdd_not(bdd_xor(f, g)); }

  /// Existential quantification over a set of variables.
  [[nodiscard]] Bdd exists(Bdd f, const std::vector<int>& vars);
  /// Universal quantification over a set of variables (two O(1) negations
  /// around one exists pass).
  [[nodiscard]] Bdd forall(Bdd f, const std::vector<int>& vars);

  /// Fused relational product: exists vars. (f && g), without building the
  /// conjunction first. The workhorse of symbolic fixpoints.
  [[nodiscard]] Bdd and_exists(Bdd f, Bdd g, const std::vector<int>& vars);
  /// Dual fused form: forall vars. (f -> g) == !exists vars. (f && !g).
  [[nodiscard]] Bdd forall_implies(Bdd f, Bdd g, const std::vector<int>& vars);

  /// Cofactor f with variable v fixed to the given value.
  [[nodiscard]] Bdd restrict_var(Bdd f, int v, bool value);
  /// Cofactor by a conjunction of literals in one pass (each variable at
  /// most once). Much cheaper than conjoining the literals one by one.
  [[nodiscard]] Bdd cofactor(Bdd f, const std::vector<std::pair<int, bool>>& literals);

  /// Simultaneous substitution of variables by functions: every variable v
  /// in `map` (indexed by variable, null Bdd = identity) is replaced by
  /// map[v]. Used to compute S[state := delta(state, in, out)] in one pass.
  [[nodiscard]] Bdd vector_compose(Bdd f, const std::vector<Bdd>& map);

  /// One-call preimage: exists exist_vars. (constraint && target∘map).
  /// Substitutes `map` into `target` (one composition pass, reused across
  /// fixpoint iterations via the interned-substitution cache key) and feeds
  /// the result straight into the fused relational product -- the
  /// three-pass and/exists/compose pipeline collapsed into one call.
  [[nodiscard]] Bdd preimage(Bdd target, const std::vector<Bdd>& map,
                             Bdd constraint, const std::vector<int>& exist_vars);

  /// One satisfying assignment (minterm over the support of f), or empty if
  /// f is false. Pairs of (variable, value), sorted by variable. The choice
  /// is deterministic: at every node the high branch is taken iff it is
  /// satisfiable.
  [[nodiscard]] std::vector<std::pair<int, bool>> pick_model(Bdd f);
  /// One satisfying assignment consistent with `fixed` (each variable at
  /// most once), or empty if none. Decides satisfiability under the
  /// partial assignment in one linear pass with a per-call memo instead
  /// of materializing cofactor(f, fixed) -- the right tool when every
  /// call fixes a different configuration (strategy extraction), where
  /// interned cofactor cubes would never be reused. Deterministic: free
  /// variables take the high branch whenever it stays satisfiable.
  [[nodiscard]] std::vector<std::pair<int, bool>> pick_model(
      Bdd f, const std::vector<std::pair<int, bool>>& fixed);

  /// Evaluate f under a full assignment (indexed by variable).
  [[nodiscard]] bool evaluate(Bdd f, const std::vector<bool>& assignment);

  /// Number of satisfying assignments over the first `var_count` variables.
  [[nodiscard]] double sat_count(Bdd f, int var_count);

  /// Variables appearing in f, ascending.
  [[nodiscard]] std::vector<int> support(Bdd f);

  /// Number of live nodes (diagnostics / benchmarks).
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Number of nodes reachable from f (its size). Complement edges make
  /// size(f) == size(!f).
  [[nodiscard]] std::size_t size(Bdd f);

  /// Operation counters (see Stats). peak_nodes is filled on read.
  [[nodiscard]] Stats stats() const;
  /// Drop every memoized operation result. Safe between any two
  /// operations; the node arena, the unique table, and all existing Bdd
  /// handles stay valid. Call between batches to bound long-run memory.
  void clear_caches();

  /// Audit the complement-edge canonical form over the whole arena: every
  /// stored high arc is regular, no node has equal arcs, and children sit
  /// strictly below their parent in the variable order. Cheap enough for
  /// tests; returns false instead of asserting.
  [[nodiscard]] bool check_canonical() const;

 private:
  using Edge = std::uint32_t;
  static constexpr Edge kTrueEdge = 0;
  static constexpr Edge kFalseEdge = 1;

  static constexpr Edge edge_not(Edge e) { return e ^ 1u; }
  static constexpr std::uint32_t edge_node(Edge e) { return e >> 1; }
  static constexpr bool edge_complement(Edge e) { return (e & 1u) != 0; }
  static constexpr Edge make_edge(std::uint32_t node, bool complement) {
    return (node << 1) | (complement ? 1u : 0u);
  }

  /// Packed arena node. The high arc is always regular (canonical form).
  struct Node {
    std::int32_t var;
    Edge low;
    Edge high;
  };

  /// Computed-cache entry: operands + tag identify the operation. The tag
  /// packs the opcode in the low bits and the interned cube/substitution
  /// id in the high bits; tag 0 means empty.
  struct CacheEntry {
    Edge a = 0;
    Edge b = 0;
    Edge c = 0;
    std::uint32_t tag = 0;
    Edge result = 0;
  };

  enum Op : std::uint32_t {
    kOpIte = 1,
    kOpExists = 2,
    kOpAndExists = 3,
    kOpCompose = 4,
    kOpCofactor = 5,
  };
  static constexpr std::uint32_t op_tag(Op op, std::uint32_t id = 0) {
    return op | (id + 1) * 8u;  // ids shifted past the opcode bits, never 0
  }

  /// An interned set of quantified variables.
  struct CubeSet {
    std::vector<int> vars;      // sorted ascending
    std::vector<bool> member;   // indexed by variable
    int max_var = -1;
  };
  /// An interned substitution (resolved edge per variable).
  struct Substitution {
    std::vector<Edge> map;      // indexed by variable; identity = var edge
    int max_mapped_var = -1;    // highest variable with a non-identity image
  };
  /// An interned signed cube (cofactor literals).
  struct SignedCube {
    std::vector<std::pair<int, bool>> literals;  // sorted by variable
    int max_var = -1;
  };

  [[nodiscard]] std::int32_t var_of(Edge e) const {
    return nodes_[edge_node(e)].var;
  }
  [[nodiscard]] Edge arc(Edge e, bool high) const {
    const Node& n = nodes_[edge_node(e)];
    const Edge child = high ? n.high : n.low;
    return edge_complement(e) ? edge_not(child) : child;
  }
  [[nodiscard]] Bdd wrap(Edge e) { return {this, e}; }

  Edge mk(std::int32_t var, Edge low, Edge high);
  void grow_unique_table();

  [[nodiscard]] bool cache_lookup(Edge a, Edge b, Edge c, std::uint32_t tag,
                                  Edge& result);
  void cache_insert(Edge a, Edge b, Edge c, std::uint32_t tag, Edge result);
  void maybe_grow_cache();

  std::uint32_t intern_cube(const std::vector<int>& vars);
  std::uint32_t intern_substitution(const std::vector<Bdd>& map);
  std::uint32_t intern_signed_cube(
      const std::vector<std::pair<int, bool>>& literals);

  Edge ite_rec(Edge f, Edge g, Edge h);
  Edge and_rec(Edge f, Edge g) { return ite_rec(f, g, kFalseEdge); }
  Edge or_rec(Edge f, Edge g) { return ite_rec(f, kTrueEdge, g); }
  Edge exists_rec(Edge f, std::uint32_t cube_id);
  Edge and_exists_rec(Edge f, Edge g, std::uint32_t cube_id);
  Edge compose_rec(Edge f, std::uint32_t sub_id);
  Edge cofactor_rec(Edge f, std::uint32_t scube_id);

  int num_vars_ = 0;
  std::vector<Node> nodes_;

  // Open-addressing unique table over node indices (0 = empty slot; the
  // terminal node is never hashed).
  std::vector<std::uint32_t> unique_table_;
  std::size_t unique_mask_ = 0;
  std::size_t unique_used_ = 0;
  // Both tables start at 1024 entries: most managers solve one small game
  // (a stage-3 component), and zero-filling 4096-entry tables per manager
  // cost more than the few doublings a big game needs. At 256 the Table I
  // games paid for the extra doublings.
  static constexpr std::size_t kInitialUniqueSlots = 1u << 10;

  // Direct-mapped lossy computed cache; grows (rehashing live entries) up
  // to kMaxCacheEntries when the miss rate says it is too small.
  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_ = 0;
  std::size_t misses_at_last_resize_ = 0;
  static constexpr std::size_t kInitialCacheEntries = 1u << 10;
  static constexpr std::size_t kMaxCacheEntries = 1u << 20;

  // Interned operand registries (ids feed the computed-cache tags), each
  // with a content-hash index so repeated interning is O(contents), not
  // O(registry size).
  std::vector<CubeSet> cubes_;
  std::vector<Substitution> subs_;
  std::vector<SignedCube> signed_cubes_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cube_index_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> sub_index_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> signed_cube_index_;

  mutable Stats stats_;
};

}  // namespace speccc::bdd
