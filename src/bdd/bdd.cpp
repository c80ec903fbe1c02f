#include "bdd/bdd.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

namespace speccc::bdd {

Bdd Bdd::operator!() const {
  speccc_check(mgr_ != nullptr, "operation on null Bdd");
  return mgr_->bdd_not(*this);
}
Bdd Bdd::operator&(Bdd other) const {
  speccc_check(mgr_ != nullptr && mgr_ == other.mgr_, "manager mismatch");
  return mgr_->bdd_and(*this, other);
}
Bdd Bdd::operator|(Bdd other) const {
  speccc_check(mgr_ != nullptr && mgr_ == other.mgr_, "manager mismatch");
  return mgr_->bdd_or(*this, other);
}
Bdd Bdd::operator^(Bdd other) const {
  speccc_check(mgr_ != nullptr && mgr_ == other.mgr_, "manager mismatch");
  return mgr_->bdd_xor(*this, other);
}

namespace {

constexpr std::int32_t kTerminalVar = 1 << 30;  // sorts after every real variable

/// splitmix64-style mixer; the multiplicative constants keep consecutive
/// node indices from clustering in the open-addressing tables.
constexpr std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = a * 0x9e3779b97f4a7c15ULL;
  h ^= b * 0xbf58476d1ce4e5b9ULL;
  h ^= c * 0x94d049bb133111ebULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

}  // namespace

Manager::Manager() {
  nodes_.push_back({kTerminalVar, 0, 0});  // node 0: the true terminal
  unique_table_.assign(kInitialUniqueSlots, 0);
  unique_mask_ = unique_table_.size() - 1;
  cache_.assign(kInitialCacheEntries, CacheEntry{});
  cache_mask_ = cache_.size() - 1;
}

int Manager::new_var() { return num_vars_++; }

// ---- Unique table / arena ---------------------------------------------------

void Manager::grow_unique_table() {
  std::vector<std::uint32_t> next(unique_table_.size() * 2, 0);
  const std::size_t mask = next.size() - 1;
  for (std::uint32_t index = 1; index < nodes_.size(); ++index) {
    const Node& n = nodes_[index];
    std::size_t slot = mix(static_cast<std::uint64_t>(n.var), n.low, n.high) & mask;
    while (next[slot] != 0) slot = (slot + 1) & mask;
    next[slot] = index;
  }
  unique_table_ = std::move(next);
  unique_mask_ = mask;
}

Manager::Edge Manager::mk(std::int32_t var, Edge low, Edge high) {
  if (low == high) return low;
  // Canonical form: the high arc is stored regular; a complemented high
  // arc is normalized by complementing both arcs and the resulting edge.
  bool complement_out = false;
  if (edge_complement(high)) {
    low = edge_not(low);
    high = edge_not(high);
    complement_out = true;
  }
  std::size_t slot = mix(static_cast<std::uint64_t>(var), low, high) & unique_mask_;
  while (true) {
    const std::uint32_t index = unique_table_[slot];
    if (index == 0) break;
    const Node& n = nodes_[index];
    if (n.var == var && n.low == low && n.high == high) {
      ++stats_.unique_hits;
      return make_edge(index, complement_out);
    }
    slot = (slot + 1) & unique_mask_;
  }
  nodes_.push_back({var, low, high});
  const auto index = static_cast<std::uint32_t>(nodes_.size() - 1);
  unique_table_[slot] = index;
  if (++unique_used_ * 10 >= unique_table_.size() * 7) grow_unique_table();
  return make_edge(index, complement_out);
}

Bdd Manager::var(int v) {
  speccc_check(v >= 0 && v < num_vars_, "unknown variable");
  return wrap(mk(v, kFalseEdge, kTrueEdge));
}

Bdd Manager::nvar(int v) {
  speccc_check(v >= 0 && v < num_vars_, "unknown variable");
  return wrap(edge_not(mk(v, kFalseEdge, kTrueEdge)));
}

Bdd Manager::cube(const std::vector<std::pair<int, bool>>& literals) {
  std::vector<std::pair<int, bool>> sorted = literals;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    // A repeated variable would stack two nodes on one level, silently
    // breaking the ordering invariant for the whole arena.
    speccc_check(sorted[i].first != sorted[i - 1].first,
                 "cube literal repeated");
  }
  Edge e = kTrueEdge;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    speccc_check(it->first >= 0 && it->first < num_vars_, "unknown variable");
    e = it->second ? mk(it->first, kFalseEdge, e) : mk(it->first, e, kFalseEdge);
  }
  return wrap(e);
}

// ---- Computed cache ---------------------------------------------------------

bool Manager::cache_lookup(Edge a, Edge b, Edge c, std::uint32_t tag,
                           Edge& result) {
  const CacheEntry& entry = cache_[mix(a, b, (static_cast<std::uint64_t>(tag) << 32) | c) & cache_mask_];
  if (entry.tag == tag && entry.a == a && entry.b == b && entry.c == c) {
    ++stats_.cache_hits;
    result = entry.result;
    return true;
  }
  ++stats_.cache_misses;
  return false;
}

void Manager::cache_insert(Edge a, Edge b, Edge c, std::uint32_t tag,
                           Edge result) {
  CacheEntry& entry = cache_[mix(a, b, (static_cast<std::uint64_t>(tag) << 32) | c) & cache_mask_];
  if (entry.tag != 0 &&
      (entry.tag != tag || entry.a != a || entry.b != b || entry.c != c)) {
    ++stats_.cache_evictions;
  }
  entry = {a, b, c, tag, result};
  maybe_grow_cache();
}

void Manager::maybe_grow_cache() {
  // Lossy and direct-mapped: double (rehashing the live entries) when the
  // miss count since the last resize exceeds twice the capacity, until the
  // hard bound. Past the bound the cache stays fixed -- old entries are
  // simply overwritten, so memory is bounded no matter how long the
  // manager lives.
  if (cache_.size() >= kMaxCacheEntries) return;
  if (stats_.cache_misses - misses_at_last_resize_ <= cache_.size() * 2) return;
  std::vector<CacheEntry> next(cache_.size() * 2);
  const std::size_t mask = next.size() - 1;
  for (const CacheEntry& entry : cache_) {
    if (entry.tag == 0) continue;
    next[mix(entry.a, entry.b,
             (static_cast<std::uint64_t>(entry.tag) << 32) | entry.c) & mask] = entry;
  }
  cache_ = std::move(next);
  cache_mask_ = mask;
  misses_at_last_resize_ = stats_.cache_misses;
}

void Manager::clear_caches() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  misses_at_last_resize_ = stats_.cache_misses;
}

Stats Manager::stats() const {
  Stats out = stats_;
  out.peak_nodes = nodes_.size();
  return out;
}

// ---- Interned operands ------------------------------------------------------

namespace {

template <typename Seq, typename Field>
std::uint64_t content_hash(const Seq& seq, Field&& field) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const auto& item : seq) {
    h = mix(h, static_cast<std::uint64_t>(field(item)), 0x13198a2e03707344ULL);
  }
  return h;
}

}  // namespace

std::uint32_t Manager::intern_cube(const std::vector<int>& vars) {
  std::vector<int> sorted = vars;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  auto& bucket = cube_index_[content_hash(
      sorted, [](int v) { return static_cast<std::uint64_t>(v); })];
  for (const std::uint32_t id : bucket) {
    if (cubes_[id].vars == sorted) return id;
  }
  CubeSet cube;
  cube.member.assign(static_cast<std::size_t>(num_vars_), false);
  for (const int v : sorted) {
    speccc_check(v >= 0 && v < num_vars_, "quantifying an unknown variable");
    cube.member[static_cast<std::size_t>(v)] = true;
  }
  cube.max_var = sorted.empty() ? -1 : sorted.back();
  cube.vars = std::move(sorted);
  cubes_.push_back(std::move(cube));
  const auto id = static_cast<std::uint32_t>(cubes_.size() - 1);
  bucket.push_back(id);
  return id;
}

std::uint32_t Manager::intern_substitution(const std::vector<Bdd>& map) {
  std::vector<Edge> resolved(static_cast<std::size_t>(num_vars_));
  int max_mapped = -1;
  for (int v = 0; v < num_vars_; ++v) {
    const Bdd& g = map[static_cast<std::size_t>(v)];
    if (g.is_null()) {
      resolved[static_cast<std::size_t>(v)] = mk(v, kFalseEdge, kTrueEdge);
    } else {
      speccc_check(g.manager() == this, "substitution across managers");
      resolved[static_cast<std::size_t>(v)] = g.index();
      if (resolved[static_cast<std::size_t>(v)] != mk(v, kFalseEdge, kTrueEdge)) {
        max_mapped = v;
      }
    }
  }
  auto& bucket = sub_index_[content_hash(
      resolved, [](Edge e) { return static_cast<std::uint64_t>(e); })];
  for (const std::uint32_t id : bucket) {
    if (subs_[id].map == resolved) return id;
  }
  subs_.push_back({std::move(resolved), max_mapped});
  const auto id = static_cast<std::uint32_t>(subs_.size() - 1);
  bucket.push_back(id);
  return id;
}

std::uint32_t Manager::intern_signed_cube(
    const std::vector<std::pair<int, bool>>& literals) {
  std::vector<std::pair<int, bool>> sorted = literals;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    speccc_check(sorted[i].first != sorted[i - 1].first,
                 "cofactor literal repeated");
  }
  auto& bucket = signed_cube_index_[content_hash(sorted, [](const std::pair<int, bool>& lit) {
    return (static_cast<std::uint64_t>(lit.first) << 1) | (lit.second ? 1u : 0u);
  })];
  for (const std::uint32_t id : bucket) {
    if (signed_cubes_[id].literals == sorted) return id;
  }
  for (const auto& [v, value] : sorted) {
    (void)value;
    speccc_check(v >= 0 && v < num_vars_, "cofactor on an unknown variable");
  }
  SignedCube scube;
  scube.max_var = sorted.empty() ? -1 : sorted.back().first;
  scube.literals = std::move(sorted);
  signed_cubes_.push_back(std::move(scube));
  const auto id = static_cast<std::uint32_t>(signed_cubes_.size() - 1);
  bucket.push_back(id);
  return id;
}

// ---- ITE --------------------------------------------------------------------

Manager::Edge Manager::ite_rec(Edge f, Edge g, Edge h) {
  // Terminal and absorption cases.
  if (f == kTrueEdge) return g;
  if (f == kFalseEdge) return h;
  if (g == h) return g;
  if (g == f) g = kTrueEdge;
  else if (g == edge_not(f)) g = kFalseEdge;
  if (h == f) h = kFalseEdge;
  else if (h == edge_not(f)) h = kTrueEdge;
  if (g == kTrueEdge && h == kFalseEdge) return f;
  if (g == kFalseEdge && h == kTrueEdge) return edge_not(f);
  if (g == h) return g;

  // Standard-triple normalization (Brace/Rudell/Bryant): exploit the
  // symmetry of AND/OR forms so equivalent calls share one cache entry.
  if (g == kTrueEdge) {           // f || h
    if (h < f) std::swap(f, h);
  } else if (h == kFalseEdge) {   // f && g
    if (g < f) std::swap(f, g);
  } else if (h == kTrueEdge) {    // ite(f, g, 1) == ite(!g, !f, 1)
    if (edge_not(g) < f) {
      const Edge nf = edge_not(f);
      f = edge_not(g);
      g = nf;
    }
  } else if (g == kFalseEdge) {   // ite(f, 0, h) == ite(!h, 0, !f)
    if (edge_not(h) < f) {
      const Edge nf = edge_not(f);
      f = edge_not(h);
      h = nf;
    }
  }
  // The tested edge and the then-edge are kept regular; complements move
  // into the other operands / the result.
  if (edge_complement(f)) {
    f = edge_not(f);
    std::swap(g, h);
  }
  bool negate_out = false;
  if (edge_complement(g)) {
    g = edge_not(g);
    h = edge_not(h);
    negate_out = true;
  }

  Edge result;
  const std::uint32_t tag = op_tag(kOpIte);
  if (cache_lookup(f, g, h, tag, result)) {
    return negate_out ? edge_not(result) : result;
  }

  const std::int32_t top = std::min({var_of(f), var_of(g), var_of(h)});
  const auto cof = [&](Edge e, bool high) {
    return var_of(e) == top ? arc(e, high) : e;
  };
  const Edge t = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  const Edge e = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  result = t == e ? t : mk(top, e, t);
  cache_insert(f, g, h, tag, result);
  return negate_out ? edge_not(result) : result;
}

Bdd Manager::ite(Bdd f, Bdd g, Bdd h) {
  speccc_check(f.manager() == this && g.manager() == this && h.manager() == this,
               "ite across managers");
  return wrap(ite_rec(f.index(), g.index(), h.index()));
}

// ---- Quantification ---------------------------------------------------------

Manager::Edge Manager::exists_rec(Edge f, std::uint32_t cube_id) {
  if (edge_node(f) == 0) return f;
  const CubeSet& cube = cubes_[cube_id];
  const std::int32_t v = var_of(f);
  // Variables are ordered; once every quantified variable is above v,
  // nothing below can mention them.
  if (v > cube.max_var) return f;

  Edge result;
  const std::uint32_t tag = op_tag(kOpExists, cube_id);
  if (cache_lookup(f, 0, 0, tag, result)) return result;

  const Edge lo = exists_rec(arc(f, false), cube_id);
  if (cube.member[static_cast<std::size_t>(v)]) {
    // Early termination: lo || hi is true as soon as one side is.
    result = lo == kTrueEdge ? kTrueEdge
                             : or_rec(lo, exists_rec(arc(f, true), cube_id));
  } else {
    const Edge hi = exists_rec(arc(f, true), cube_id);
    result = lo == hi ? lo : mk(v, lo, hi);
  }
  cache_insert(f, 0, 0, tag, result);
  return result;
}

Bdd Manager::exists(Bdd f, const std::vector<int>& vars) {
  speccc_check(f.manager() == this, "exists across managers");
  if (vars.empty() || f.is_terminal()) return f;
  return wrap(exists_rec(f.index(), intern_cube(vars)));
}

Bdd Manager::forall(Bdd f, const std::vector<int>& vars) {
  return bdd_not(exists(bdd_not(f), vars));
}

Manager::Edge Manager::and_exists_rec(Edge f, Edge g, std::uint32_t cube_id) {
  // Terminal cases of the conjunction.
  if (f == kFalseEdge || g == kFalseEdge) return kFalseEdge;
  if (f == edge_not(g)) return kFalseEdge;
  if (f == kTrueEdge) return exists_rec(g, cube_id);
  if (g == kTrueEdge || f == g) return exists_rec(f, cube_id);
  if (g < f) std::swap(f, g);  // commutative: canonical operand order

  const CubeSet& cube = cubes_[cube_id];
  const std::int32_t top = std::min(var_of(f), var_of(g));
  // No quantified variable at or below the top: plain conjunction.
  if (top > cube.max_var) return and_rec(f, g);

  Edge result;
  const std::uint32_t tag = op_tag(kOpAndExists, cube_id);
  if (cache_lookup(f, g, 0, tag, result)) return result;

  const auto cof = [&](Edge e, bool high) {
    return var_of(e) == top ? arc(e, high) : e;
  };
  if (cube.member[static_cast<std::size_t>(top)]) {
    const Edge t = and_exists_rec(cof(f, true), cof(g, true), cube_id);
    // Early termination mirrors exists_rec: true absorbs the disjunction.
    result = t == kTrueEdge
                 ? kTrueEdge
                 : or_rec(t, and_exists_rec(cof(f, false), cof(g, false), cube_id));
  } else {
    const Edge t = and_exists_rec(cof(f, true), cof(g, true), cube_id);
    const Edge e = and_exists_rec(cof(f, false), cof(g, false), cube_id);
    result = t == e ? t : mk(top, e, t);
  }
  cache_insert(f, g, 0, tag, result);
  return result;
}

Bdd Manager::and_exists(Bdd f, Bdd g, const std::vector<int>& vars) {
  speccc_check(f.manager() == this && g.manager() == this,
               "and_exists across managers");
  if (vars.empty()) return bdd_and(f, g);
  return wrap(and_exists_rec(f.index(), g.index(), intern_cube(vars)));
}

Bdd Manager::forall_implies(Bdd f, Bdd g, const std::vector<int>& vars) {
  // forall vars. (f -> g) == !exists vars. (f && !g); both negations are
  // free under complement edges, so this is one fused pass.
  return bdd_not(and_exists(f, bdd_not(g), vars));
}

// ---- Composition / cofactors ------------------------------------------------

Manager::Edge Manager::compose_rec(Edge f, std::uint32_t sub_id) {
  if (edge_node(f) == 0) return f;
  const Substitution& sub = subs_[sub_id];
  const std::int32_t v = var_of(f);
  // Below the last substituted variable every node maps to itself.
  if (v > sub.max_mapped_var) return f;

  Edge result;
  const std::uint32_t tag = op_tag(kOpCompose, sub_id);
  if (cache_lookup(f, 0, 0, tag, result)) return result;

  const Edge lo = compose_rec(arc(f, false), sub_id);
  const Edge hi = compose_rec(arc(f, true), sub_id);
  // Rebuild with ite: the substituted arcs may now contain variables above
  // v, so mk alone would break the ordering invariant.
  result = ite_rec(sub.map[static_cast<std::size_t>(v)], hi, lo);
  cache_insert(f, 0, 0, tag, result);
  return result;
}

Bdd Manager::vector_compose(Bdd f, const std::vector<Bdd>& map) {
  speccc_check(f.manager() == this, "compose across managers");
  speccc_check(map.size() == static_cast<std::size_t>(num_vars_),
               "compose map must cover all variables");
  return wrap(compose_rec(f.index(), intern_substitution(map)));
}

Bdd Manager::preimage(Bdd target, const std::vector<Bdd>& map, Bdd constraint,
                      const std::vector<int>& exist_vars) {
  speccc_check(target.manager() == this && constraint.manager() == this,
               "preimage across managers");
  speccc_check(map.size() == static_cast<std::size_t>(num_vars_),
               "preimage map must cover all variables");
  const Edge composed = compose_rec(target.index(), intern_substitution(map));
  if (exist_vars.empty()) return wrap(and_rec(constraint.index(), composed));
  return wrap(
      and_exists_rec(constraint.index(), composed, intern_cube(exist_vars)));
}

Manager::Edge Manager::cofactor_rec(Edge f, std::uint32_t scube_id) {
  if (edge_node(f) == 0) return f;
  const SignedCube& scube = signed_cubes_[scube_id];
  const std::int32_t v = var_of(f);
  if (v > scube.max_var) return f;

  Edge result;
  const std::uint32_t tag = op_tag(kOpCofactor, scube_id);
  if (cache_lookup(f, 0, 0, tag, result)) return result;

  const auto it = std::lower_bound(
      scube.literals.begin(), scube.literals.end(), v,
      [](const std::pair<int, bool>& lit, std::int32_t value) {
        return lit.first < value;
      });
  if (it != scube.literals.end() && it->first == v) {
    result = cofactor_rec(arc(f, it->second), scube_id);
  } else {
    const Edge lo = cofactor_rec(arc(f, false), scube_id);
    const Edge hi = cofactor_rec(arc(f, true), scube_id);
    result = lo == hi ? lo : mk(v, lo, hi);
  }
  cache_insert(f, 0, 0, tag, result);
  return result;
}

Bdd Manager::cofactor(Bdd f,
                      const std::vector<std::pair<int, bool>>& literals) {
  speccc_check(f.manager() == this, "cofactor across managers");
  if (literals.empty() || f.is_terminal()) return f;
  return wrap(cofactor_rec(f.index(), intern_signed_cube(literals)));
}

Bdd Manager::restrict_var(Bdd f, int v, bool value) {
  return cofactor(f, {{v, value}});
}

// ---- Model queries ----------------------------------------------------------

std::vector<std::pair<int, bool>> Manager::pick_model(Bdd f) {
  speccc_check(f.manager() == this, "pick_model across managers");
  std::vector<std::pair<int, bool>> out;
  Edge e = f.index();
  if (e == kFalseEdge) return {};
  while (edge_node(e) != 0) {
    // Every edge other than constant-false is satisfiable in a reduced
    // diagram, so a greedy descent never backtracks: prefer the high arc
    // whenever it is not the false edge.
    const Edge hi = arc(e, true);
    if (hi != kFalseEdge) {
      out.emplace_back(var_of(e), true);
      e = hi;
    } else {
      out.emplace_back(var_of(e), false);
      e = arc(e, false);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<int, bool>> Manager::pick_model(
    Bdd f, const std::vector<std::pair<int, bool>>& fixed) {
  speccc_check(f.manager() == this, "pick_model across managers");
  std::vector<signed char> value(static_cast<std::size_t>(num_vars_), -1);
  for (const auto& [v, val] : fixed) {
    speccc_check(v >= 0 && v < num_vars_, "fixing an unknown variable");
    speccc_check(value[static_cast<std::size_t>(v)] == -1,
                 "pick_model literal repeated");
    value[static_cast<std::size_t>(v)] = val ? 1 : 0;
  }
  // Satisfiability under the partial assignment, memoized per edge: the
  // greedy model walk below never backtracks because it only enters
  // branches this oracle has already proven satisfiable.
  std::unordered_map<Edge, bool> sat_memo;
  const std::function<bool(Edge)> sat = [&](Edge e) -> bool {
    if (edge_node(e) == 0) return e == kTrueEdge;
    const auto it = sat_memo.find(e);
    if (it != sat_memo.end()) return it->second;
    const signed char fix = value[static_cast<std::size_t>(var_of(e))];
    bool ok;
    if (fix >= 0) {
      ok = sat(arc(e, fix == 1));
    } else {
      ok = sat(arc(e, true)) || sat(arc(e, false));
    }
    sat_memo.emplace(e, ok);
    return ok;
  };
  if (!sat(f.index())) return {};

  std::vector<std::pair<int, bool>> out;
  Edge e = f.index();
  while (edge_node(e) != 0) {
    const std::int32_t v = var_of(e);
    const signed char fix = value[static_cast<std::size_t>(v)];
    bool take_high;
    if (fix >= 0) {
      take_high = fix == 1;
    } else {
      // Same deterministic rule as the unconstrained pick_model: high
      // whenever it stays satisfiable.
      take_high = sat(arc(e, true));
    }
    out.emplace_back(v, take_high);
    e = arc(e, take_high);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Manager::evaluate(Bdd f, const std::vector<bool>& assignment) {
  speccc_check(f.manager() == this, "evaluate across managers");
  Edge e = f.index();
  while (edge_node(e) != 0) {
    const std::int32_t v = var_of(e);
    speccc_check(static_cast<std::size_t>(v) < assignment.size(),
                 "assignment does not cover variable");
    e = arc(e, assignment[static_cast<std::size_t>(v)]);
  }
  return e == kTrueEdge;
}

double Manager::sat_count(Bdd f, int var_count) {
  speccc_check(f.manager() == this, "sat_count across managers");
  // Satisfaction probability per regular node; complements are 1 - p at
  // the edge level, which complement edges make exact and gap-free.
  std::unordered_map<std::uint32_t, double> prob;
  const std::function<double(Edge)> pe = [&](Edge e) -> double {
    if (edge_node(e) == 0) return edge_complement(e) ? 0.0 : 1.0;
    double p;
    const auto it = prob.find(edge_node(e));
    if (it != prob.end()) {
      p = it->second;
    } else {
      const Node& n = nodes_[edge_node(e)];
      p = 0.5 * pe(n.low) + 0.5 * pe(n.high);
      prob.emplace(edge_node(e), p);
    }
    return edge_complement(e) ? 1.0 - p : p;
  };
  double scale = 1.0;
  for (int i = 0; i < var_count; ++i) scale *= 2.0;
  return pe(f.index()) * scale;
}

std::vector<int> Manager::support(Bdd f) {
  speccc_check(f.manager() == this, "support across managers");
  std::vector<bool> seen_node(nodes_.size(), false);
  std::vector<bool> in_support(static_cast<std::size_t>(num_vars_), false);
  std::vector<Edge> stack{f.index()};
  while (!stack.empty()) {
    const std::uint32_t n = edge_node(stack.back());
    stack.pop_back();
    if (n == 0 || seen_node[n]) continue;
    seen_node[n] = true;
    in_support[static_cast<std::size_t>(nodes_[n].var)] = true;
    stack.push_back(nodes_[n].low);
    stack.push_back(nodes_[n].high);
  }
  std::vector<int> out;
  for (int v = 0; v < num_vars_; ++v) {
    if (in_support[static_cast<std::size_t>(v)]) out.push_back(v);
  }
  return out;
}

std::size_t Manager::size(Bdd f) {
  speccc_check(f.manager() == this, "size across managers");
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<Edge> stack{f.index()};
  std::size_t count = 0;
  while (!stack.empty()) {
    const std::uint32_t n = edge_node(stack.back());
    stack.pop_back();
    if (n == 0 || seen[n]) continue;
    seen[n] = true;
    ++count;
    stack.push_back(nodes_[n].low);
    stack.push_back(nodes_[n].high);
  }
  return count;
}

bool Manager::check_canonical() const {
  for (std::uint32_t index = 1; index < nodes_.size(); ++index) {
    const Node& n = nodes_[index];
    if (edge_complement(n.high)) return false;           // high arc regular
    if (n.low == n.high) return false;                   // reduced
    if (n.var < 0 || n.var >= num_vars_) return false;   // real variable
    if (var_of(n.low) <= n.var || var_of(n.high) <= n.var) {
      return false;                                      // ordered
    }
  }
  return true;
}

}  // namespace speccc::bdd
