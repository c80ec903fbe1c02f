#include "automata/gpvw.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "ltl/rewrite.hpp"
#include "util/diagnostics.hpp"

namespace speccc::automata {

namespace {

using ltl::Formula;
using ltl::Op;

/// Rewrite into the tableau core: NNF over literals with And/Or/X/U/R only.
Formula to_core(Formula f) {
  switch (f.op()) {
    case Op::kTrue:
    case Op::kFalse:
    case Op::kAp:
      return f;
    case Op::kNot:
      speccc_check(f.child(0).op() == Op::kAp, "to_core expects NNF input");
      return f;
    case Op::kAnd: {
      std::vector<Formula> cs;
      for (Formula c : f.children()) cs.push_back(to_core(c));
      return ltl::land(std::move(cs));
    }
    case Op::kOr: {
      std::vector<Formula> cs;
      for (Formula c : f.children()) cs.push_back(to_core(c));
      return ltl::lor(std::move(cs));
    }
    case Op::kNext:
      return ltl::next(to_core(f.child(0)));
    case Op::kEventually:
      return ltl::until(ltl::tru(), to_core(f.child(0)));
    case Op::kAlways:
      return ltl::release(ltl::fls(), to_core(f.child(0)));
    case Op::kUntil:
      return ltl::until(to_core(f.child(0)), to_core(f.child(1)));
    case Op::kRelease:
      return ltl::release(to_core(f.child(0)), to_core(f.child(1)));
    case Op::kWeakUntil: {
      const Formula a = to_core(f.child(0));
      const Formula b = to_core(f.child(1));
      return ltl::release(b, ltl::lor(a, b));
    }
    case Op::kImplies:
    case Op::kIff:
      speccc_check(false, "to_core expects NNF input (no ->, <->)");
      return f;
  }
  return f;
}

using FormulaSet = std::set<Formula>;

struct TNode {
  std::set<int> incoming;  // -1 denotes the virtual initial node
  FormulaSet news;
  FormulaSet olds;
  FormulaSet nexts;
};

class GpvwBuilder {
 public:
  GpvwBuilder(Formula phi, std::size_t max_nodes,
              const std::function<bool()>& cancelled)
      : phi_(phi),
        max_nodes_(max_nodes),
        // The tableau can burn exponential work in merged/discarded
        // branches without registering new nodes, so the give-up condition
        // also bounds processed work items, proportionally to the node cap
        // (saturating: a huge cap must not overflow into a zero budget).
        work_budget_(max_nodes > SIZE_MAX / 64 ? SIZE_MAX : max_nodes * 64),
        cancelled_(cancelled) {}

  std::optional<Buchi> run() {
    collect_untils(phi_);
    TNode start;
    start.incoming.insert(-1);
    start.news.insert(phi_);
    if (!expand(std::move(start))) return std::nullopt;
    return finish();
  }

 private:
  void collect_untils(Formula f) {
    if (f.op() == Op::kUntil) untils_.insert(f);
    for (Formula c : f.children()) collect_untils(c);
  }

  static bool is_literal(Formula f) {
    return f.op() == Op::kAp ||
           (f.op() == Op::kNot && f.child(0).op() == Op::kAp);
  }

  /// Iterative tableau expansion: the classic algorithm is recursive, but
  /// Next-chain formulas (X^n from timed requirements) would nest thousands
  /// of frames, so pending nodes live on an explicit worklist.
  [[nodiscard]] bool expand(TNode start) {
    std::vector<TNode> work;
    work.push_back(std::move(start));
    while (!work.empty()) {
      if (cancelled_ && cancelled_()) {
        throw util::CancelledError("tableau construction cancelled");
      }
      if (work_budget_ == 0) return false;
      --work_budget_;
      TNode node = std::move(work.back());
      work.pop_back();
      bool discarded = false;

      while (!discarded && !node.news.empty()) {
        const Formula eta = *node.news.begin();
        node.news.erase(node.news.begin());
        if (node.olds.count(eta) > 0) continue;

        switch (eta.op()) {
          case Op::kFalse:
            discarded = true;  // contradiction: drop this node
            break;
          case Op::kTrue:
            break;
          case Op::kAp:
          case Op::kNot: {
            speccc_check(is_literal(eta), "tableau core literals only");
            if (node.olds.count(ltl::lnot(eta)) > 0) {
              discarded = true;  // inconsistent literal set
            } else {
              node.olds.insert(eta);
            }
            break;
          }
          case Op::kAnd: {
            node.olds.insert(eta);
            for (Formula c : eta.children()) {
              if (node.olds.count(c) == 0) node.news.insert(c);
            }
            break;
          }
          case Op::kOr: {
            node.olds.insert(eta);
            // Continue with the first disjunct; queue the others.
            bool first = true;
            for (Formula c : eta.children()) {
              if (first) {
                first = false;
                continue;
              }
              TNode branch = node;
              if (branch.olds.count(c) == 0) branch.news.insert(c);
              work.push_back(std::move(branch));
            }
            const Formula head = eta.child(0);
            if (node.olds.count(head) == 0) node.news.insert(head);
            break;
          }
          case Op::kNext: {
            node.olds.insert(eta);
            node.nexts.insert(eta.child(0));
            break;
          }
          case Op::kUntil: {
            // mu U psi: either mu now and the Until next, or psi now.
            const Formula mu = eta.child(0);
            const Formula psi = eta.child(1);
            node.olds.insert(eta);
            TNode right = node;
            if (right.olds.count(psi) == 0) right.news.insert(psi);
            work.push_back(std::move(right));
            if (node.olds.count(mu) == 0) node.news.insert(mu);
            node.nexts.insert(eta);
            break;
          }
          case Op::kRelease: {
            // mu R psi: psi now, and either the Release next or mu now.
            const Formula mu = eta.child(0);
            const Formula psi = eta.child(1);
            node.olds.insert(eta);
            TNode right = node;
            if (right.olds.count(mu) == 0) right.news.insert(mu);
            if (right.olds.count(psi) == 0) right.news.insert(psi);
            work.push_back(std::move(right));
            if (node.olds.count(psi) == 0) node.news.insert(psi);
            node.nexts.insert(eta);
            break;
          }
          default:
            speccc_check(false, "unexpected operator in tableau core");
        }
      }
      if (discarded) continue;

      // Saturated: merge with an existing node or register a new one and
      // queue its temporal successor. The (olds, nexts) hash index
      // replaces the classic linear scan, which is quadratic overall and
      // dominated the construction beyond a few thousand nodes; buckets
      // hold node ids, so no set is ever copied for the index.
      const std::size_t hash = node_hash(node);
      std::vector<int>& bucket = node_index_[hash];
      bool merged = false;
      for (const int candidate : bucket) {
        TNode& existing = nodes_[static_cast<std::size_t>(candidate)];
        if (existing.olds == node.olds && existing.nexts == node.nexts) {
          existing.incoming.insert(node.incoming.begin(),
                                   node.incoming.end());
          merged = true;
          break;
        }
      }
      if (merged) continue;
      if (nodes_.size() >= max_nodes_) return false;
      const int id = static_cast<int>(nodes_.size());
      bucket.push_back(id);
      TNode next;
      next.incoming.insert(id);
      next.news = node.nexts;
      nodes_.push_back(std::move(node));
      work.push_back(std::move(next));
    }
    return true;
  }

  Cube label_of(const TNode& node) const {
    Cube cube;
    for (Formula f : node.olds) {
      if (f.op() == Op::kAp) cube.pos.insert(f.ap_name());
      if (f.op() == Op::kNot) cube.neg.insert(f.child(0).ap_name());
    }
    return cube;
  }

  Buchi finish() {
    // Generalized automaton: one acceptance set per Until subformula.
    const std::vector<Formula> untils(untils_.begin(), untils_.end());
    const std::size_t k = untils.size();
    const std::size_t n = nodes_.size();

    std::vector<std::vector<bool>> in_fset(std::max<std::size_t>(k, 1),
                                           std::vector<bool>(n, true));
    for (std::size_t u = 0; u < k; ++u) {
      const Formula until = untils[u];
      const Formula psi = until.child(1);
      for (std::size_t q = 0; q < n; ++q) {
        // F_u = { q : until not in olds(q) or psi in olds(q) }.
        in_fset[u][q] =
            nodes_[q].olds.count(until) == 0 || nodes_[q].olds.count(psi) > 0;
      }
    }

    // Collect the proposition alphabet.
    std::set<std::string> ap_set;
    for (const TNode& node : nodes_) {
      const Cube c = label_of(node);
      ap_set.insert(c.pos.begin(), c.pos.end());
      ap_set.insert(c.neg.begin(), c.neg.end());
    }

    Buchi out;
    out.aps.assign(ap_set.begin(), ap_set.end());

    if (k == 0) {
      // No Until: every infinite run accepts. States: virtual init + nodes.
      out.initial = 0;
      out.transitions.assign(n + 1, {});
      out.accepting.assign(n + 1, true);
      for (std::size_t q = 0; q < n; ++q) {
        const Cube label = label_of(nodes_[q]);
        for (int src : nodes_[q].incoming) {
          const std::size_t s = src == -1 ? 0 : static_cast<std::size_t>(src) + 1;
          out.transitions[s].push_back({label, static_cast<int>(q) + 1});
        }
      }
      return prune(out, cancelled_);
    }

    // Degeneralization (Baier-Katoen): states (q, i), i in [0, k);
    // move from (q, i) to (q', i') with i' = (i + 1) mod k if q in F_i,
    // else i; accepting = {(q, 0) : q in F_0}. Plus a virtual initial state.
    const auto pack = [k](std::size_t q, std::size_t i) {
      return static_cast<int>(q * k + i) + 1;  // 0 reserved for init
    };
    out.initial = 0;
    out.transitions.assign(n * k + 1, {});
    out.accepting.assign(n * k + 1, false);
    for (std::size_t q = 0; q < n; ++q) {
      out.accepting[static_cast<std::size_t>(pack(q, 0))] = in_fset[0][q];
    }
    for (std::size_t q = 0; q < n; ++q) {
      const Cube label = label_of(nodes_[q]);
      for (int src : nodes_[q].incoming) {
        if (src == -1) {
          // From the virtual initial state, counters start at 0.
          out.transitions[0].push_back({label, pack(q, 0)});
          continue;
        }
        const auto s = static_cast<std::size_t>(src);
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t ni = in_fset[i][s] ? (i + 1) % k : i;
          out.transitions[static_cast<std::size_t>(pack(s, i))].push_back(
              {label, pack(q, ni)});
        }
      }
    }
    return prune(out, cancelled_);
  }

  /// Order-sensitive FNV-style combination of the hash-consed formula
  /// hashes; olds/nexts are ordered sets, so equal node contents hash
  /// equally.
  static std::size_t node_hash(const TNode& node) {
    std::size_t h = 14695981039346656037ULL;
    for (const Formula f : node.olds) h = (h ^ f.hash()) * 1099511628211ULL;
    h = (h ^ 0x9e3779b97f4a7c15ULL) * 1099511628211ULL;  // section break
    for (const Formula f : node.nexts) h = (h ^ f.hash()) * 1099511628211ULL;
    return h;
  }

  Formula phi_;
  std::size_t max_nodes_;
  std::size_t work_budget_;
  const std::function<bool()>& cancelled_;
  std::set<Formula> untils_;
  std::vector<TNode> nodes_;
  std::unordered_map<std::size_t, std::vector<int>> node_index_;
};

}  // namespace

std::optional<Buchi> ltl_to_nbw_bounded(ltl::Formula f, std::size_t max_nodes,
                                        const std::function<bool()>& cancelled) {
  const Formula core = to_core(ltl::nnf(f));
  if (core.op() == Op::kFalse) {
    Buchi empty;
    empty.initial = 0;
    empty.transitions.emplace_back();
    empty.accepting.push_back(false);
    return empty;
  }
  return GpvwBuilder(core, max_nodes, cancelled).run();
}

Buchi ltl_to_nbw(ltl::Formula f, const std::function<bool()>& cancelled) {
  auto result = ltl_to_nbw_bounded(f, SIZE_MAX, cancelled);
  speccc_check(result.has_value(), "unbounded tableau cannot give up");
  return *std::move(result);
}

Buchi ucw_for(ltl::Formula f) { return ltl_to_nbw(ltl::lnot(f)); }

std::optional<Buchi> ucw_for_bounded(ltl::Formula f, std::size_t max_nodes,
                                     const std::function<bool()>& cancelled) {
  return ltl_to_nbw_bounded(ltl::lnot(f), max_nodes, cancelled);
}

}  // namespace speccc::automata
