#include "synth/monitors.hpp"

#include <algorithm>

#include "util/diagnostics.hpp"

namespace speccc::synth {

namespace {

using ltl::Formula;
using ltl::Op;
using ltl::PatternInstance;
using ltl::PatternKind;

class Compiler;
bdd::Bdd prop_to_bdd(bdd::Manager& mgr, Compiler& compiler, Formula f);

class Compiler {
 public:
  Compiler(bdd::Manager& mgr, const IoSignature& signature)
      : mgr_(mgr), signature_(signature) {
    spec_.game.manager = &mgr_;
    spec_.game.safe = mgr_.bdd_true();
    // Proposition variables are allocated lazily, in first-use order: for
    // conjunctions of per-requirement monitors this keeps each requirement's
    // propositions adjacent in the BDD order, which is the difference
    // between linear- and exponential-sized safety constraints
    // (G (a1 -> b1) && G (a2 -> b2) && ... is linear when interleaved
    // a1 b1 a2 b2 and exponential when grouped a1 a2 ... b1 b2 ...).
  }

  bool add(const PatternInstance& p, std::size_t origin) {
    switch (p.kind) {
      case PatternKind::kInvariant:
        spec_.game.safe =
            mgr_.bdd_and(spec_.game.safe, prop(p.guard));
        return true;
      case PatternKind::kImplication:
        add_implication(prop(p.guard), prop(p.consequent), p.delay);
        return true;
      case PatternKind::kGuardDelayed:
        add_guard_delayed(prop(p.guard), prop(p.consequent), p.delay);
        return true;
      case PatternKind::kResponse:
        add_response(prop(p.guard), prop(p.consequent), origin);
        return true;
      case PatternKind::kWeakUntil:
        add_weak_until(prop(p.guard), prop(p.consequent), prop(p.release));
        return true;
      case PatternKind::kStrongUntil:
        add_weak_until(prop(p.guard), prop(p.consequent), prop(p.release));
        add_response(prop(p.guard), prop(p.release), origin);
        return true;
      case PatternKind::kExistence:
        add_existence(prop(p.guard), origin);
        return true;
    }
    return false;
  }

  CompiledSpec finish() {
    // Allocate variables for signature propositions never mentioned by any
    // requirement (they are unconstrained but must exist for extraction).
    for (const std::string& name : signature_.inputs) prop_var(name);
    for (const std::string& name : signature_.outputs) prop_var(name);
    // Partition the allocated proposition variables by signature role, in
    // signature order (extraction indexes input bit b as inputs[b]).
    for (const std::string& name : signature_.inputs) {
      spec_.game.input_vars.push_back(spec_.prop_var.at(name));
    }
    for (const std::string& name : signature_.outputs) {
      spec_.game.output_vars.push_back(spec_.prop_var.at(name));
    }
    // Initial-state predicate: the minterm given by initial_bits, built as
    // one cube (a single bottom-up pass) instead of a conjunction chain.
    std::vector<std::pair<int, bool>> initial_literals;
    initial_literals.reserve(spec_.game.state_vars.size());
    for (std::size_t b = 0; b < spec_.game.state_vars.size(); ++b) {
      initial_literals.emplace_back(spec_.game.state_vars[b],
                                    spec_.initial_bits[b]);
    }
    spec_.game.initial = mgr_.cube(initial_literals);
    return std::move(spec_);
  }

 private:
  int prop_var(const std::string& name) {
    const auto it = spec_.prop_var.find(name);
    if (it != spec_.prop_var.end()) return it->second;
    const int v = mgr_.new_var();
    spec_.prop_var.emplace(name, v);
    return v;
  }

  bdd::Bdd prop(Formula f) { return prop_to_bdd(mgr_, *this, f); }
  friend bdd::Bdd prop_to_bdd(bdd::Manager&, Compiler&, Formula);

  int new_state_bit(bool initial) {
    const int v = mgr_.new_var();
    spec_.game.state_vars.push_back(v);
    spec_.game.next_state.emplace_back();  // filled by caller
    spec_.initial_bits.push_back(initial);
    return v;
  }

  void set_update(int var, bdd::Bdd update) {
    for (std::size_t b = 0; b < spec_.game.state_vars.size(); ++b) {
      if (spec_.game.state_vars[b] == var) {
        spec_.game.next_state[b] = update;
        return;
      }
    }
    speccc_check(false, "unknown state variable");
  }

  /// G (g -> X^n c): register chain d1..dn of guard history.
  /// d1' = g(now); dj' = d_{j-1}; violation when dn && !c(now).
  void add_implication(bdd::Bdd guard, bdd::Bdd consequent, std::size_t delay) {
    if (delay == 0) {
      spec_.game.safe =
          mgr_.bdd_and(spec_.game.safe, mgr_.implies(guard, consequent));
      return;
    }
    std::vector<int> regs;
    for (std::size_t j = 0; j < delay; ++j) regs.push_back(new_state_bit(false));
    set_update(regs[0], guard);
    for (std::size_t j = 1; j < delay; ++j) {
      set_update(regs[j], mgr_.var(regs[j - 1]));
    }
    spec_.game.safe = mgr_.bdd_and(
        spec_.game.safe, mgr_.implies(mgr_.var(regs[delay - 1]), consequent));
  }

  /// G (X^n g -> c): register chain e1..en of consequent history,
  /// initialized to true (no obligation exists for the first n steps).
  /// e1' = c(now); ej' = e_{j-1}; violation when g(now) && !en.
  void add_guard_delayed(bdd::Bdd guard, bdd::Bdd consequent, std::size_t delay) {
    speccc_check(delay >= 1, "guard-delayed pattern needs delay >= 1");
    std::vector<int> regs;
    for (std::size_t j = 0; j < delay; ++j) regs.push_back(new_state_bit(true));
    set_update(regs[0], consequent);
    for (std::size_t j = 1; j < delay; ++j) {
      set_update(regs[j], mgr_.var(regs[j - 1]));
    }
    spec_.game.safe = mgr_.bdd_and(
        spec_.game.safe, mgr_.implies(guard, mgr_.var(regs[delay - 1])));
  }

  /// G (g -> F c): obligation bit; obliged' = (obliged || g) && !c.
  /// Buechi predicate: !obliged (the obligation is discharged infinitely
  /// often, i.e. every triggered response eventually happens).
  void add_response(bdd::Bdd guard, bdd::Bdd consequent, std::size_t origin) {
    const int obliged = new_state_bit(false);
    set_update(obliged, mgr_.bdd_and(mgr_.bdd_or(mgr_.var(obliged), guard),
                                     mgr_.bdd_not(consequent)));
    spec_.game.buchi.push_back(mgr_.nvar(obliged));
    spec_.buchi_origin.push_back(origin);
  }

  /// G (g -> (p W q)): active = w || g; violation when active && !q && !p;
  /// w' = active && !q.
  void add_weak_until(bdd::Bdd guard, bdd::Bdd hold, bdd::Bdd release) {
    const int w = new_state_bit(false);
    const bdd::Bdd active = mgr_.bdd_or(mgr_.var(w), guard);
    set_update(w, mgr_.bdd_and(active, mgr_.bdd_not(release)));
    spec_.game.safe = mgr_.bdd_and(
        spec_.game.safe,
        mgr_.implies(mgr_.bdd_and(active, mgr_.bdd_not(release)), hold));
  }

  /// F p: done' = done || p; Buechi predicate: done.
  void add_existence(bdd::Bdd body, std::size_t origin) {
    const int done = new_state_bit(false);
    set_update(done, mgr_.bdd_or(mgr_.var(done), body));
    spec_.game.buchi.push_back(mgr_.var(done));
    spec_.buchi_origin.push_back(origin);
  }

  bdd::Manager& mgr_;
  [[maybe_unused]] const IoSignature& signature_;
  CompiledSpec spec_;
};

/// Propositional formula -> BDD, allocating proposition variables on first
/// use (see the ordering note in Compiler's constructor).
bdd::Bdd prop_to_bdd(bdd::Manager& mgr, Compiler& compiler, Formula f) {
  switch (f.op()) {
    case Op::kTrue:
      return mgr.bdd_true();
    case Op::kFalse:
      return mgr.bdd_false();
    case Op::kAp:
      return mgr.var(compiler.prop_var(f.ap_name()));
    case Op::kNot:
      return mgr.bdd_not(prop_to_bdd(mgr, compiler, f.child(0)));
    case Op::kAnd: {
      bdd::Bdd acc = mgr.bdd_true();
      for (Formula c : f.children()) {
        acc = mgr.bdd_and(acc, prop_to_bdd(mgr, compiler, c));
      }
      return acc;
    }
    case Op::kOr: {
      bdd::Bdd acc = mgr.bdd_false();
      for (Formula c : f.children()) {
        acc = mgr.bdd_or(acc, prop_to_bdd(mgr, compiler, c));
      }
      return acc;
    }
    case Op::kImplies:
      return mgr.implies(prop_to_bdd(mgr, compiler, f.child(0)),
                         prop_to_bdd(mgr, compiler, f.child(1)));
    case Op::kIff:
      return mgr.iff(prop_to_bdd(mgr, compiler, f.child(0)),
                     prop_to_bdd(mgr, compiler, f.child(1)));
    default:
      speccc_check(false, "temporal operator in propositional context");
      return mgr.bdd_false();
  }
}

/// Whether every atom of f is in the signature: a walk over f's leaves,
/// with no atom set built per formula. Unary chains (X^d) are walked in a
/// loop, so only binary nesting recurses.
bool mentions_only(Formula f, const IoSignature& signature) {
  while (f.arity() == 1) f = f.child(0);
  if (f.op() != Op::kAp) {
    return std::all_of(f.children().begin(), f.children().end(),
                       [&](Formula c) { return mentions_only(c, signature); });
  }
  const auto listed = [&](const std::vector<std::string>& names) {
    return std::find(names.begin(), names.end(), f.ap_name()) != names.end();
  };
  return listed(signature.inputs) || listed(signature.outputs);
}

}  // namespace

bool fragment_covers(const std::vector<ltl::Formula>& spec) {
  for (const ltl::Formula& f : spec) {
    if (!ltl::recognize_pattern(f).has_value()) return false;
  }
  return true;
}

std::optional<CompiledSpec> compile_monitors(bdd::Manager& manager,
                                             const std::vector<ltl::Formula>& spec,
                                             const IoSignature& signature) {
  std::vector<PatternInstance> instances;
  for (const ltl::Formula& f : spec) {
    auto p = ltl::recognize_pattern(f);
    if (!p.has_value()) return std::nullopt;
    if (!mentions_only(f, signature)) return std::nullopt;
    instances.push_back(*p);
  }
  Compiler compiler(manager, signature);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const bool ok = compiler.add(instances[i], i);
    speccc_check(ok, "recognized pattern must compile");
  }
  return compiler.finish();
}

}  // namespace speccc::synth
