#include "synth/monitors.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "util/diagnostics.hpp"

namespace speccc::synth {

namespace {

using ltl::Formula;
using ltl::Op;
using ltl::PatternInstance;
using ltl::PatternKind;

/// Compiles pattern instances into one Monitor, conjoining each safety
/// constraint onto monitor.safe and appending state bits and Buechi
/// predicates. Proposition variables come from the caller's PropVar: for
/// conjunctions of per-requirement monitors, allocating them lazily in
/// first-use order keeps each requirement's propositions adjacent in the
/// BDD order, which is the difference between linear- and
/// exponential-sized safety constraints (G (a1 -> b1) && G (a2 -> b2) &&
/// ... is linear when interleaved a1 b1 a2 b2 and exponential when grouped
/// a1 a2 ... b1 b2 ...).
class MonitorBuilder {
 public:
  MonitorBuilder(bdd::Manager& mgr, const PropVar& prop_var, Monitor& out)
      : mgr_(mgr), prop_var_(prop_var), out_(out) {}

  void add(const PatternInstance& p) {
    switch (p.kind) {
      case PatternKind::kInvariant:
        out_.safe = mgr_.bdd_and(out_.safe, prop(p.guard));
        return;
      case PatternKind::kImplication:
        add_implication(prop(p.guard), prop(p.consequent), p.delay);
        return;
      case PatternKind::kGuardDelayed:
        add_guard_delayed(prop(p.guard), prop(p.consequent), p.delay);
        return;
      case PatternKind::kResponse:
        add_response(prop(p.guard), prop(p.consequent));
        return;
      case PatternKind::kWeakUntil:
        add_weak_until(prop(p.guard), prop(p.consequent), prop(p.release));
        return;
      case PatternKind::kStrongUntil:
        add_weak_until(prop(p.guard), prop(p.consequent), prop(p.release));
        add_response(prop(p.guard), prop(p.release));
        return;
      case PatternKind::kExistence:
        add_existence(prop(p.guard));
        return;
    }
    speccc_check(false, "recognized pattern must compile");
  }

 private:
  /// Propositional formula -> BDD.
  bdd::Bdd prop(Formula f) {
    switch (f.op()) {
      case Op::kTrue:
        return mgr_.bdd_true();
      case Op::kFalse:
        return mgr_.bdd_false();
      case Op::kAp:
        return mgr_.var(prop_var_(f));
      case Op::kNot:
        return mgr_.bdd_not(prop(f.child(0)));
      case Op::kAnd: {
        bdd::Bdd acc = mgr_.bdd_true();
        for (Formula c : f.children()) acc = mgr_.bdd_and(acc, prop(c));
        return acc;
      }
      case Op::kOr: {
        bdd::Bdd acc = mgr_.bdd_false();
        for (Formula c : f.children()) acc = mgr_.bdd_or(acc, prop(c));
        return acc;
      }
      case Op::kImplies:
        return mgr_.implies(prop(f.child(0)), prop(f.child(1)));
      case Op::kIff:
        return mgr_.iff(prop(f.child(0)), prop(f.child(1)));
      default:
        speccc_check(false, "temporal operator in propositional context");
        return mgr_.bdd_false();
    }
  }

  /// A fresh state bit; returns its position in the monitor's vectors (the
  /// caller fills in its transition function).
  std::size_t new_state_bit(bool initial) {
    out_.state_vars.push_back(mgr_.new_var());
    out_.next_state.emplace_back();
    out_.initial_bits.push_back(initial);
    return out_.state_vars.size() - 1;
  }

  bdd::Bdd bit(std::size_t b) { return mgr_.var(out_.state_vars[b]); }

  /// G (g -> X^n c): register chain d1..dn of guard history.
  /// d1' = g(now); dj' = d_{j-1}; violation when dn && !c(now).
  void add_implication(bdd::Bdd guard, bdd::Bdd consequent, std::size_t delay) {
    if (delay == 0) {
      out_.safe = mgr_.bdd_and(out_.safe, mgr_.implies(guard, consequent));
      return;
    }
    std::vector<std::size_t> regs;
    for (std::size_t j = 0; j < delay; ++j) regs.push_back(new_state_bit(false));
    out_.next_state[regs[0]] = guard;
    for (std::size_t j = 1; j < delay; ++j) {
      out_.next_state[regs[j]] = bit(regs[j - 1]);
    }
    out_.safe = mgr_.bdd_and(out_.safe,
                             mgr_.implies(bit(regs[delay - 1]), consequent));
  }

  /// G (X^n g -> c): register chain e1..en of consequent history,
  /// initialized to true (no obligation exists for the first n steps).
  /// e1' = c(now); ej' = e_{j-1}; violation when g(now) && !en.
  void add_guard_delayed(bdd::Bdd guard, bdd::Bdd consequent, std::size_t delay) {
    speccc_check(delay >= 1, "guard-delayed pattern needs delay >= 1");
    std::vector<std::size_t> regs;
    for (std::size_t j = 0; j < delay; ++j) regs.push_back(new_state_bit(true));
    out_.next_state[regs[0]] = consequent;
    for (std::size_t j = 1; j < delay; ++j) {
      out_.next_state[regs[j]] = bit(regs[j - 1]);
    }
    out_.safe = mgr_.bdd_and(out_.safe,
                             mgr_.implies(guard, bit(regs[delay - 1])));
  }

  /// G (g -> F c): obligation bit; obliged' = (obliged || g) && !c.
  /// Buechi predicate: !obliged (the obligation is discharged infinitely
  /// often, i.e. every triggered response eventually happens).
  void add_response(bdd::Bdd guard, bdd::Bdd consequent) {
    const std::size_t obliged = new_state_bit(false);
    out_.next_state[obliged] = mgr_.bdd_and(mgr_.bdd_or(bit(obliged), guard),
                                            mgr_.bdd_not(consequent));
    out_.buchi.push_back(mgr_.nvar(out_.state_vars[obliged]));
  }

  /// G (g -> (p W q)): active = w || g; violation when active && !q && !p;
  /// w' = active && !q.
  void add_weak_until(bdd::Bdd guard, bdd::Bdd hold, bdd::Bdd release) {
    const std::size_t w = new_state_bit(false);
    const bdd::Bdd active = mgr_.bdd_or(bit(w), guard);
    out_.next_state[w] = mgr_.bdd_and(active, mgr_.bdd_not(release));
    out_.safe = mgr_.bdd_and(
        out_.safe,
        mgr_.implies(mgr_.bdd_and(active, mgr_.bdd_not(release)), hold));
  }

  /// F p: done' = done || p; Buechi predicate: done.
  void add_existence(bdd::Bdd body) {
    const std::size_t done = new_state_bit(false);
    out_.next_state[done] = mgr_.bdd_or(bit(done), body);
    out_.buchi.push_back(bit(done));
  }

  bdd::Manager& mgr_;
  const PropVar& prop_var_;
  Monitor& out_;
};

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

Monitor compile_monitor(bdd::Manager& manager,
                        const ltl::PatternInstance& pattern,
                        const PropVar& prop_var) {
  Monitor monitor;
  monitor.safe = manager.bdd_true();
  MonitorBuilder(manager, prop_var, monitor).add(pattern);
  return monitor;
}

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
  CompiledSpec out;
  std::unordered_map<std::string, int> vars;
  const auto var_of = [&](const std::string& name) {
    const auto [it, fresh] = vars.try_emplace(name, 0);
    if (fresh) it->second = manager.new_var();
    return it->second;
  };
  const PropVar prop_var = [&](Formula a) { return var_of(a.ap_name()); };
  // One monitor accumulates every requirement, so each safety constraint
  // is conjoined as soon as it is built.
  Monitor all;
  all.safe = manager.bdd_true();
  MonitorBuilder builder(manager, prop_var, all);
  for (const PatternInstance& instance : instances) builder.add(instance);

  // Allocate variables for signature propositions never mentioned by any
  // requirement (they are unconstrained but must exist for extraction),
  // then partition the proposition variables by signature role, in
  // signature order (extraction indexes input bit b as inputs[b]).
  for (const std::string& name : signature.inputs) var_of(name);
  for (const std::string& name : signature.outputs) var_of(name);
  game::SymbolicGame& game = out.game;
  game.manager = &manager;
  for (const std::string& name : signature.inputs) {
    game.input_vars.push_back(vars.at(name));
  }
  for (const std::string& name : signature.outputs) {
    game.output_vars.push_back(vars.at(name));
  }
  game.safe = all.safe;
  game.state_vars = std::move(all.state_vars);
  game.next_state = std::move(all.next_state);
  game.buchi = std::move(all.buchi);
  out.initial_bits = std::move(all.initial_bits);
  // Initial-state predicate: the minterm given by initial_bits, built as
  // one cube (a single bottom-up pass) instead of a conjunction chain.
  std::vector<std::pair<int, bool>> initial_literals;
  initial_literals.reserve(game.state_vars.size());
  for (std::size_t b = 0; b < game.state_vars.size(); ++b) {
    initial_literals.emplace_back(game.state_vars[b], out.initial_bits[b]);
  }
  game.initial = manager.cube(initial_literals);
  return out;
}

}  // namespace speccc::synth
