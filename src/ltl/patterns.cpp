#include "ltl/patterns.hpp"

namespace speccc::ltl {

namespace {

/// Strip X operators from the front; returns the stripped count.
std::size_t strip_next(Formula& f) {
  std::size_t n = 0;
  while (f.op() == Op::kNext) {
    ++n;
    f = f.child(0);
  }
  return n;
}

/// Normalize nested implications: (g1 -> (g2 -> body)) => guard g1&&g2.
/// Returns the final body; accumulates guards into `guard`.
Formula peel_guards(Formula f, std::vector<Formula>& guards) {
  while (f.op() == Op::kImplies && f.child(0).is_propositional()) {
    guards.push_back(f.child(0));
    f = f.child(1);
  }
  return f;
}

}  // namespace

std::optional<PatternInstance> recognize_pattern(Formula f) {
  // F p (Existence).
  if (f.op() == Op::kEventually && f.child(0).is_propositional()) {
    PatternInstance p;
    p.kind = PatternKind::kExistence;
    p.guard = f.child(0);
    return p;
  }
  if (f.op() != Op::kAlways) return std::nullopt;

  Formula body = f.child(0);

  // G p with no implication structure at all (Invariant).
  if (body.is_propositional() && body.op() != Op::kImplies) {
    PatternInstance p;
    p.kind = PatternKind::kInvariant;
    p.guard = body;
    return p;
  }

  // X^n inside the *antecedent* (the paper's Req-28 shape,
  // G (XXX !blood_pressure -> trigger_manual_mode)): at step t the guard is
  // evaluated n steps in the future while the consequent is due now. Read
  // causally, a violation becomes observable at step t+n as
  //   guard(t+n) && !consequent(t),
  // so a deterministic safety monitor only needs to remember the last n
  // values of the consequent -- no clairvoyance required.
  if (body.op() == Op::kImplies) {
    Formula ante = body.child(0);
    Formula post = body.child(1);
    const std::size_t ante_delay = strip_next(ante);
    if (ante_delay > 0 && ante.is_propositional() && post.is_propositional()) {
      PatternInstance p;
      p.kind = PatternKind::kGuardDelayed;
      p.guard = ante;
      p.consequent = post;
      p.delay = ante_delay;
      return p;
    }
  }

  std::vector<Formula> guards;
  Formula rest = peel_guards(body, guards);
  Formula guard = guards.empty() ? tru() : land(guards);

  if (rest.op() == Op::kImplies) {
    // peel_guards stopped because the antecedent is temporal; unsupported.
    return std::nullopt;
  }

  // G (guard -> F c) (Response).
  if (rest.op() == Op::kEventually && rest.child(0).is_propositional()) {
    PatternInstance p;
    p.kind = PatternKind::kResponse;
    p.guard = guard;
    p.consequent = rest.child(0);
    return p;
  }

  // G (guard -> (p W q)) / (p U q).
  if (rest.op() == Op::kWeakUntil || rest.op() == Op::kUntil) {
    Formula hold = rest.child(0);
    Formula rel = rest.child(1);
    if (hold.is_propositional() && rel.is_propositional()) {
      PatternInstance p;
      p.kind = rest.op() == Op::kWeakUntil ? PatternKind::kWeakUntil
                                           : PatternKind::kStrongUntil;
      p.guard = guard;
      p.consequent = hold;
      p.release = rel;
      return p;
    }
    return std::nullopt;
  }

  // G (guard -> X^n c) (possibly n = 0).
  {
    Formula cons = rest;
    std::size_t delay = strip_next(cons);
    if (cons.is_propositional()) {
      PatternInstance p;
      p.kind = PatternKind::kImplication;
      p.guard = guard;
      p.consequent = cons;
      p.delay = delay;
      return p;
    }
    // Mixed temporal consequent, e.g. X F c: recognize X^n (F c) as a
    // delayed response.
    if (cons.op() == Op::kEventually && cons.child(0).is_propositional()) {
      PatternInstance p;
      p.kind = PatternKind::kResponse;
      p.guard = guard;
      p.consequent = cons.child(0);
      // A delayed F is absorbed: G(g -> X^n F c) == G(g -> F c) only for
      // n == 0; for n > 0 the deadline is weaker, and since F has no
      // deadline at all the two coincide for realizability *and* for
      // language equality... in fact X F c == F X c and F X c is implied by
      // F c only one way. Precisely: X^n F c == "c holds at some step
      // >= n". For a response monitor the obligation simply starts n steps
      // later; with no deadline this is equivalent to F c when n steps of
      // slack always exist, i.e. the languages differ only on the first n
      // steps of c. We keep exactness by refusing n > 0 here.
      if (delay == 0) return p;
      return std::nullopt;
    }
    return std::nullopt;
  }
}

}  // namespace speccc::ltl
