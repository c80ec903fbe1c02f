// Property-pattern recognition (Dwyer et al. [6], Salamah et al. [19]).
//
// The paper's translator (translate/translator.hpp) produces the
// Universality and Existence patterns plus the implication/response shapes
// that the structured-English subordinators induce, building them inline.
// recognize_pattern() reads those shapes back, so the symbolic synthesis
// engine can compile a specification into deterministic monitors.
#pragma once

#include <cstddef>
#include <optional>

#include "ltl/formula.hpp"

namespace speccc::ltl {

enum class PatternKind {
  kInvariant,        // G p                      (safety)
  kImplication,      // G (g -> X^n c)           (safety; n >= 0)
  kGuardDelayed,     // G (X^n g -> c)           (safety; n >= 1)
  kResponse,         // G (g -> F c)             (liveness)
  kWeakUntil,        // G (g -> (p W q))         (safety)
  kStrongUntil,      // G (g -> (p U q))         (safety + liveness)
  kExistence,        // F p                      (liveness)
};

/// A recognized pattern instance. guard/left/right are propositional.
struct PatternInstance {
  PatternKind kind;
  Formula guard;       // kInvariant/kExistence: the body; otherwise the trigger
  Formula consequent;  // kImplication: c; kResponse: c; kUntil: the hold part p
  Formula release;     // kUntil kinds only: q
  std::size_t delay = 0;  // kImplication only: n
};

/// Try to recognize `f` as one of the monitorable patterns. Nested
/// implications in the consequent are normalized into the guard
/// (g1 -> (g2 -> c) becomes (g1 && g2) -> c). Returns std::nullopt when the
/// formula falls outside the fragment; callers then fall back to the
/// general bounded-synthesis engine.
[[nodiscard]] std::optional<PatternInstance> recognize_pattern(Formula f);

}  // namespace speccc::ltl
