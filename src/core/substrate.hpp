// The unified decision-substrate interface (ROADMAP item 4).
//
// The paper decides consistency through three interchangeable substrates --
// the GPVW tableau (satisfiability screening: an unsatisfiable conjunction
// is unrealizable for every partition), bounded synthesis (full LTL on
// small signatures, k-escalation), and symbolic synthesis (exact
// generalized-Buechi games over pattern monitors). The difftest oracle
// proves they agree: opposite *definite* verdicts are a substrate bug,
// kUnknown never disagrees. That agreement contract is what makes
// portfolio racing (core/portfolio.hpp) deterministic: whichever substrate
// answers first, a definite verdict is THE verdict.
//
// A Substrate is stateless and const: one instance may be checked from
// many racer threads concurrently (each check builds its own engines --
// per-call bdd::Manager, per-call game arenas; the only shared mutable
// state underneath is the mutex-protected formula intern arena). The
// bounded and symbolic substrates are synth::run_bounded/try_symbolic with
// the caller's CancelFn installed.
//
// SubstrateSpec is the one user-facing configuration knob: a parseable
// string
//   "auto"                        symbolic when applicable, else bounded
//   "tableau" | "bounded" | "symbolic"   exactly one substrate
//   "race:tableau,bounded,symbolic"      first-verdict-wins portfolio
// carried through PipelineOptions, batch::RunLimits (per-request serve
// override), and the --substrate flag of every CLI.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "synth/synthesizer.hpp"

namespace speccc::core {

/// Cooperative cancellation predicate: polled inside substrate engines
/// (tableau expansion, bounded-game frontier, symbolic fixpoint rounds).
/// Returning true makes the engine throw util::CancelledError at its next
/// poll point. A null functor is never cancelled. Must be safe to call
/// concurrently from racer threads (the batch BudgetState and the
/// portfolio race flag both are).
using CancelFn = std::function<bool()>;

/// How the pipeline picks its decision substrate(s). Parse/to_string round
/// trip.
struct SubstrateSpec {
  enum class Mode { kAuto, kSolo, kRace };

  Mode mode = Mode::kAuto;
  /// Substrate names: empty for kAuto, exactly one for kSolo, >= 2 unique
  /// names in race order for kRace (race order breaks ties
  /// deterministically when nobody reaches a definite verdict).
  std::vector<std::string> substrates;

  /// Parse "auto", a substrate name, or "race:a,b,...". Throws
  /// util::InvalidInputError naming the offending token on an unknown
  /// substrate, a duplicate racer, or a race with fewer than two entries.
  [[nodiscard]] static SubstrateSpec parse(std::string_view text);

  /// Round trip of parse(): "auto", "<name>", or "race:a,b,...".
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool is_auto() const { return mode == Mode::kAuto; }

  friend bool operator==(const SubstrateSpec& a, const SubstrateSpec& b) {
    return a.mode == b.mode && a.substrates == b.substrates;
  }
  friend bool operator!=(const SubstrateSpec& a, const SubstrateSpec& b) {
    return !(a == b);
  }
};

/// Per-run limits, polled cooperatively at pipeline stage boundaries and
/// inside every stage-2/3 engine (see PipelineOptions::cancelled). Shared
/// by batch workers and the serve layer (batch::RunLimits is an alias).
struct RunLimits {
  /// Wall-clock budget in seconds for this run; 0 means unlimited. The
  /// serve layer derives it from the request deadline.
  double budget_seconds = 0.0;
  /// External cancellation (batch-wide cancel, serve shutdown); null
  /// means never cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-run substrate override (serve's per-request "substrate" field);
  /// null means the pipeline's configured spec. Not owned; must outlive
  /// the run.
  const SubstrateSpec* substrate = nullptr;
};

/// One decision substrate: name + a pure check. Implementations are
/// stateless; `check` may run concurrently on many threads.
class Substrate {
 public:
  virtual ~Substrate() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Decide realizability of the conjunction of `formulas` under
  /// `signature`. Definite verdicts (kRealizable/kUnrealizable) are exact;
  /// kUnknown is an abstention (caps hit, or the substrate only proves one
  /// direction -- the tableau never proves realizability). Throws
  /// util::CancelledError when `cancelled` fires mid-check and
  /// util::SpecError subclasses on inapplicable inputs (e.g. the symbolic
  /// substrate outside its pattern fragment).
  [[nodiscard]] virtual synth::SynthesisResult check(
      const std::vector<ltl::Formula>& formulas,
      const synth::IoSignature& signature,
      const synth::SynthesisOptions& options,
      const CancelFn& cancelled) const = 0;
};

/// Name -> Substrate lookup. The process-wide global() registry holds the
/// three builtins; tests build local registries with custom substrates
/// (slow, instant, abstaining) to pin the portfolio semantics.
class SubstrateRegistry {
 public:
  SubstrateRegistry() = default;

  /// Register a substrate under its name(). Throws util::InvalidInputError
  /// on a duplicate name.
  void add(std::unique_ptr<Substrate> substrate);

  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const Substrate* find(std::string_view name) const;

  /// Resolve a solo/race spec to substrates in spec order. Throws
  /// util::InvalidInputError on an auto spec or an unregistered name.
  [[nodiscard]] std::vector<const Substrate*> resolve(
      const SubstrateSpec& spec) const;

  /// Registered names, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// The builtin registry: tableau, bounded, symbolic.
  [[nodiscard]] static const SubstrateRegistry& global();

 private:
  std::vector<std::unique_ptr<Substrate>> substrates_;
};

/// The builtin substrate names, in the registry's registration order.
/// SubstrateSpec::parse validates against this list.
[[nodiscard]] const std::vector<std::string>& builtin_substrate_names();

}  // namespace speccc::core
