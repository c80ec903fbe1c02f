// Inconsistency diagnosis: minimal inconsistent subsets (MUS) and minimal
// correction sets (MCS) over requirement indices.
//
// The engine is oracle-driven: a CoreOracle answers "is this subset of the
// requirements consistent?", and on inconsistency may return a smaller
// inconsistent core of the query (assumption-based SAT cores do; the
// synthesis oracle just echoes the query). Both algorithms rest on the
// monotonicity of consistency under subsets -- every subset of a
// consistent (realizable) conjunction is consistent -- which holds for
// realizability under a fixed I/O signature and for satisfiability alike:
//
//   * shrink_mus: deletion-based MUS extraction with core jumps. Each
//     round either proves one element necessary (removing it restores
//     consistency) or replaces the candidate set by the oracle's smaller
//     core, so a MUS costs at most 2n oracle calls. Necessity proofs
//     carry over shrinking: a set that was consistent stays consistent
//     when further elements are dropped.
//
//   * correction_sets: the linear-search MaxSAT loop (cf. abc-zz
//     ZZ/MaxSat). Each rotation greedily grows a maximal satisfiable
//     subset (MSS) from a different starting element; its complement is a
//     minimal correction set -- removing it restores consistency, and no
//     proper subset of it does, by the MSS's maximality.
//
// Everything is deterministic: same requirements, same oracle, same
// diagnosis, byte for byte. That is what lets batch reports carry MUS and
// MCS output inside the canonical (jobs-independent, cache-independent)
// form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "sat/solver.hpp"
#include "synth/synthesizer.hpp"

namespace speccc::diag {

/// Consistency oracle over subsets of requirement indices. Returns nullopt
/// when the subset is consistent; otherwise an inconsistent core that is a
/// subset of the query (at worst the query itself, echoed back).
using CoreOracle = std::function<std::optional<std::vector<std::size_t>>(
    const std::vector<std::size_t>&)>;

struct Options {
  /// Minimal correction sets to enumerate (0 disables the MaxSAT loop).
  /// The rotation search finds at most one MCS per requirement, so "up to
  /// N" may under-enumerate specs with many disjoint repairs.
  std::size_t max_correction_sets = 4;
};

struct Diagnosis {
  /// A minimal inconsistent subset: inconsistent as-is, consistent when
  /// any single element is dropped. Empty iff the full set is consistent.
  std::vector<std::size_t> mus;
  /// Minimal correction sets, smallest first (ties lexicographic):
  /// removing any one restores consistency, and each is minimal with that
  /// property. Disjoint from each other only by accident -- they are
  /// alternative repairs, not a partition.
  std::vector<std::vector<std::size_t>> correction_sets;
  /// Oracle calls performed.
  std::size_t checks = 0;

  [[nodiscard]] bool consistent() const { return mus.empty(); }
};

/// Shrink an inconsistent candidate set to a MUS. Precondition: the oracle
/// reports `candidates` inconsistent. `checks` is incremented per oracle
/// call.
[[nodiscard]] std::vector<std::size_t> shrink_mus(
    std::vector<std::size_t> candidates, const CoreOracle& oracle,
    std::size_t& checks);

/// Enumerate up to `max_sets` minimal correction sets of an inconsistent
/// universe by the rotation/grow loop. Precondition: `universe` is
/// inconsistent (otherwise the result is empty).
[[nodiscard]] std::vector<std::vector<std::size_t>> correction_sets(
    const std::vector<std::size_t>& universe, const CoreOracle& oracle,
    std::size_t max_sets, std::size_t& checks);

/// Full diagnosis of requirements {0, ..., num_requirements-1}: one oracle
/// call on the universe, then MUS shrinking and MCS enumeration when it is
/// inconsistent.
[[nodiscard]] Diagnosis diagnose(std::size_t num_requirements,
                                 const CoreOracle& oracle,
                                 const Options& options = {});

/// Realizability over subsets of one requirement list, compositional and
/// memoized. A subset is consistent iff the conjunction of its formulas is
/// realizable under the signature of the view that asks; kUnknown counts
/// as inconsistent, matching refine's conservative reading. No real cores
/// -- inconsistent queries are echoed back.
///
/// Construction walks each requirement once: its atoms get ids from one
/// name table (an atom's id is its rank among all requirement atoms, so id
/// order is name order and ids never depend on a signature), and a
/// requirement in the pattern fragment (ltl::recognize_pattern) has its
/// monitor compiled once (synth::compile_monitor) into the one bdd::Manager
/// the oracle owns. A monitor does not depend on the input/output split,
/// so no query and no partition flip recompiles one.
///
/// When every requirement of a subset has a monitor and every atom has a
/// side in the view, the query is split into components: union-find over
/// the propositions the requirements share. Each component is one
/// game::SymbolicGame -- the conjunction of its members' safety parts,
/// their state bits, transition functions and Buechi sets concatenated,
/// each proposition quantified on its side -- solved in the shared
/// manager. Its verdict is memoized under its sorted requirement indices
/// plus each proposition's side. Lookups try the exact key first, then
/// monotonicity: a component inside a realizable entry, or holding an
/// unrealizable one, with the same sides, is decided without solving. With
/// no assumptions every requirement is a guarantee, so a conjunction over
/// disjoint vocabularies is realizable iff each conjunct is, and the game
/// decides exactly: answers are those of one monolithic synth::synthesize
/// call. Any other subset takes one monolithic synth::synthesize call,
/// unmemoized, because the bounded engine's caps are not compositional.
///
/// Views under different sides share the memo, so a partition flip
/// re-solves only the components that contain the flipped proposition.
/// The manager, like the memo, lives as long as the oracle or any of its
/// views. Copies share state; one oracle serves one thread.
class SynthesisOracle {
 public:
  /// An input/output side per atom id: bit 0 "an input", bit 1 "an
  /// output"; 0 for an atom the signature does not list.
  using Sides = std::vector<std::uint8_t>;

  SynthesisOracle(std::vector<ltl::Formula> requirements,
                  synth::SynthesisOptions options = {});

  /// A CoreOracle asking under `signature`, backed by this oracle's memo
  /// (it keeps the shared state alive). Every nonempty query polls
  /// options.{symbolic,bounded}.cancelled -- memo hits included -- and
  /// lets util::CancelledError out.
  [[nodiscard]] CoreOracle under(const synth::IoSignature& signature) const;
  /// under() a signature that is `signature` with every requirement atom
  /// moved to the side `sides` gives it (propositions no requirement
  /// mentions keep theirs; both lists in name order). A partition flip is
  /// one changed entry of sides(signature); no names are copied unless a
  /// query can reach the monolithic fallback.
  [[nodiscard]] CoreOracle under(const synth::IoSignature& signature,
                                 Sides sides) const;
  /// The side `signature` gives each atom.
  [[nodiscard]] Sides sides(const synth::IoSignature& signature) const;

  /// Every requirement atom, sorted once at construction; an atom's id is
  /// its rank here, so id order is name order.
  [[nodiscard]] const std::vector<std::string>& atom_names() const;
  /// The sorted atom ids of requirement i.
  [[nodiscard]] const std::vector<std::uint32_t>& atom_ids(std::size_t i) const;

 private:
  struct State;
  [[nodiscard]] CoreOracle view(std::shared_ptr<const synth::IoSignature> signature,
                                Sides sides) const;
  std::shared_ptr<State> state_;
};

/// SynthesisOracle(requirements, options).under(signature): a memoized
/// oracle under one fixed signature.
[[nodiscard]] CoreOracle synthesis_oracle(
    std::vector<ltl::Formula> requirements, synth::IoSignature signature,
    synth::SynthesisOptions options = {});

/// Oracle over a CNF group instance: group i is enabled by asserting the
/// selector literal selectors[i], so a subset query is one incremental
/// sat::Solver::solve(assumptions) call and inconsistent queries return
/// the solver's real assumption core mapped back to group indices. The
/// solver must outlive the oracle; clauses learned by one query speed up
/// the next (this is what makes SAT-backed MUS shrinking cheap).
[[nodiscard]] CoreOracle sat_group_oracle(sat::Solver& solver,
                                          std::vector<sat::Lit> selectors);

}  // namespace speccc::diag
