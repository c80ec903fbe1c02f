#include "synth/bounded.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "automata/gpvw.hpp"
#include "game/safety.hpp"
#include "util/diagnostics.hpp"

namespace speccc::synth {

namespace {

using automata::Buchi;
using Counter = std::vector<std::int16_t>;  // -1 = not active

constexpr std::int16_t kBot = -1;

/// One bounded safety game over counter functions.
///
/// `first` letters are chosen by the player moving first in each step,
/// `second` by the responder; `safe_moves_second` states whether the SAFE
/// player (who must keep counters bounded) is the responder (primal game:
/// system responds to inputs) or the first mover (dual game: environment
/// commits, system responds adversarially).
class BoundedGame {
 public:
  BoundedGame(const Buchi& ucw, std::vector<ltl::Valuation> first_letters,
              std::vector<ltl::Valuation> second_letters, bool safe_moves_second,
              int k, std::size_t max_positions,
              const std::function<bool()>& cancelled)
      : ucw_(ucw),
        first_letters_(std::move(first_letters)),
        second_letters_(std::move(second_letters)),
        safe_second_(safe_moves_second),
        k_(k),
        max_positions_(max_positions),
        cancelled_(cancelled) {
    // Pre-merge letters: valuation of a step is the union of the first and
    // second mover's letters (they range over disjoint propositions).
    build();
  }

  /// True when exploration hit max_positions; the winner is then unknown.
  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] bool safe_player_wins() const {
    return !aborted_ && result_.initial_safe(arena_);
  }
  [[nodiscard]] std::size_t positions() const { return arena_.size(); }

  /// Extract the SAFE responder's strategy as a Mealy machine (primal game
  /// only: inputs = first letters, outputs = second letters).
  [[nodiscard]] MealyMachine extract(const IoSignature& signature) const;

 private:
  Counter initial_counter() const {
    Counter c(ucw_.num_states(), kBot);
    const auto init = static_cast<std::size_t>(ucw_.initial);
    c[init] = ucw_.accepting[init] ? 1 : 0;
    return c;
  }

  /// Successor counter under a joint valuation; nullopt on overflow.
  std::optional<Counter> step(const Counter& c, const ltl::Valuation& v) const {
    Counter out(ucw_.num_states(), kBot);
    for (std::size_t q = 0; q < ucw_.num_states(); ++q) {
      if (c[q] == kBot) continue;
      for (const automata::Transition& t : ucw_.transitions[q]) {
        if (!t.label.matches(v)) continue;
        const auto tq = static_cast<std::size_t>(t.target);
        const std::int16_t bump = ucw_.accepting[tq] ? 1 : 0;
        const auto val = static_cast<std::int16_t>(c[q] + bump);
        if (val > out[tq]) out[tq] = val;
      }
    }
    for (std::size_t q = 0; q < ucw_.num_states(); ++q) {
      if (out[q] > static_cast<std::int16_t>(k_)) return std::nullopt;
    }
    return out;
  }

  int intern_counter(const Counter& c) {
    const auto it = counter_ids_.find(c);
    if (it != counter_ids_.end()) return it->second;
    const game::Owner first_owner =
        safe_second_ ? game::Owner::kReach : game::Owner::kSafe;
    const int pos = arena_.add_position(first_owner);
    const int id = static_cast<int>(counters_.size());
    counters_.push_back(c);
    counter_pos_.push_back(pos);
    counter_ids_.emplace(c, id);
    frontier_.push_back(id);
    return id;
  }

  void build() {
    // Joint valuations for every (first, second) letter pair.
    joint_.resize(first_letters_.size());
    for (std::size_t a = 0; a < first_letters_.size(); ++a) {
      joint_[a].resize(second_letters_.size());
      for (std::size_t b = 0; b < second_letters_.size(); ++b) {
        ltl::Valuation v = first_letters_[a];
        v.insert(second_letters_[b].begin(), second_letters_[b].end());
        joint_[a][b] = std::move(v);
      }
    }

    doom_ = arena_.add_position(game::Owner::kReach, /*is_dead=*/true);
    const int init_id = intern_counter(initial_counter());
    arena_.initial = counter_pos_[static_cast<std::size_t>(init_id)];

    const game::Owner second_owner =
        safe_second_ ? game::Owner::kSafe : game::Owner::kReach;

    while (!frontier_.empty()) {
      if (cancelled_ && cancelled_()) {
        throw util::CancelledError("bounded game construction cancelled");
      }
      if (arena_.size() > max_positions_) {
        aborted_ = true;
        return;  // partial arena: solving it would prove nothing
      }
      const int id = frontier_.back();
      frontier_.pop_back();
      const int from_pos = counter_pos_[static_cast<std::size_t>(id)];
      const Counter counter = counters_[static_cast<std::size_t>(id)];
      for (std::size_t a = 0; a < first_letters_.size(); ++a) {
        const int mid = arena_.add_position(second_owner);
        arena_.add_move(from_pos, mid);
        for (std::size_t b = 0; b < second_letters_.size(); ++b) {
          const auto succ = step(counter, joint_[a][b]);
          if (!succ) {
            arena_.add_move(mid, doom_);
            continue;
          }
          const int sid = intern_counter(*succ);
          arena_.add_move(mid, counter_pos_[static_cast<std::size_t>(sid)]);
        }
      }
    }
    result_ = game::solve(arena_);
  }

  const Buchi& ucw_;
  std::vector<ltl::Valuation> first_letters_;
  std::vector<ltl::Valuation> second_letters_;
  std::vector<std::vector<ltl::Valuation>> joint_;
  bool safe_second_;
  int k_;
  std::size_t max_positions_;
  const std::function<bool()>& cancelled_;
  bool aborted_ = false;

  game::Arena arena_;
  game::SafetyResult result_;
  int doom_ = -1;
  std::map<Counter, int> counter_ids_;
  std::vector<Counter> counters_;
  std::vector<int> counter_pos_;  // counter id -> arena position
  std::vector<int> frontier_;
};

MealyMachine BoundedGame::extract(const IoSignature& signature) const {
  speccc_check(safe_second_, "controller extraction is for the primal game");
  MealyMachine machine(signature);

  // Machine states = winning counter positions, discovered on the fly.
  std::map<int, int> counter_to_state;  // counter id -> machine state
  std::vector<int> work;
  const auto state_of = [&](int counter_id) {
    const auto it = counter_to_state.find(counter_id);
    if (it != counter_to_state.end()) return it->second;
    const int s = machine.add_state();
    counter_to_state.emplace(counter_id, s);
    work.push_back(counter_id);
    return s;
  };

  const int init_id = counter_ids_.at(initial_counter());
  (void)state_of(init_id);

  while (!work.empty()) {
    const int id = work.back();
    work.pop_back();
    const int machine_state = counter_to_state.at(id);
    const Counter& counter = counters_[static_cast<std::size_t>(id)];
    for (std::size_t a = 0; a < first_letters_.size(); ++a) {
      // Choose the first response whose successor is winning.
      bool placed = false;
      for (std::size_t b = 0; b < second_letters_.size() && !placed; ++b) {
        const auto succ = step(counter, joint_[a][b]);
        if (!succ) continue;
        const auto sit = counter_ids_.find(*succ);
        speccc_check(sit != counter_ids_.end(), "successor not explored");
        const int spos = counter_pos_[static_cast<std::size_t>(sit->second)];
        if (!result_.safe_wins[static_cast<std::size_t>(spos)]) continue;
        machine.set_transition(machine_state, static_cast<Word>(a),
                               static_cast<Word>(b), state_of(sit->second));
        placed = true;
      }
      speccc_check(placed, "winning position must have a safe response");
    }
  }
  return machine;
}

/// All valuations over a proposition list, in mask order (bit b of the mask
/// corresponds to props[b]).
std::vector<ltl::Valuation> enumerate_letters(const std::vector<std::string>& props) {
  const std::size_t n = props.size();
  std::vector<ltl::Valuation> out(std::size_t{1} << n);
  for (std::size_t mask = 0; mask < out.size(); ++mask) {
    for (std::size_t b = 0; b < n; ++b) {
      if ((mask >> b) & 1) out[mask].insert(props[b]);
    }
  }
  return out;
}

}  // namespace

const char* realizability_name(Realizability r) {
  switch (r) {
    case Realizability::kRealizable: return "realizable";
    case Realizability::kUnrealizable: return "unrealizable";
    case Realizability::kUnknown: return "unknown";
  }
  return "?";
}

BoundedOutcome bounded_synthesize(ltl::Formula spec, const IoSignature& signature,
                                  const BoundedOptions& options) {
  if (signature.inputs.size() + signature.outputs.size() >
      options.max_alphabet_bits) {
    throw util::InvalidInputError(
        "bounded synthesis signature exceeds the explicit-alphabet cap; use "
        "the symbolic engine");
  }
  for (const std::string& a : spec.atoms()) {
    const bool known =
        std::find(signature.inputs.begin(), signature.inputs.end(), a) !=
            signature.inputs.end() ||
        std::find(signature.outputs.begin(), signature.outputs.end(), a) !=
            signature.outputs.end();
    if (!known) {
      throw util::InvalidInputError("formula mentions unknown proposition: " + a);
    }
  }

  BoundedOutcome outcome;
  const auto primal_opt = automata::ucw_for_bounded(spec, options.max_ucw_states,
                                                    options.cancelled);
  if (!primal_opt) {
    outcome.aborted = true;
    return outcome;
  }
  const Buchi& primal_ucw = *primal_opt;
  outcome.ucw_states = primal_ucw.num_states();
  if (primal_ucw.num_states() > options.max_ucw_states) {
    outcome.aborted = true;
    return outcome;
  }
  const auto dual_opt = automata::ucw_for_bounded(
      ltl::lnot(spec), options.max_ucw_states, options.cancelled);
  if (!dual_opt || dual_opt->num_states() > options.max_ucw_states) {
    outcome.aborted = true;
    return outcome;
  }
  const Buchi& dual_ucw = *dual_opt;
  const auto inputs = enumerate_letters(signature.inputs);
  const auto outputs = enumerate_letters(signature.outputs);

  for (int k = 0; k <= options.max_k; ++k) {
    if (options.cancelled && options.cancelled()) {
      throw util::CancelledError("bounded synthesis cancelled");
    }
    // Primal: environment picks inputs first, system responds; system SAFE.
    BoundedGame primal(primal_ucw, inputs, outputs, /*safe_moves_second=*/true,
                       k, options.max_game_positions, options.cancelled);
    outcome.game_positions = std::max(outcome.game_positions, primal.positions());
    if (primal.safe_player_wins()) {
      outcome.verdict = Realizability::kRealizable;
      outcome.k_used = k;
      if (options.extract) outcome.controller = primal.extract(signature);
      return outcome;
    }
    // Dual: environment commits inputs first and must keep the UCW of !spec
    // bounded; the system responds adversarially. Environment SAFE.
    BoundedGame dual(dual_ucw, inputs, outputs, /*safe_moves_second=*/false, k,
                     options.max_game_positions, options.cancelled);
    outcome.game_positions = std::max(outcome.game_positions, dual.positions());
    if (dual.safe_player_wins()) {
      outcome.verdict = Realizability::kUnrealizable;
      outcome.k_used = k;
      return outcome;
    }
    // An aborted game proves nothing, and a larger k only grows the arena:
    // stop escalating and report the bound-limited verdict.
    if (primal.aborted() || dual.aborted()) {
      outcome.aborted = true;
      break;
    }
  }
  outcome.verdict = Realizability::kUnknown;
  return outcome;
}

}  // namespace speccc::synth
