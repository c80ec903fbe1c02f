#include "translate/translator.hpp"

#include <algorithm>

#include "cache/store.hpp"
#include "util/diagnostics.hpp"
#include "util/strings.hpp"

namespace speccc::translate {

namespace {

using ltl::Formula;
using nlp::Clause;
using nlp::ClauseGroup;
using nlp::NounPhrase;
using nlp::Predicate;
using nlp::PredicateKind;
using semantics::PropositionReducer;
using semantics::Reduction;

/// A noun phrase's name: its words joined by "_", minus the adjectives
/// semantic reasoning folds away; each negating fold flips `*negated`.
std::string np_name(const NounPhrase& np, const PropositionReducer* reducer,
                    bool* negated) {
  std::vector<std::string> words;
  for (const nlp::NpWord& w : np.words) {
    if (w.pos == nlp::Pos::kAdjective && !w.capitalized && reducer != nullptr) {
      const Reduction r = reducer->decide("", w.text);
      if (r.fold) {
        if (r.negate && negated != nullptr) *negated = !*negated;
        continue;
      }
    }
    words.push_back(w.text);
  }
  return util::join(words, "_");
}

/// A timing constraint's length in ticks, before abstraction.
unsigned ticks_of(const nlp::TimeConstraint& constraint, const Options& options) {
  return constraint.total_seconds() / options.seconds_per_tick;
}

class ClauseTranslator {
 public:
  ClauseTranslator(const Options& options, const PropositionReducer* reducer,
                   const TickMapper& tick_mapper, const std::string& pronoun_referent)
      : options_(options),
        reducer_(reducer),
        tick_mapper_(tick_mapper),
        pronoun_referent_(pronoun_referent) {}

  /// The clause's formula; appends its pre-mapping tick count to `delays`.
  Formula run(const Clause& clause, std::vector<unsigned>& delays) const {
    // One literal per subject, combined with the subject conjunction.
    std::vector<Formula> parts;
    for (const NounPhrase& np : clause.subjects) {
      parts.push_back(subject_literal(clause, np));
    }
    Formula body = clause.subject_conjunction == "or" ? ltl::lor(parts)
                                                       : ltl::land(parts);

    // Future tense / "eventually" modifier: F. A timing constraint
    // overrides the open-ended future with a concrete deadline.
    const bool timed = clause.constraint.has_value();
    if (!timed &&
        (clause.predicate.future || clause.modifier == "eventually" ||
         clause.modifier == "sometimes")) {
      body = ltl::eventually(body);
    }
    if (timed) {
      unsigned ticks = ticks_of(*clause.constraint, options_);
      if (ticks > 0) delays.push_back(ticks);
      if (tick_mapper_ != nullptr) ticks = tick_mapper_(ticks);
      body = ltl::next_n(body, ticks);
    }
    if (clause.next_marked && options_.next_mode == NextMode::kStrict) {
      body = ltl::next(body);
    }
    return body;
  }

 private:
  /// Proposition naming: predicate_subject for verbal predicates,
  /// complement_subject for unreduced copular complements, subject alone for
  /// reduced ones, subject_prep_object for prepositional predicates.
  Formula subject_literal(const Clause& clause, const NounPhrase& np) const {
    const Predicate& pred = clause.predicate;
    bool negated = pred.negated;

    if (np.pronoun) {
      speccc_check(!pronoun_referent_.empty(),
                   "pronoun subject with no referent in scope");
    }
    const std::string subject =
        np.pronoun ? pronoun_referent_ : np_name(np, reducer_, &negated);
    speccc_check(!subject.empty(), "empty subject after reduction");

    Formula prop;
    switch (pred.kind) {
      case PredicateKind::kCopula: {
        // Complements: reduced ones fold into the sign; unreduced ones name
        // the proposition complement_subject (low_air_ok_signal).
        std::vector<Formula> conj;
        bool folded_only = true;
        for (const std::string& c : pred.complements) {
          if (reducer_ != nullptr) {
            const Reduction r = reducer_->decide(subject, c);
            if (r.fold) {
              if (r.negate) negated = !negated;
              continue;
            }
          }
          folded_only = false;
          conj.push_back(ltl::ap(c + "_" + subject));
        }
        if (folded_only) {
          prop = ltl::ap(subject);
        } else {
          prop = ltl::land(conj);
        }
        break;
      }
      case PredicateKind::kPassive:
      case PredicateKind::kProgressive:
        prop = ltl::ap(pred.verb_lemma + "_" + subject);
        break;
      case PredicateKind::kActive:
        if (!pred.objects.empty()) {
          prop = ltl::ap(pred.verb_lemma + "_" + pred.objects.front().joined());
        } else {
          prop = ltl::ap(pred.verb_lemma + "_" + subject);
        }
        break;
      case PredicateKind::kPreposition: {
        // Coordinated objects fold into a disjunction/conjunction of
        // subject_prep_object propositions ("is in room 1 or room 2").
        std::vector<Formula> props;
        for (const NounPhrase& object : pred.objects) {
          props.push_back(ltl::ap(subject + "_" + pred.preposition + "_" +
                                  object.joined()));
        }
        prop = pred.object_conjunction == "and" ? ltl::land(props)
                                                : ltl::lor(props);
        break;
      }
    }
    return negated ? ltl::lnot(prop) : prop;
  }

  const Options& options_;
  const PropositionReducer* reducer_;
  const TickMapper& tick_mapper_;
  const std::string& pronoun_referent_;
};

}  // namespace

Translator::Translator(const nlp::Lexicon& lexicon,
                       const semantics::AntonymDictionary& dictionary,
                       Options options, cache::Store* cache)
    : lexicon_(lexicon),
      dictionary_(dictionary),
      options_(options),
      cache_(cache) {
  if (cache_ != nullptr) lexicon_fingerprint_ = lexicon_.fingerprint();
}

nlp::Sentence Translator::parse_cached(const std::string& text) const {
  if (cache_ == nullptr) return nlp::parse_sentence(text, lexicon_);
  const util::Digest key =
      cache::sentence_key(cache::normalize_sentence(text), lexicon_fingerprint_);
  if (auto hit = cache_->find_sentence(key)) {
    // The cached parse may originate from a whitespace variant of this
    // sentence; restore the verbatim text so diagnostics print it as
    // written here.
    hit->text = text;
    return *std::move(hit);
  }
  nlp::Sentence sentence = nlp::parse_sentence(text, lexicon_);
  cache_->put_sentence(key, sentence);
  return sentence;
}

namespace {

/// Fold a clause group into one formula using the inter-clause connectives.
Formula group_formula(const ClauseGroup& group, const ClauseTranslator& ct,
                      std::vector<unsigned>& delays) {
  speccc_check(!group.clauses.empty(), "empty clause group");
  Formula acc = ct.run(group.clauses.front().second, delays);
  for (std::size_t i = 1; i < group.clauses.size(); ++i) {
    const auto& [conn, clause] = group.clauses[i];
    const Formula f = ct.run(clause, delays);
    acc = conn == "or" ? ltl::lor(acc, f) : ltl::land(acc, f);
  }
  return acc;
}

/// The name of the first subject of the main clause (after reduction), used
/// as the referent of "it" in trailing subclauses.
std::string main_referent(const nlp::Sentence& sentence,
                          const PropositionReducer* reducer) {
  if (sentence.main.clauses.empty()) return "";
  const Clause& clause = sentence.main.clauses.front().second;
  if (clause.subjects.empty() || clause.subjects.front().pronoun) return "";
  return np_name(clause.subjects.front(), reducer, nullptr);
}

/// One requirement's formula; appends its pre-mapping delays to `delays`.
Formula sentence_formula(const nlp::Sentence& sentence, const Options& options,
                         const PropositionReducer* reducer,
                         const TickMapper& tick_mapper,
                         std::vector<unsigned>& delays) {
  const std::string referent = main_referent(sentence, reducer);
  const ClauseTranslator ct(options, reducer, tick_mapper, referent);

  Formula main = group_formula(sentence.main, ct, delays);

  // Trailing until-subclause: the paper's template (Req-49),
  //   main until q  ==>  (!q -> (main W q)).
  if (sentence.until.has_value()) {
    const Formula q = group_formula(*sentence.until, ct, delays);
    main = ltl::implies(ltl::lnot(q), ltl::weak_until(main, q));
  }

  // Conditional subclauses nest right-to-left: the first group is the
  // outermost antecedent (Req-17.4).
  Formula body = main;
  for (auto it = sentence.conditions.rbegin(); it != sentence.conditions.rend();
       ++it) {
    body = ltl::implies(group_formula(*it, ct, delays), body);
  }

  // Universality wrapper; a bare existential main clause stays F-only
  // (the Existence pattern).
  if (sentence.conditions.empty() && !sentence.until.has_value() &&
      body.op() == ltl::Op::kEventually) {
    return body;
  }
  return ltl::always(body);
}

}  // namespace

TickMapper remap_ticks(std::vector<std::uint32_t> thetas,
                       std::vector<std::uint32_t> reduced) {
  speccc_check(thetas.size() == reduced.size(),
               "one reduced count per theta");
  return [thetas = std::move(thetas),
          reduced = std::move(reduced)](unsigned ticks) -> unsigned {
    const auto it = std::lower_bound(thetas.begin(), thetas.end(), ticks);
    if (it == thetas.end() || *it != ticks) return ticks;
    return reduced[static_cast<std::size_t>(it - thetas.begin())];
  };
}

Analysis Translator::analyze(
    const std::vector<RequirementText>& requirements) const {
  Analysis analysis;
  std::set<std::uint32_t> thetas;
  analysis.sentences.reserve(requirements.size());
  for (const RequirementText& req : requirements) {
    // Theta by the rule ClauseTranslator::run records delays with.
    analysis.sentences.emplace_back(parse_cached(req.text))
        .for_each_clause([&](const Clause& clause) {
          if (!clause.constraint.has_value()) return;
          const unsigned ticks = ticks_of(*clause.constraint, options_);
          if (ticks > 0) thetas.insert(ticks);
        });
  }
  analysis.thetas.assign(thetas.begin(), thetas.end());
  if (options_.semantic_reasoning) {
    analysis.reasoning = semantics::reason(analysis.sentences, dictionary_);
  }
  return analysis;
}

TranslationResult Translator::emit(
    Analysis analysis, const std::vector<RequirementText>& requirements,
    const TickMapper& tick_mapper) const {
  speccc_check(analysis.sentences.size() == requirements.size(),
               "analysis covers the requirements it is emitted with");
  TranslationResult result;
  std::optional<PropositionReducer> reducer;
  if (options_.semantic_reasoning) {
    result.reasoning = std::move(analysis.reasoning);
    reducer.emplace(result.reasoning, dictionary_);
  }
  const PropositionReducer* const reduce = reducer ? &*reducer : nullptr;

  result.requirements.reserve(requirements.size());
  for (std::size_t i = 0; i < requirements.size(); ++i) {
    TranslatedRequirement& tr = result.requirements.emplace_back();
    tr.id = requirements[i].id;
    tr.text = requirements[i].text;
    tr.sentence = std::move(analysis.sentences[i]);
    tr.formula = sentence_formula(tr.sentence, options_, reduce, tick_mapper,
                                  tr.delays);
    const auto atoms = tr.formula.atoms();
    result.propositions.insert(atoms.begin(), atoms.end());
  }
  return result;
}

TranslationResult Translator::translate(
    const std::vector<RequirementText>& requirements,
    const TickMapper& tick_mapper) const {
  return emit(analyze(requirements), requirements, tick_mapper);
}

std::vector<ltl::Formula> TranslationResult::formulas() const {
  std::vector<ltl::Formula> out;
  out.reserve(requirements.size());
  for (const auto& r : requirements) out.push_back(r.formula);
  return out;
}

std::vector<std::uint32_t> TranslationResult::thetas() const {
  std::set<std::uint32_t> set;
  for (const auto& r : requirements) {
    for (unsigned d : r.delays) {
      if (d > 0) set.insert(d);
    }
  }
  return {set.begin(), set.end()};
}

}  // namespace speccc::translate
