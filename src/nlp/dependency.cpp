#include "nlp/dependency.hpp"

#include "util/strings.hpp"

namespace speccc::nlp {

namespace {

void clause_dependencies(const Clause& clause, std::vector<Dependency>& out) {
  const Predicate& pred = clause.predicate;
  const std::string verb =
      pred.verb_lemma.empty() ? std::string("be") : pred.verb_lemma;
  const char* subj_type =
      pred.kind == PredicateKind::kPassive ? "nsubjpass" : "nsubj";

  for (std::size_t i = 0; i < clause.subjects.size(); ++i) {
    const NounPhrase& np = clause.subjects[i];
    const std::string name = np.pronoun ? "it" : np.joined();
    out.push_back({subj_type, verb, name});
    // Attributive adjectives inside the noun phrase (amod), excluding
    // proper-name components ("Air Ok signal").
    for (const NpWord& w : np.words) {
      if (w.pos == Pos::kAdjective && !w.capitalized) {
        out.push_back({"amod", name, w.text});
      }
    }
    if (i > 0) {
      const std::string type = clause.subject_conjunction == "or"
                                   ? "conj_or"
                                   : "conj_and";
      out.push_back({type, clause.subjects.front().joined(), name});
    }
  }
  for (const std::string& c : pred.complements) {
    out.push_back({"acomp", verb, c});
  }
  if (pred.negated) out.push_back({"neg", verb, "not"});
  if (!clause.modifier.empty()) out.push_back({"advmod", verb, clause.modifier});
}

void clause_subject_dependents(
    const Clause& clause, std::map<std::string, std::set<std::string>>& out) {
  for (const NounPhrase& np : clause.subjects) {
    if (np.pronoun) continue;
    // The subject name excludes lower-case attributive adjectives (they are
    // modifiers, not name components) -- mirroring the appendix, where
    // "a valid blood pressure" yields subject blood_pressure with dependent
    // "valid" but "Air Ok signal" stays air_ok_signal.
    std::vector<std::string> name_words;
    std::set<std::string> dependents;
    for (const NpWord& w : np.words) {
      if (w.pos == Pos::kAdjective && !w.capitalized) {
        dependents.insert(w.text);
      } else {
        name_words.push_back(w.text);
      }
    }
    if (name_words.empty()) continue;  // pure-adjective phrase: no subject
    const std::string name = util::join(name_words, "_");
    auto& set = out[name];
    set.insert(dependents.begin(), dependents.end());
    for (const std::string& c : clause.predicate.complements) set.insert(c);
  }
}

}  // namespace

std::vector<Dependency> dependencies(const Sentence& sentence) {
  std::vector<Dependency> out;
  sentence.for_each_clause(
      [&out](const Clause& clause) { clause_dependencies(clause, out); });
  return out;
}

std::map<std::string, std::set<std::string>> subject_dependents(
    const Sentence& sentence) {
  std::map<std::string, std::set<std::string>> out;
  sentence.for_each_clause(
      [&out](const Clause& clause) { clause_subject_dependents(clause, out); });
  return out;
}

}  // namespace speccc::nlp
