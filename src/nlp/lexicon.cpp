#include "nlp/lexicon.hpp"

#include <algorithm>
#include <cctype>

#include "util/strings.hpp"

namespace speccc::nlp {

const char* pos_name(Pos pos) {
  switch (pos) {
    case Pos::kNoun: return "noun";
    case Pos::kVerb: return "verb";
    case Pos::kBe: return "be";
    case Pos::kModal: return "modal";
    case Pos::kAdjective: return "adjective";
    case Pos::kAdverb: return "adverb";
    case Pos::kDeterminer: return "determiner";
    case Pos::kSubordinator: return "subordinator";
    case Pos::kConjunction: return "conjunction";
    case Pos::kPreposition: return "preposition";
    case Pos::kNegation: return "negation";
    case Pos::kPronoun: return "pronoun";
    case Pos::kNumber: return "number";
    case Pos::kTimeUnit: return "time-unit";
    case Pos::kMarker: return "marker";
    case Pos::kComma: return "comma";
    case Pos::kPeriod: return "period";
    case Pos::kUnknown: return "unknown";
  }
  return "?";
}

const Lexicon::Entry* Lexicon::find(std::string_view word) const {
  const auto it = words_.find(word);
  return it == words_.end() ? nullptr : &it->second;
}

void Lexicon::add(std::string_view word, Pos pos) {
  words_[util::to_lower(word)].pos.insert(pos);
}

void Lexicon::add_verb(std::string_view lemma) {
  Entry& e = words_[util::to_lower(lemma)];
  e.verb_lemma = true;
  e.pos.insert(Pos::kVerb);
}

void Lexicon::add_irregular_verb(std::string_view form, std::string_view lemma,
                                 VerbForm verb_form) {
  Entry& e = words_[util::to_lower(form)];
  e.irregular = VerbAnalysis{util::to_lower(lemma), verb_form};
  e.pos.insert(Pos::kVerb);
}

std::optional<VerbAnalysis> Lexicon::analyze_verb(std::string_view word) const {
  if (const Entry* e = find(word)) {
    if (e->irregular.has_value()) return e->irregular;
    if (e->verb_lemma) return VerbAnalysis{std::string(word), VerbForm::kBase};
  }
  return inflected_verb(word);
}

std::optional<VerbAnalysis> Lexicon::inflected_verb(std::string_view word) const {
  static constexpr std::pair<std::string_view, VerbForm> kRules[] = {
      {"ing", VerbForm::kGerund},
      {"ed", VerbForm::kPastParticiple},
      {"es", VerbForm::kThirdPerson},
      {"s", VerbForm::kThirdPerson},
  };
  std::string buffer;  // candidate stems that are not a prefix of the word
  const auto lemma = [&](std::string_view stem) {
    const Entry* e = find(stem);
    return e != nullptr && e->verb_lemma;
  };
  for (const auto& [suffix, form] : kRules) {
    if (word.size() <= suffix.size() || !word.ends_with(suffix)) continue;
    const std::string_view stem = word.substr(0, word.size() - suffix.size());
    // Candidate stems, most specific first: terminated -> terminate
    // (re-add 'e'), pressed -> press, plugged -> plug (undouble the final
    // consonant), carried -> carry ('i' -> 'y').
    buffer.assign(stem).push_back('e');
    if (lemma(buffer)) return VerbAnalysis{buffer, form};
    if (lemma(stem)) return VerbAnalysis{std::string(stem), form};
    const std::string_view shorter = stem.substr(0, stem.size() - 1);
    if (stem.size() >= 2 && stem.back() == shorter.back() && lemma(shorter)) {
      return VerbAnalysis{std::string(shorter), form};
    }
    if (stem.back() == 'i') {
      buffer.assign(shorter).push_back('y');
      if (lemma(buffer)) return VerbAnalysis{buffer, form};
    }
  }
  return std::nullopt;
}

std::optional<unsigned> Lexicon::time_unit_seconds(std::string_view word) const {
  if (word == "second" || word == "seconds") return 1;
  if (word == "minute" || word == "minutes") return 60;
  if (word == "hour" || word == "hours") return 3600;
  if (word == "tick" || word == "ticks") return 1;
  return std::nullopt;
}

PosSet Lexicon::lookup(std::string_view word) const {
  PosSet out;
  if (const Entry* e = find(word)) out = e->pos;
  // A listed irregular form or lemma already carries kVerb.
  if (!out.contains(Pos::kVerb) && inflected_verb(word).has_value()) {
    out.insert(Pos::kVerb);
  }
  if (!word.empty() && std::all_of(word.begin(), word.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      })) {
    out.insert(Pos::kNumber);
  }
  if (time_unit_seconds(word).has_value()) out.insert(Pos::kTimeUnit);
  if (!out.empty()) return out;

  // Suffix heuristics for open-class words outside the vocabulary.
  if (word.ends_with("able") || word.ends_with("ible") || word.ends_with("ive") ||
      word.ends_with("ous") || word.ends_with("al") || word.ends_with("ful")) {
    out.insert(Pos::kAdjective);
  } else if (word.ends_with("ly")) {
    out.insert(Pos::kAdverb);
  } else {
    out.insert(Pos::kNoun);
  }
  return out;
}

std::vector<std::pair<std::string_view, const Lexicon::Entry*>> Lexicon::entries()
    const {
  std::vector<std::pair<std::string_view, const Entry*>> out;
  out.reserve(words_.size());
  for (const auto& [word, e] : words_) out.emplace_back(word, &e);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

util::Digest Lexicon::fingerprint() const {
  // Sorted, so the digest is a pure function of the vocabulary's content,
  // not of hashing or insertion order. The byte layout predates the one
  // table: words with their POS sets, then the verb lemmas, then the
  // irregular forms, each list sorted.
  util::DigestBuilder builder("lexicon");
  const auto sorted = entries();
  builder.u64(sorted.size());
  std::size_t lemmas = 0;
  std::size_t irregulars = 0;
  for (const auto& [word, e] : sorted) {
    builder.str(word);
    builder.u64(static_cast<std::uint64_t>(e->pos.size()));
    e->pos.for_each([&](Pos pos) { builder.u64(static_cast<std::uint64_t>(pos)); });
    lemmas += e->verb_lemma ? 1 : 0;
    irregulars += e->irregular.has_value() ? 1 : 0;
  }
  builder.u64(lemmas);
  for (const auto& [word, e] : sorted) {
    if (e->verb_lemma) builder.str(word);
  }
  builder.u64(irregulars);
  for (const auto& [word, e] : sorted) {
    if (!e->irregular.has_value()) continue;
    builder.str(word);
    builder.str(e->irregular->lemma);
    builder.u64(static_cast<std::uint64_t>(e->irregular->form));
  }
  return builder.finalize();
}

Lexicon Lexicon::builtin() {
  Lexicon lex;

  // ---- Closed classes -------------------------------------------------------
  for (const char* w : {"the", "a", "an", "this", "that", "every", "each",
                        "some", "any"}) {
    lex.add(w, Pos::kDeterminer);
  }
  for (const char* w : {"shall", "should", "will", "would", "can", "could",
                        "must", "may"}) {
    lex.add(w, Pos::kModal);
  }
  for (const char* w : {"if", "after", "once", "when", "whenever", "while",
                        "before", "until", "next"}) {
    lex.add(w, Pos::kSubordinator);
  }
  for (const char* w : {"and", "or"}) lex.add(w, Pos::kConjunction);
  for (const char* w : {"in", "at", "to", "of", "for", "from", "with", "by",
                        "into", "on"}) {
    lex.add(w, Pos::kPreposition);
  }
  for (const char* w : {"not", "no", "never"}) lex.add(w, Pos::kNegation);
  lex.add("it", Pos::kPronoun);
  for (const char* w : {"then", "also", "so"}) lex.add(w, Pos::kMarker);
  for (const char* w : {"globally", "always", "sometimes", "eventually",
                        "immediately"}) {
    lex.add(w, Pos::kAdverb);
  }

  // Forms of "be".
  for (const char* w : {"be", "is", "are", "was", "were", "been", "being"}) {
    lex.add(w, Pos::kBe);
  }

  // ---- Verbs (base lemmas; inflections via morphology) -----------------------
  for (const char* v :
       {"enter",   "inflate",  "press",    "terminate", "start",    "run",
        "trigger", "select",   "detect",   "corroborate", "issue",  "provide",
        "disable", "enable",   "sound",    "plug",      "monitor",  "control",
        "drive",   "power",    "turn",     "lose",      "clear",    "remain",
        "become",  "stay",     "arrive",   "operate",   "read",     "give",
        "take",    "look",     "move",     "visit",     "carry",    "deliver",
        "rescue",  "find",     "search",   "reach",     "process",  "reserve",
        "order",   "ship",     "cancel",   "submit",    "display",  "post",
        "send",    "receive",  "browse",   "confirm",   "notify",   "update",
        "store",   "validate", "reject",   "approve",   "handle",   "request",
        "grant",   "release",  "activate", "deactivate", "suspend", "resume",
        "log",     "publish",  "retrieve", "refresh",   "verify",   "charge",
        "pay",     "deduct",   "restock",  "dispatch",  "queue",    "poll",
        "sample",  "measure",  "report",   "raise",     "silence",  "acknowledge"}) {
    lex.add_verb(v);
  }
  // Irregular inflections used by the corpora.
  lex.add_irregular_verb("is", "be", VerbForm::kThirdPerson);
  lex.add_irregular_verb("are", "be", VerbForm::kThirdPerson);
  lex.add_irregular_verb("was", "be", VerbForm::kPast);
  lex.add_irregular_verb("were", "be", VerbForm::kPast);
  lex.add_irregular_verb("been", "be", VerbForm::kPastParticiple);
  lex.add_irregular_verb("lost", "lose", VerbForm::kPastParticiple);
  lex.add_irregular_verb("ran", "run", VerbForm::kPast);
  lex.add_irregular_verb("running", "run", VerbForm::kGerund);
  lex.add_irregular_verb("found", "find", VerbForm::kPastParticiple);
  lex.add_irregular_verb("sent", "send", VerbForm::kPastParticiple);
  lex.add_irregular_verb("read", "read", VerbForm::kPastParticiple);
  lex.add_irregular_verb("paid", "pay", VerbForm::kPastParticiple);

  // ---- Adjectives (antonym candidates live here and in the dictionary) -------
  for (const char* adj :
       {"available", "unavailable", "valid",   "invalid",  "ok",
        "low",        "high",        "ready",   "operational", "lost",
        "enabled",    "disabled",    "open",    "closed",   "on",
        "off",        "empty",       "full",    "active",   "inactive",
        "busy",       "idle",        "visible", "hidden",   "present",
        "absent",     "injured",     "normal",  "faulty",   "connected",
        "disconnected", "locked",    "unlocked", "online",  "offline",
        "pending",    "complete",    "incomplete", "correct", "incorrect",
        "successful", "failed",      "clear",   "occluded"}) {
    lex.add(adj, Pos::kAdjective);
  }

  // ---- Nouns (corpus vocabulary) ---------------------------------------------
  for (const char* n :
       {"cara",     "lstat",     "pump",      "mode",     "auto",
        "manual",   "wait",      "control",   "button",   "alarm",
        "cuff",     "arterial",  "line",      "pulse",    "wave",
        "pressure", "blood",     "signal",    "air",      "occlusion",
        "infusate", "override",  "selection", "confirmation", "yes",
        "no",       "corroboration", "source", "battery", "power",
        "supply",   "impedance", "reading",   "monitor",  "detector",
        "system",   "software",  "patient",   "rate",     "infusion",
        "robot",    "room",      "medic",     "person",   "people",
        "shopping", "cart",      "item",      "order",    "article",
        "reservation", "information", "bulletin", "board", "application",
        "user",     "account",   "payment",   "card",     "stock",
        "catalog",  "request",   "response",  "message",  "notice",
        "session",  "page",      "query",     "database", "record",
        "customer", "editor",    "review",    "draft",    "seat",
        "schedule", "ticket",    "posting",   "moderator", "queue",
        "timeout",  "retry",     "error",     "status",   "light",
        "door",     "sensor",    "valve",     "heater",   "fan"}) {
    lex.add(n, Pos::kNoun);
  }

  return lex;
}

}  // namespace speccc::nlp
