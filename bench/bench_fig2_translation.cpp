// Figure 2 (the syntax tree of Req-17): micro-benchmarks of the stages that
// build it -- tokenization, tagging, grammar parsing, dependency extraction
// and LTL generation -- plus one corpus-level lane that parses all 397
// Table I sentences, followed by the reproduced tree itself.
#include <benchmark/benchmark.h>

#include <iostream>

#include "batch/corpus_tasks.hpp"
#include "ltl/formula.hpp"
#include "nlp/dependency.hpp"
#include "nlp/syntax.hpp"
#include "nlp/tokenizer.hpp"
#include "semantics/antonyms.hpp"
#include "translate/translator.hpp"

namespace {

const char* kReq17 =
    "When auto-control mode is entered, eventually the cuff will be "
    "inflated.";

const speccc::nlp::Lexicon& lexicon() {
  static auto lex = speccc::nlp::Lexicon::builtin();
  return lex;
}

void BM_Tokenize(benchmark::State& state) {
  for (auto _ : state) {
    auto words = speccc::nlp::tokenize(kReq17);
    benchmark::DoNotOptimize(words.size());
  }
}
BENCHMARK(BM_Tokenize);

void BM_Tag(benchmark::State& state) {
  const auto words = speccc::nlp::tokenize(kReq17);
  for (auto _ : state) {
    auto tokens = speccc::nlp::tag(words, lexicon());
    benchmark::DoNotOptimize(tokens.size());
  }
}
BENCHMARK(BM_Tag);

void BM_ParseSentence(benchmark::State& state) {
  for (auto _ : state) {
    auto sentence = speccc::nlp::parse_sentence(kReq17, lexicon());
    benchmark::DoNotOptimize(sentence.main.clauses.size());
  }
}
BENCHMARK(BM_ParseSentence);

void BM_ParseTable1(benchmark::State& state) {
  std::vector<std::string> texts;
  for (const speccc::batch::SpecTask& task : speccc::batch::table1_tasks()) {
    for (const auto& requirement : task.requirements) {
      texts.push_back(requirement.text);
    }
  }
  for (auto _ : state) {
    for (const std::string& text : texts) {
      auto sentence = speccc::nlp::parse_sentence(text, lexicon());
      benchmark::DoNotOptimize(sentence.main.clauses.size());
    }
  }
  state.counters["sentences"] = static_cast<double>(texts.size());
}
BENCHMARK(BM_ParseTable1)->Unit(benchmark::kMicrosecond);

void BM_Dependencies(benchmark::State& state) {
  const auto sentence = speccc::nlp::parse_sentence(kReq17, lexicon());
  for (auto _ : state) {
    auto deps = speccc::nlp::dependencies(sentence);
    benchmark::DoNotOptimize(deps.size());
  }
}
BENCHMARK(BM_Dependencies);

void BM_TranslateReq17(benchmark::State& state) {
  const auto dictionary = speccc::semantics::AntonymDictionary::builtin();
  const speccc::translate::Translator translator(lexicon(), dictionary, {});
  for (auto _ : state) {
    auto result = translator.translate({{"Req-17", kReq17}});
    benchmark::DoNotOptimize(result.requirements.size());
  }
}
BENCHMARK(BM_TranslateReq17);

void print_figure2() {
  const auto sentence = speccc::nlp::parse_sentence(kReq17, lexicon());
  std::cout << "\nReproduced Fig. 2: syntax tree of Req-17\n"
            << speccc::nlp::syntax_tree(sentence);
  const auto dictionary = speccc::semantics::AntonymDictionary::builtin();
  const speccc::translate::Translator translator(lexicon(), dictionary, {});
  const auto result = translator.translate({{"Req-17", kReq17}});
  std::cout << "formula: "
            << speccc::ltl::to_string(result.requirements[0].formula,
                                      speccc::ltl::Style::kPaper)
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_figure2();
  return 0;
}
