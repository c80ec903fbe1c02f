// SpecCC command-line front end: consistency-check a requirement document.
//
// This is the paper's Fig. 1 workflow as a tool: read one structured-English
// requirement per line, translate to LTL (Section IV), abstract time
// constants (Section IV-E), partition inputs/outputs (Section IV-F), and
// decide consistency via realizability (Section V-A), optionally exporting
// the synthesized controller. The --lexicon/--antonyms options demonstrate
// the user-extensible dictionaries of Sections IV-B and IV-D.
//
//   $ ./check_spec requirements.txt [options]
//
// Options:
//   --strict-next      translate "next" as a real X operator
//   --no-reasoning     disable Section IV-D semantic reasoning
//   --no-abstraction   disable Section IV-E time abstraction
//   --budget N         arrival-error budget B (default 5)
//   --lexicon FILE     extend the lexicon ("word pos" lines)
//   --antonyms FILE    extend the antonym dictionary ("positive negative")
//   --formulas         print the translated formulas
//   --dot FILE         write the synthesized controller as Graphviz DOT
//
// Exit code: 0 consistent, 2 inconsistent, 1 usage/parsing error.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "corpus/loaders.hpp"
#include "ltl/formula.hpp"
#include "synth/mealy_export.hpp"
#include "util/args.hpp"

namespace {

int usage() {
  std::cerr << "usage: check_spec requirements.txt [--strict-next] "
               "[--no-reasoning] [--no-abstraction] [--budget N] "
               "[--lexicon FILE] [--antonyms FILE] [--formulas] [--dot FILE]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speccc;

  std::string spec_path;
  std::string dot_path;
  bool print_formulas = false;
  core::PipelineOptions options;
  auto lexicon = nlp::Lexicon::builtin();
  auto dictionary = semantics::AntonymDictionary::builtin();

  try {
    util::Args args(argc, argv);
    while (args.advance()) {
      const std::string& arg = args.flag();
      if (arg == "--strict-next") {
        options.translation.next_mode = translate::NextMode::kStrict;
      } else if (arg == "--no-reasoning") {
        options.translation.semantic_reasoning = false;
      } else if (arg == "--no-abstraction") {
        options.time_abstraction = false;
      } else if (arg == "--budget") {
        options.error_budget = args.number(std::uint32_t{0});
      } else if (arg == "--lexicon") {
        std::ifstream in(args.next());
        if (!in) {
          std::cerr << "cannot open lexicon file\n";
          return 1;
        }
        corpus::load_lexicon(in, lexicon);
      } else if (arg == "--antonyms") {
        std::ifstream in(args.next());
        if (!in) {
          std::cerr << "cannot open antonym file\n";
          return 1;
        }
        corpus::load_antonyms(in, dictionary);
      } else if (arg == "--formulas") {
        print_formulas = true;
      } else if (arg == "--dot") {
        dot_path = args.next();
        options.synthesis.symbolic.extract = true;
      } else if (spec_path.empty() && arg[0] != '-') {
        spec_path = arg;
      } else {
        return usage();
      }
    }
  } catch (const util::UsageError& e) {
    std::cerr << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {  // a malformed --lexicon/--antonyms
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (spec_path.empty()) return usage();

  std::ifstream in(spec_path);
  if (!in) {
    std::cerr << "cannot open " << spec_path << "\n";
    return 1;
  }

  try {
    const auto requirements = corpus::load_requirements(in);
    if (requirements.empty()) {
      std::cerr << "no requirements in " << spec_path << "\n";
      return 1;
    }
    options.lexicon = std::move(lexicon);
    options.dictionary = std::move(dictionary);
    core::Pipeline pipeline(std::move(options));
    const auto result = pipeline.run(spec_path, requirements);

    if (print_formulas) {
      for (const auto& r : result.translation.requirements) {
        std::cout << r.id << ": " << ltl::to_string(r.formula) << "\n";
      }
      std::cout << "\n";
    }
    std::cout << core::describe(result);

    if (!dot_path.empty() && result.synthesis.controller.has_value()) {
      std::ofstream dot(dot_path);
      dot << synth::to_dot(*result.synthesis.controller);
      std::cout << "controller written to " << dot_path << "\n";
    }
    return result.consistent ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
