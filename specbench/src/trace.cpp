#include "trace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "automata/emptiness.hpp"
#include "cache/store.hpp"
#include "core/pipeline.hpp"
#include "ltl/rewrite.hpp"
#include "nlp/syntax.hpp"
#include "partition/partition.hpp"
#include "refine/refine.hpp"
#include "semantics/reasoning.hpp"
#include "synth/synthesizer.hpp"
#include "timeabs/abstraction.hpp"
#include "translate/translator.hpp"

namespace specbench {

using namespace speccc;

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
      .count();
}

int Tracer::open(const char* name, int parent, int spec) {
  spans_.push_back({name, now_ms(), 0.0, parent, spec});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) { spans_[static_cast<std::size_t>(id)].end_ms = now_ms(); }

void Tracer::write_jsonl(std::ostream& os) const {
  os << std::fixed << std::setprecision(4);  // 0.1 us over runs of minutes
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
       << ", \"parent\": " << s.parent << ", \"spec\": " << s.spec << "}\n";
  }
}

struct TracedPipeline::Impl {
  // The defaults core::Pipeline runs with when given no options, which is
  // how the table1 and planted workloads construct theirs.
  core::PipelineOptions options;
  nlp::Lexicon lexicon = nlp::Lexicon::builtin();
  semantics::AntonymDictionary dictionary =
      semantics::AntonymDictionary::builtin();
  // The first translation pass is handed the parses the walk already timed
  // (through a private store), so parsing is not counted twice; the second
  // pass re-parses exactly as an uncached Pipeline::run does.
  cache::Store parses{cache::StoreOptions{.shards = 1, .max_entries = 0}};
  util::Digest fingerprint = lexicon.fingerprint();
  translate::Translator reuse_parses{lexicon, dictionary, options.translation,
                                     &parses};
  translate::Translator plain{lexicon, dictionary, options.translation};
};

TracedPipeline::TracedPipeline() : impl_(std::make_unique<Impl>()) {}
TracedPipeline::~TracedPipeline() = default;

Verdict TracedPipeline::run(Tracer& tracer, int spec,
                            const batch::SpecTask& task, LayerCounts& n) {
  Impl& m = *impl_;
  const core::PipelineOptions& opts = m.options;
  const int root = tracer.open("spec", -1, spec);
  const auto timed = [&](const char* name, auto&& call) {
    const int id = tracer.open(name, root, spec);
    auto value = call();
    tracer.close(id);
    return value;
  };

  // ---- Stage 1 ----------------------------------------------------------
  const auto sentences = timed("nlp.parse", [&] {
    std::vector<nlp::Sentence> out;
    for (const auto& req : task.requirements) {
      out.push_back(nlp::parse_sentence(req.text, m.lexicon));
    }
    return out;
  });
  n.sentences += sentences.size();
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    m.parses.put_sentence(
        cache::sentence_key(
            cache::normalize_sentence(task.requirements[i].text),
            m.fingerprint),
        sentences[i]);
  }
  timed("semantics.reason",
        [&] { return semantics::reason(sentences, m.dictionary); });

  auto translation = timed(
      "translate", [&] { return m.reuse_parses.translate(task.requirements); });
  ++n.translate_calls;
  const auto thetas = translation.thetas();
  if (opts.time_abstraction && !thetas.empty()) {
    timeabs::Request request;
    request.thetas = thetas;
    request.error_budget = opts.error_budget;
    const auto abstraction = timed("timeabs", [&] {
      return timeabs::optimize(request, opts.timeabs_backend, opts.smt_encoder);
    });
    ++n.timeabs_calls;
    if (!abstraction.has_value()) {
      throw std::runtime_error("time abstraction found no divisor");
    }
    std::map<unsigned, unsigned> remap;
    for (std::size_t i = 0; i < thetas.size(); ++i) {
      remap[thetas[i]] = abstraction->reduced[i];
    }
    const translate::TickMapper mapper = [remap](unsigned ticks) -> unsigned {
      const auto it = remap.find(ticks);
      return it == remap.end() ? ticks : it->second;
    };
    translation = timed(
        "translate", [&] { return m.plain.translate(task.requirements, mapper); });
    ++n.translate_calls;
  }

  const std::vector<ltl::Formula> formulas = translation.formulas();
  const partition::Partition partition = timed("partition", [&] {
    return partition::unify(formulas, opts.partition_overrides);
  });

  Verdict v;
  for (const auto& req : translation.requirements) {
    const std::size_t depth = ltl::max_next_chain(req.formula);
    n.next_depth_max = std::max(n.next_depth_max, depth);
    if (!opts.satisfiability_check) continue;
    if (depth > opts.satisfiability_chain_cap) {
      ++n.screen_skipped;
      continue;
    }
    const int id = tracer.open("automata.screen", root, spec);
    const bool satisfiable = automata::satisfiable(req.formula);
    tracer.close(id);
    const Span& s = tracer.spans()[static_cast<std::size_t>(id)];
    n.screen_max_ms = std::max(n.screen_max_ms, s.end_ms - s.start_ms);
    ++n.screen_calls;
    if (!satisfiable) {
      ++n.screen_unsat;
      v.unsatisfiable.push_back(req.id);
    }
  }

  // ---- Stage 2 ----------------------------------------------------------
  synth::IoSignature signature;
  signature.inputs.assign(partition.inputs.begin(), partition.inputs.end());
  signature.outputs.assign(partition.outputs.begin(), partition.outputs.end());
  const synth::SynthesisResult synthesis = timed("synth", [&] {
    return synth::synthesize(formulas, signature, opts.synthesis);
  });
  ++n.synth_calls;
  if (synthesis.engine_used == synth::Engine::kSymbolic) ++n.symbolic_calls;
  if (synthesis.engine_used == synth::Engine::kBounded) ++n.bounded_calls;
  n.bdd_peak_nodes_max =
      std::max(n.bdd_peak_nodes_max, synthesis.bdd_stats.peak_nodes);
  n.bdd_cache_hits += synthesis.bdd_stats.cache_hits;
  n.bdd_cache_lookups +=
      synthesis.bdd_stats.cache_hits + synthesis.bdd_stats.cache_misses;
  n.game_positions_max =
      std::max(n.game_positions_max, synthesis.game_positions);

  // ---- Stage 3 ----------------------------------------------------------
  v.consistent = synthesis.verdict == synth::Realizability::kRealizable;
  partition::Partition final_partition = partition;
  if (!v.consistent && opts.refine_on_failure) {
    const refine::RefinementOutcome outcome = timed("refine", [&] {
      return refine::refine(formulas, partition, opts.synthesis,
                            opts.localization);
    });
    ++n.refine_calls;
    n.refine_checks += outcome.checks;
    for (std::size_t i : outcome.localization.core) {
      v.mus.push_back(translation.requirements.at(i).id);
    }
    if (outcome.consistent) {
      ++n.refine_repaired;
      v.consistent = true;
      final_partition = outcome.partition;
    }
  }
  tracer.close(root);

  v.formulas = formulas.size();
  v.inputs = final_partition.inputs.size();
  v.outputs = final_partition.outputs.size();
  return v;
}

SelfTimes self_times(const std::vector<Span>& spans, std::size_t first) {
  SelfTimes out;
  std::vector<double> children_ms(spans.size(), 0.0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ms < s.start_ms) {
      out.error = std::string("span ") + s.name + " was never closed";
    }
    if (s.parent >= 0) {
      children_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  // Each span's self time is its duration less its children's, so the self
  // times sum to the root spans by construction; the guard that can fail is
  // the caller's comparison of the roots with a clock outside the tracer.
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out.ms_by_name[s.name] += s.end_ms - s.start_ms - children_ms[i];
    if (s.parent < 0) out.root_ms += s.end_ms - s.start_ms;
  }
  return out;
}

}  // namespace specbench
