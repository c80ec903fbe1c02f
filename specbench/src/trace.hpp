// The traced replica of core::Pipeline::run.
//
// The benchmark cannot put spans inside the product, so it walks each
// specification through the layers' public functions itself, in
// Pipeline::run's order, and records one span around each call: nlp parse,
// semantic reasoning, translation (both passes), time abstraction,
// partition, the per-requirement satisfiability screen, stage-2 synthesis
// and stage-3 refinement. The replica's verdict is compared with
// Pipeline::run's on the same spec (the replica guard), so a drift between
// the two shows up as an invalid per-layer report instead of silently
// wrong numbers.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "answers.hpp"
#include "batch/batch.hpp"
#include "measure.hpp"

namespace specbench {

struct Span {
  const char* name = "";
  double start_ms = 0.0;  // since the tracer's epoch
  double end_ms = 0.0;
  int parent = -1;  // index into the span list; -1 for a spec's root
  int spec = 0;     // shared by every span of one specification
};

/// Spans kept in memory and written out once, at the end of the run.
class Tracer {
 public:
  int open(const char* name, int parent, int spec);
  void close(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void write_jsonl(std::ostream& os) const;

 private:
  [[nodiscard]] double now_ms() const;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Counts taken at the same boundaries as the spans.
struct LayerCounts {
  std::size_t sentences = 0;
  std::size_t translate_calls = 0;
  std::size_t timeabs_calls = 0;
  std::size_t screen_calls = 0;
  std::size_t screen_skipped = 0;  // Next chain above the cap
  std::size_t screen_unsat = 0;
  std::size_t next_depth_max = 0;
  double screen_max_ms = 0.0;
  std::size_t synth_calls = 0;
  std::size_t symbolic_calls = 0;
  std::size_t bounded_calls = 0;
  std::size_t bdd_peak_nodes_max = 0;
  std::size_t bdd_cache_hits = 0;
  std::size_t bdd_cache_lookups = 0;
  std::size_t game_positions_max = 0;
  std::size_t refine_calls = 0;
  std::size_t refine_checks = 0;
  std::size_t refine_repaired = 0;
};

/// Walks specifications through the layers with the default pipeline
/// options (no cache), recording spans and counts.
class TracedPipeline {
 public:
  TracedPipeline();
  ~TracedPipeline();
  TracedPipeline(const TracedPipeline&) = delete;
  TracedPipeline& operator=(const TracedPipeline&) = delete;

  /// One specification; its spans share the id `spec`.
  Verdict run(Tracer& tracer, int spec, const speccc::batch::SpecTask& task,
              LayerCounts& counts);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Self time per span name, summed over a range of spans. The root spans'
/// own self time is reported under "spec" (core.self_ms).
struct SelfTimes {
  std::map<std::string, double> ms_by_name;
  double root_ms = 0.0;  // summed root span durations
  /// Non-empty when a span was opened and never closed.
  std::string error;
};

[[nodiscard]] SelfTimes self_times(const std::vector<Span>& spans,
                                   std::size_t first);

}  // namespace specbench
