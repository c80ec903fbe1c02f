// The workloads. Each runs for a fixed time, checks every verdict against
// its known answer, and fills a Report with either the end-to-end metrics
// (tracing off) or the per-layer metrics (the separate traced run).
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "trace.hpp"

namespace specbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Threads the workload may use in total (the machine's CPU count).
  int threads = 1;
};

/// The 22 Table I rows, cold, one pipeline, one spec at a time.
Report run_table1(const RunOptions& options, Tracer& tracer);

/// Seeded planted-fault specs through batch::check at jobs = threads. Its
/// traced run also drives seeded open-loop traffic into an in-process
/// serve::Service for the cache and serve layer figures.
Report run_planted(const RunOptions& options, Tracer& tracer);

}  // namespace specbench
