// Measurement helpers shared by the workloads: clocks, process resource
// usage, order statistics, and the metric list printed at the end of a run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

namespace specbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// User plus system CPU seconds of the whole process (every thread).
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set size of the process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The q-quantile (0 <= q <= 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the verdict tally behind `correct`/`attempted`/
/// `failed`, the metrics, and the first few failure descriptions.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // capped; printed to stderr
  std::vector<Metric> metrics;
  /// Set when the run could not be measured honestly (the replica guard or
  /// the open-loop generator bound tripped); nothing is printed then.
  std::string invalid;

  void count(const std::string& failure) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(failure);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

}  // namespace specbench
