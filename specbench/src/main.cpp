// specbench: the end-to-end SpecCC benchmark.
//
//   specbench --workload table1|planted --seed N --seconds S
//             --trace 0|1 [--commit SHA] [--spans-out FILE]
//
// Prints a stamp line (CPU count, build type, compiler, seed, commit, load
// average at start) and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// come from the separate traced run. See specbench/README.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.hpp"

#ifndef SPECBENCH_BUILD_TYPE
#define SPECBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SPECBENCH_COMPILER
#define SPECBENCH_COMPILER "unknown"
#endif

namespace {

int usage(const std::string& why) {
  std::cerr << "specbench: " << why << "\n"
            << "usage: specbench --workload table1|planted --seed N "
               "--seconds S --trace 0|1 [--commit SHA] [--spans-out FILE]\n";
  return 2;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  in >> one;
  return one.empty() ? "unknown" : one;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  std::string spans_out;
  specbench::RunOptions options;
  int trace = -1;
  double seconds = -1.0;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
      seeded = true;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (workload.empty() || !seeded || seconds < 0 || trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (workload != "table1" && workload != "planted") {
    return usage("unknown workload " + workload);
  }

  // A baseline counts only with its CPU count and build type written down,
  // and only from an optimized build.
  const std::string build_type = SPECBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::cerr << "specbench: refusing to report from a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  options.seconds = seconds;
  options.trace = trace == 1;
  options.threads = cpu_count();
  std::cout << "{\"stamp\": {\"workload\": " << quoted(workload)
            << ", \"seed\": " << options.seed << ", \"seconds\": "
            << number(seconds) << ", \"trace\": " << trace
            << ", \"nproc\": " << options.threads
            << ", \"build_type\": " << quoted(build_type)
            << ", \"compiler\": " << quoted(SPECBENCH_COMPILER)
            << ", \"commit\": " << quoted(commit)
            << ", \"loadavg_1m\": " << quoted(load_average()) << "}}"
            << std::endl;

  specbench::Tracer tracer;
  specbench::Report report;
  if (workload == "table1") {
    report = specbench::run_table1(options, tracer);
  } else {
    report = specbench::run_planted(options, tracer);
  }

  if (!spans_out.empty() && options.trace) {
    std::ofstream out(spans_out);
    tracer.write_jsonl(out);
    if (!out) std::cerr << "specbench: could not write " << spans_out << "\n";
  }
  for (const std::string& f : report.failures) {
    std::cerr << "specbench: wrong answer: " << f << "\n";
  }
  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) report.invalid = m.name + " is not finite";
  }
  if (!report.invalid.empty()) {
    std::cerr << "specbench: run invalid, not reported: " << report.invalid
              << "\n";
    return 1;
  }

  std::string metrics;
  for (const auto& m : report.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + quoted(m.name) +
               ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
  }
  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
