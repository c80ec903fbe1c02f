// speccc_shard: distributed corpus checking over speccc_batch workers.
//
// Deals the task list round-robin across K `speccc_batch` subprocesses
// (shard/coordinator.hpp), merges the per-shard reports, and prints one
// input-ordered report whose canonical rendering is byte-identical to the
// equivalent unsharded `speccc_batch --canonical` run -- sharding, like
// --jobs and --cache, never touches the determinism contract. Worker
// failures (crashes, bad exits, timeouts, malformed reports) are retried
// with bounded exponential backoff and surfaced in the non-canonical
// statistics; a shard that exhausts its retries is a structured per-shard
// error and exit code 3.
//
//   $ ./speccc_shard --corpus table1 --shards 4
//   $ ./speccc_shard path/to/specs/ --shards 8 --jobs-per-shard 2 --cache
//   $ ./speccc_shard --corpus table1 --cache-snapshot warm.snap,warm.snap
//
// Inputs: exactly speccc_batch's (FILE | DIR, --manifest, --corpus,
// --generate/--seed) -- they are handed to every worker verbatim, and the
// worker selects its shard with --shard-index/--shard-count.
//
// Coordinator options:
//   --shards K           worker subprocesses (default 2)
//   --jobs-per-shard N   --jobs inside each worker (default 1)
//   --retries N          per-shard retry budget (default 2): a shard may
//                        run up to N+1 attempts before it is declared dead
//   --worker-timeout S   per-attempt wall-clock limit in seconds; expired
//                        workers are SIGKILLed and retried (default 0 =
//                        unlimited)
//   --worker CMD         worker executable (default: speccc_batch next to
//                        this binary). Test harnesses point this at
//                        fault-injection wrappers
//   --scratch DIR        keep per-shard outputs in DIR (default: a fresh
//                        temporary directory, removed afterwards)
//   --cache-snapshot IN,OUT
//                        warm-start every worker from snapshot IN, then
//                        merge the per-shard stores into snapshot OUT
//                        (either side may be empty). Implies --cache
//   --json FILE          write the merged JSON report ('-' for stdout):
//                        totals, summed cache counters, and the per-shard
//                        attempt history
//   --canonical          print the canonical merged report instead of the
//                        human summary
//   --quiet              suppress the per-shard progress notes
//
// Worker passthrough (forwarded verbatim): --cache, --cache-max,
// --time-budget, --substrate, --crosscheck, --diagnose,
// --max-correction-sets, --strict-next, --timeabs, --smt-encoder.
//
// Exit code (speccc_batch-compatible): 0 all consistent; 2 some spec
// inconsistent; 3 errors, shard failures, budget exhaustion, cancellation,
// or substrate disagreement; 1 usage.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "shard/coordinator.hpp"
#include "util/diagnostics.hpp"
#include "util/strings.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: speccc_shard [FILE|DIR ...] [--manifest FILE]\n"
         "                    [--corpus cara|tele|robot|table1]\n"
         "                    [--generate N] [--seed S]\n"
         "                    [--shards K] [--jobs-per-shard N]\n"
         "                    [--retries N] [--worker-timeout S]\n"
         "                    [--worker CMD] [--scratch DIR]\n"
         "                    [--json FILE] [--canonical] [--quiet]\n"
         "                    [--cache] [--cache-max N]\n"
         "                    [--cache-snapshot IN,OUT]\n"
         "                    [--time-budget S]\n"
         "                    [--substrate auto|NAME|race:a,b,...]\n"
         "                    [--crosscheck] [--diagnose]\n"
         "                    [--max-correction-sets N] [--strict-next]\n"
         "                    [--timeabs enum|smt] [--smt-encoder mapped|tseitin]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speccc;

  shard::CoordinatorOptions options;
  std::string json_path;
  bool canonical_output = false;
  bool quiet = false;
  bool want_cache = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_arg = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs an argument\n";
        std::exit(usage());
      }
      return argv[++i];
    };
    // The next argument, whole, as a number in [min, max] ("2x" is not 2).
    const auto next_number = [&]<typename T>(
                                 T min, T max = std::numeric_limits<T>::max()) {
      const std::string text = next_arg();
      if (const auto value = util::parse_number(text, min, max)) return *value;
      std::cerr << arg << ": bad value \"" << text << "\"\n";
      std::exit(usage());
    };
    if (arg == "--shards") {
      options.shards = next_number(std::size_t{1});
    } else if (arg == "--jobs-per-shard") {
      options.jobs_per_shard = next_number(1);
    } else if (arg == "--retries") {
      options.retries = next_number(0);
    } else if (arg == "--worker-timeout") {
      options.worker_timeout_seconds = next_number(0.0);
    } else if (arg == "--worker") {
      options.worker_command = {next_arg()};
    } else if (arg == "--scratch") {
      options.scratch_dir = next_arg();
      options.keep_scratch = true;
    } else if (arg == "--cache-snapshot") {
      const std::string spec = next_arg();
      const auto comma = spec.find(',');
      if (comma == std::string::npos) {
        std::cerr << "--cache-snapshot needs IN,OUT (either side may be "
                     "empty)\n";
        return usage();
      }
      options.snapshot_in = spec.substr(0, comma);
      options.snapshot_out = spec.substr(comma + 1);
      want_cache = true;
    } else if (arg == "--json") {
      json_path = next_arg();
    } else if (arg == "--canonical") {
      canonical_output = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--cache" || arg == "--crosscheck" ||
               arg == "--diagnose" || arg == "--strict-next") {
      if (arg == "--cache") want_cache = true;
      options.worker_args.push_back(arg);
    } else if (arg == "--cache-max" || arg == "--time-budget" ||
               arg == "--substrate" || arg == "--max-correction-sets" ||
               arg == "--timeabs" || arg == "--smt-encoder" ||
               arg == "--manifest" || arg == "--corpus" ||
               arg == "--generate" || arg == "--seed") {
      // Valued passthrough / input options: forward the pair verbatim.
      options.worker_args.push_back(arg);
      options.worker_args.push_back(next_arg());
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    } else {
      options.worker_args.push_back(arg);  // FILE | DIR input
    }
  }
  // --cache-snapshot implies --cache in the workers (a snapshot of a
  // store that never existed would always be empty).
  if (want_cache &&
      std::find(options.worker_args.begin(), options.worker_args.end(),
                "--cache") == options.worker_args.end()) {
    options.worker_args.push_back("--cache");
  }

  if (options.worker_args.empty()) {
    std::cerr << "no specifications to check\n";
    return usage();
  }

  shard::MergedReport report;
  try {
    report = shard::run_sharded(options);
  } catch (const util::SpecError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::ostream& text_out = json_path == "-" ? std::cerr : std::cout;
  if (canonical_output) {
    // The determinism contract: these bytes match the unsharded
    // `speccc_batch --canonical` run exactly. Everything else (attempt
    // history, timings, cache counters) stays off this stream.
    text_out << shard::canonical(report);
    if (!report.complete && !quiet) shard::print_summary(std::cerr, report);
  } else {
    shard::print_summary(text_out, report);
  }
  if (!json_path.empty()) {
    if (json_path == "-") {
      std::cout << shard::to_json(report);
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
      }
      out << shard::to_json(report);
      if (!quiet) std::cerr << "JSON report written to " << json_path << "\n";
    }
  }
  return report.exit_code();
}
