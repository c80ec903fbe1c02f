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
//   $ ./speccc_shard path/to/specs/ --shards 4
//   $ ./speccc_shard path/to/specs/ --shards 8 --jobs-per-shard 2 --cache
//   $ ./speccc_shard path/to/specs/ --cache-snapshot warm.snap,warm.snap
//
// Inputs and check flags: exactly speccc_batch's, the shared flag table
// of docs/TOOLS.md. The coordinator parses each one with batch's own
// parser, so a bad value is a usage error before any worker starts; it
// then hands the tokens to every worker verbatim, and the worker selects
// its shard with --shard-index/--shard-count.
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
// Exit code (speccc_batch-compatible): 0 all consistent; 2 some spec
// inconsistent; 3 errors, shard failures, budget exhaustion, cancellation,
// or substrate disagreement; 1 usage.
#include <iostream>
#include <string>
#include <utility>

#include "cli.hpp"
#include "shard/coordinator.hpp"
#include "util/args.hpp"
#include "util/diagnostics.hpp"

namespace {

int usage() {
  std::cerr << "usage: speccc_shard [--shards K] [--jobs-per-shard N]\n"
               "                    [--retries N] [--worker-timeout S]\n"
               "                    [--worker CMD] [--scratch DIR]\n"
               "                    [--json FILE] [--canonical] [--quiet]\n"
               "                    [--cache-snapshot IN,OUT]\n"
            << speccc::cli::kCheckUsage;
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
  // What the forwarded flags select; parsed only to reject bad values here.
  cli::CheckArgs forwarded;

  try {
    util::Args args(argc, argv);
    while (args.advance()) {
      const std::string& arg = args.flag();
      if (arg == "--shards") {
        options.shards = args.number(std::size_t{1});
      } else if (arg == "--jobs-per-shard") {
        options.jobs_per_shard = args.number(1);
      } else if (arg == "--retries") {
        options.retries = args.number(0);
      } else if (arg == "--worker-timeout") {
        options.worker_timeout_seconds = args.number(0.0);
      } else if (arg == "--worker") {
        options.worker_command = {args.next()};
      } else if (arg == "--scratch") {
        options.scratch_dir = args.next();
        options.keep_scratch = true;
      } else if (arg == "--cache-snapshot") {
        cli::SnapshotPair snapshot = cli::snapshot_pair(args.next());
        options.snapshot_in = std::move(snapshot.in);
        options.snapshot_out = std::move(snapshot.out);
        want_cache = true;
      } else if (arg == "--json") {
        json_path = args.next();
      } else if (arg == "--canonical") {
        canonical_output = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (cli::check_flag(args, forwarded)) {
        const auto taken = args.taken();
        options.worker_args.insert(options.worker_args.end(), taken.begin(),
                                   taken.end());
      } else {
        throw util::UsageError("unknown option: " + arg);
      }
    }
  } catch (const util::UsageError& e) {
    std::cerr << e.what() << "\n";
    return usage();
  }
  // --cache-snapshot implies --cache in the workers (a snapshot of a
  // store that never existed would always be empty).
  if (want_cache && !forwarded.cache) options.worker_args.push_back("--cache");

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
  if (!json_path.empty() &&
      !cli::write_json(json_path, shard::to_json(report), quiet)) {
    return 1;
  }
  return report.exit_code();
}
