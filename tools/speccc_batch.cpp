// speccc_batch: parallel consistency checking of many specifications.
//
// Feeds a batch of requirement documents through the work-stealing
// scheduler of batch/batch.hpp -- one whole-spec Fig. 1 pipeline run per
// task, one bdd::Manager per worker -- and prints a deterministic,
// input-ordered report. The same engine serves the paper's corpus
// reproduction (--corpus), differential-fuzzing throughput (--generate,
// the exact spec cases speccc_fuzz derives from the same seed), and ad-hoc
// requirement directories.
//
//   $ ./speccc_batch --corpus table1 --jobs 4
//   $ ./speccc_batch path/to/specs/ --jobs 8 --json report.json
//   $ ./speccc_batch --manifest specs.lst --time-budget 30
//   $ ./speccc_batch --generate 64 --seed 42 --jobs 4 --crosscheck
//
// Inputs (--manifest, --corpus, --generate/--seed, FILE|DIR) and the
// check flags this tool shares with speccc_shard and speccc_serve are in
// the shared flag table of docs/TOOLS.md. Inputs combine, and tasks keep
// the listing order (generated specs last).
//
// Options of this tool alone:
//   --jobs N           worker threads (default: hardware concurrency)
//   --json FILE        write the JSON report to FILE ('-' for stdout)
//   --canonical        print the canonical (timing-free) report instead of
//                      the human summary -- the parallel-equals-sequential
//                      determinism contract in printable form
//   --cache-stats      implies --cache. With caching on, the human summary
//                      and the JSON report always carry the hit/miss/
//                      eviction counters; this flag additionally prints
//                      them (to stderr) in --canonical mode, whose stdout
//                      stream must stay byte-identical cache-on vs off
//   --cache-snapshot IN,OUT
//                      implies --cache. Load the persistent store snapshot
//                      IN before the batch (warm start) and save the store
//                      to OUT afterwards (atomic temp-file + rename).
//                      Either side may be empty: ",warm.snap" saves only,
//                      "warm.snap," loads only. A snapshot that is
//                      truncated, corrupted, the wrong format version, or
//                      stamped with a different lexicon fingerprint is
//                      rejected with a structured diagnostic and exit
//                      code 1 -- never a silent cold start
//   --shard-index S / --shard-count K
//                      run only shard S of a K-way round-robin deal of the
//                      task list (shard/splitter.hpp: shard S owns input
//                      indices S, S+K, S+2K, ...). Used by speccc_shard's
//                      coordinator; the canonical rows of the K shards
//                      interleaved are byte-identical to the unsharded run
//   --quiet            suppress the per-spec progress line
//
// BDD engine statistics: tasks decided by the symbolic engine carry their
// per-worker bdd::Manager counters (peak nodes, unique-table hits,
// computed-cache hits/misses/evictions). The human summary prints the
// batch aggregate, the JSON report carries both the aggregate ("bdd") and
// per-spec peak/hit counters; the canonical report never includes them
// (diagnostics, like timings and steal counts).
//
// Exit code: 0 all consistent; 2 some spec inconsistent; 3 errors, budget
// exhaustion, cancellation, or substrate disagreement; 1 usage.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "cache/store.hpp"
#include "cli.hpp"
#include "corpus/loaders.hpp"
#include "shard/splitter.hpp"
#include "util/args.hpp"
#include "util/diagnostics.hpp"

namespace fs = std::filesystem;

namespace {

int usage() {
  std::cerr << "usage: speccc_batch [--jobs N] [--json FILE] [--canonical] [--quiet]\n"
               "                    [--cache-stats] [--cache-snapshot IN,OUT]\n"
               "                    [--shard-index S --shard-count K]\n"
            << speccc::cli::kCheckUsage;
  return 1;
}

speccc::batch::SpecTask load_spec_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw speccc::util::InvalidInputError("cannot open " + path.string());
  }
  return {path.string(), speccc::corpus::load_requirements(in)};
}

void add_directory(const fs::path& dir,
                   std::vector<speccc::batch::SpecTask>& tasks) {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".txt" || ext == ".spec") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) tasks.push_back(load_spec_file(file));
}

void add_manifest(const fs::path& manifest,
                  std::vector<speccc::batch::SpecTask>& tasks) {
  std::ifstream in(manifest);
  if (!in) {
    throw speccc::util::InvalidInputError("cannot open manifest " +
                                          manifest.string());
  }
  const fs::path base = manifest.parent_path();
  std::string line;
  while (std::getline(in, line)) {
    // Trim whitespace; skip blanks and comments.
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const auto end = line.find_last_not_of(" \t\r");
    const fs::path entry = line.substr(begin, end - begin + 1);
    tasks.push_back(load_spec_file(entry.is_absolute() ? entry : base / entry));
  }
}

/// The spec tasks the recorded inputs name, in listing order, generated
/// specs last.
std::vector<speccc::batch::SpecTask> load_inputs(
    const speccc::cli::CheckArgs& check) {
  using speccc::cli::Input;
  std::vector<speccc::batch::SpecTask> tasks;
  for (const Input& input : check.inputs) {
    if (input.kind == Input::Kind::kManifest) {
      add_manifest(input.value, tasks);
    } else if (input.kind == Input::Kind::kCorpus) {
      for (speccc::batch::SpecTask& task :
           speccc::cli::corpus_tasks(input.value)) {
        tasks.push_back(std::move(task));
      }
    } else if (fs::is_directory(input.value)) {
      add_directory(input.value, tasks);
    } else {
      tasks.push_back(load_spec_file(input.value));
    }
  }
  for (speccc::batch::SpecTask& task :
       speccc::cli::generated_tasks(check.seed, check.generate)) {
    tasks.push_back(std::move(task));
  }
  return tasks;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speccc;

  std::vector<batch::SpecTask> tasks;
  cli::CheckArgs check;
  batch::BatchOptions& options = check.options;
  std::string json_path;
  bool canonical_output = false;
  bool quiet = false;
  bool print_cache_stats = false;
  cli::SnapshotPair snapshot;
  bool use_snapshot = false;
  long long shard_index = -1;
  long long shard_count = 0;

  try {
    util::Args args(argc, argv);
    while (args.advance()) {
      const std::string& arg = args.flag();
      if (arg == "--jobs") {
        options.jobs = args.number(1);
      } else if (arg == "--json") {
        json_path = args.next();
      } else if (arg == "--canonical") {
        canonical_output = true;
      } else if (arg == "--cache-stats") {
        check.cache = true;
        print_cache_stats = true;
      } else if (arg == "--cache-snapshot") {
        snapshot = cli::snapshot_pair(args.next());
        use_snapshot = true;
        check.cache = true;
      } else if (arg == "--shard-index") {
        shard_index = args.number(0LL);
      } else if (arg == "--shard-count") {
        shard_count = args.number(1LL);
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (!cli::check_flag(args, check)) {
        throw util::UsageError("unknown option: " + arg);
      }
    }
    tasks = load_inputs(check);
  } catch (const util::UsageError& e) {
    std::cerr << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (tasks.empty()) {
    std::cerr << "no specifications to check\n";
    return usage();
  }

  // Shard selection runs after the "no specifications" check: a shard that
  // legitimately receives zero tasks (K > corpus size) is an empty report,
  // not a usage error.
  if (shard_index >= 0 || shard_count > 0) {
    if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
      std::cerr << "--shard-index/--shard-count need 0 <= S < K\n";
      return usage();
    }
    std::vector<batch::SpecTask> mine;
    mine.reserve(shard::shard_size(tasks.size(),
                                   static_cast<std::size_t>(shard_count),
                                   static_cast<std::size_t>(shard_index)));
    for (std::size_t index = 0; index < tasks.size(); ++index) {
      if (shard::shard_of(index, static_cast<std::size_t>(shard_count)) ==
          static_cast<std::size_t>(shard_index)) {
        mine.push_back(std::move(tasks[index]));
      }
    }
    tasks = std::move(mine);
  }

  if (check.cache) {
    cache::StoreOptions store_options;
    store_options.max_entries = check.cache_max;
    options.pipeline.cache = std::make_shared<cache::Store>(store_options);
  }
  if (use_snapshot && !snapshot.in.empty() &&
      !cli::load_snapshot(*options.pipeline.cache, snapshot.in, "", quiet)) {
    return 1;
  }

  if (!quiet) {
    options.on_result = [](const batch::TaskResult& r) {
      std::cerr << "[" << r.worker << "] " << r.name << ": "
                << batch::status_name(r.status) << " (" << r.seconds
                << "s)\n";
    };
  }

  const batch::BatchReport report = batch::check(tasks, options);

  // With --json -, stdout is reserved for the JSON document alone; the
  // human summary moves to stderr so stdout stays machine-parseable.
  std::ostream& text_out = json_path == "-" ? std::cerr : std::cout;
  if (canonical_output) {
    text_out << batch::canonical(report);
    // Keep the canonical stream byte-identical cache-on vs cache-off (and
    // jobs-1 vs jobs-N): stats go to stderr here, never into the contract.
    if (print_cache_stats) cache::print_stats(std::cerr, report.cache_stats);
  } else {
    batch::print_summary(text_out, report);
  }
  if (!json_path.empty() &&
      !cli::write_json(json_path, batch::to_json(report), quiet)) {
    return 1;
  }

  if (use_snapshot && !snapshot.out.empty() &&
      !cli::save_snapshot(*options.pipeline.cache, snapshot.out, "", quiet)) {
    return 1;
  }

  if (report.errors > 0 || report.budget_exhausted > 0 ||
      report.cancelled > 0 || report.disagreements > 0) {
    return 3;
  }
  return report.all_consistent() ? 0 : 2;
}
