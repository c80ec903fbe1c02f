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
// Inputs (combinable; tasks keep the listing order):
//   FILE | DIR         a requirement document (one sentence per line, see
//                      corpus/loaders.hpp), or a directory scanned for
//                      *.txt / *.spec files in name order
//   --manifest FILE    one spec path per line (# comments), relative to
//                      the manifest's directory
//   --corpus NAME      cara | tele | robot | table1 (the paper's corpora)
//   --generate N       N generated specs from the difftest spec generator
//   --seed S           master seed for --generate (default 1)
//
// Options:
//   --jobs N           worker threads (default: hardware concurrency)
//   --json FILE        write the JSON report to FILE ('-' for stdout)
//   --canonical        print the canonical (timing-free) report instead of
//                      the human summary -- the parallel-equals-sequential
//                      determinism contract in printable form
//   --time-budget S    per-task budget in seconds, enforced at pipeline
//                      stage boundaries (expired tasks: budget-exhausted)
//   --substrate SPEC   decision substrate: "auto" (default; the staged
//                      symbolic-then-bounded escalation), a single
//                      substrate name (tableau | bounded | symbolic), or
//                      "race:a,b,..." to race two or more substrates per
//                      spec, first definite verdict wins. Racing is
//                      verdict-transparent: canonical output is
//                      byte-identical race-on vs race-off (a solo
//                      substrate may abstain where auto decides). An
//                      unparseable SPEC is rejected with a diagnostic
//   --crosscheck       re-decide each spec with every registered substrate
//                      and report substrate agreement
//   --diagnose         enumerate minimal correction sets for genuinely
//                      inconsistent specs (up to 4; see below). The MUS
//                      ("mus=" in canonical output, "conflicting
//                      sentences" in the summary) is always reported when
//                      refinement ran; --diagnose adds the "mcs=" /
//                      "fix by removing" alternatives. Diagnosis output is
//                      input-pure and canonical: it never changes verdicts
//                      or exit codes, and stays byte-identical across
//                      --jobs counts and cache modes
//   --max-correction-sets N
//                      cap the enumeration at N sets (implies --diagnose)
//   --timeabs B        time-abstraction backend: enum (default; exact
//                      divisor enumeration) or smt (the paper's
//                      bit-blasting route). Canonical output is identical
//                      either way -- the optimum is unique
//   --smt-encoder E    CNF encoder for --timeabs smt: mapped (default;
//                      cut-based AIG mapping) or tseitin (per-gate lane)
//   --strict-next      translate "next" as a real X operator
//   --cache            share a cross-spec memoization store (cache/store.hpp)
//                      across the batch: repeated sentences and formulas are
//                      decided once. Canonical output is byte-identical with
//                      or without it (supported smoke: diff the two)
//   --cache-max N      cache entry cap per artifact kind (default 65536)
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
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "cache/snapshot.hpp"
#include "cache/store.hpp"
#include "batch/corpus_tasks.hpp"
#include "corpus/generator.hpp"
#include "corpus/loaders.hpp"
#include "difftest/harness.hpp"
#include "difftest/random.hpp"
#include "nlp/lexicon.hpp"
#include "shard/splitter.hpp"
#include "timeabs/abstraction.hpp"
#include "util/diagnostics.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace {

int usage() {
  std::cerr
      << "usage: speccc_batch [FILE|DIR ...] [--manifest FILE]\n"
         "                    [--corpus cara|tele|robot|table1]\n"
         "                    [--generate N] [--seed S] [--jobs N]\n"
         "                    [--json FILE] [--canonical] [--time-budget S]\n"
         "                    [--substrate auto|NAME|race:a,b,...]\n"
         "                    [--crosscheck] [--diagnose]\n"
         "                    [--max-correction-sets N]\n"
         "                    [--timeabs enum|smt] [--smt-encoder mapped|tseitin]\n"
         "                    [--strict-next] [--quiet]\n"
         "                    [--cache] [--cache-max N] [--cache-stats]\n"
         "                    [--cache-snapshot IN,OUT]\n"
         "                    [--shard-index S --shard-count K]\n";
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

/// The difftest spec generator, with speccc_fuzz's exact seed derivation
/// (difftest::generated_spec): task k here is spec case k of
/// `speccc_fuzz --seed S`, so a batch verdict anomaly maps straight onto
/// a fuzz reproduction command.
void add_generated(std::uint64_t master_seed, int count,
                   std::vector<speccc::batch::SpecTask>& tasks) {
  for (int index = 0; index < count; ++index) {
    auto spec = speccc::difftest::generated_spec(master_seed, index);
    tasks.push_back({std::move(spec.name), std::move(spec.requirements)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speccc;

  std::vector<batch::SpecTask> tasks;
  batch::BatchOptions options;
  std::string json_path;
  std::uint64_t seed = 1;
  int generate_count = 0;
  bool canonical_output = false;
  bool quiet = false;
  bool use_cache = false;
  bool print_cache_stats = false;
  std::size_t cache_max = cache::StoreOptions{}.max_entries;
  std::string snapshot_in;
  std::string snapshot_out;
  bool use_snapshot = false;
  long long shard_index = -1;
  long long shard_count = 0;

  try {
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
                                   T min,
                                   T max = std::numeric_limits<T>::max()) {
        const std::string text = next_arg();
        if (const auto value = util::parse_number(text, min, max)) {
          return *value;
        }
        std::cerr << arg << ": bad value \"" << text << "\"\n";
        std::exit(usage());
      };
      if (arg == "--jobs") {
        options.jobs = next_number(1);
      } else if (arg == "--json") {
        json_path = next_arg();
      } else if (arg == "--canonical") {
        canonical_output = true;
      } else if (arg == "--time-budget") {
        options.task_time_budget_seconds = next_number(0.0);
      } else if (arg == "--substrate") {
        const std::string spec = next_arg();
        try {
          options.pipeline.substrate = core::SubstrateSpec::parse(spec);
        } catch (const util::InvalidInputError& e) {
          std::cerr << "invalid --substrate: " << e.what() << "\n";
          return usage();
        }
      } else if (arg == "--crosscheck") {
        options.check_agreement = true;
      } else if (arg == "--diagnose") {
        if (options.pipeline.localization.max_correction_sets == 0) {
          options.pipeline.localization.max_correction_sets = 4;
        }
      } else if (arg == "--max-correction-sets") {
        options.pipeline.localization.max_correction_sets =
            next_number(std::size_t{1});
      } else if (arg == "--strict-next") {
        options.pipeline.translation.next_mode = translate::NextMode::kStrict;
      } else if (arg == "--timeabs") {
        const std::string spec = next_arg();
        if (spec == "enum") {
          options.pipeline.timeabs_backend = timeabs::Backend::kEnumeration;
        } else if (spec == "smt") {
          options.pipeline.timeabs_backend = timeabs::Backend::kSmt;
        } else {
          std::cerr << "--timeabs must be enum or smt\n";
          return usage();
        }
      } else if (arg == "--smt-encoder") {
        const std::string spec = next_arg();
        if (spec == "mapped") {
          options.pipeline.smt_encoder = timeabs::SmtEncoder::kCutMap;
        } else if (spec == "tseitin") {
          options.pipeline.smt_encoder = timeabs::SmtEncoder::kTseitin;
        } else {
          std::cerr << "--smt-encoder must be mapped or tseitin\n";
          return usage();
        }
      } else if (arg == "--cache") {
        use_cache = true;
      } else if (arg == "--cache-max") {
        cache_max = next_number(std::size_t{1});
      } else if (arg == "--cache-stats") {
        use_cache = true;
        print_cache_stats = true;
      } else if (arg == "--cache-snapshot") {
        const std::string spec = next_arg();
        const auto comma = spec.find(',');
        if (comma == std::string::npos) {
          std::cerr << "--cache-snapshot needs IN,OUT (either side may be "
                       "empty)\n";
          return usage();
        }
        snapshot_in = spec.substr(0, comma);
        snapshot_out = spec.substr(comma + 1);
        use_snapshot = true;
        use_cache = true;
      } else if (arg == "--shard-index") {
        shard_index = next_number(0LL);
      } else if (arg == "--shard-count") {
        shard_count = next_number(1LL);
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--seed") {
        seed = next_number(std::uint64_t{0});
      } else if (arg == "--generate") {
        generate_count = next_number(0);
      } else if (arg == "--manifest") {
        add_manifest(next_arg(), tasks);
      } else if (arg == "--corpus") {
        const std::string which = next_arg();
        std::vector<batch::SpecTask> corpus_tasks;
        if (which == "cara") corpus_tasks = batch::cara_tasks();
        else if (which == "tele") corpus_tasks = batch::telepromise_tasks();
        else if (which == "robot") corpus_tasks = batch::robot_tasks();
        else if (which == "table1") corpus_tasks = batch::table1_tasks();
        else {
          std::cerr << "unknown corpus: " << which << "\n";
          return usage();
        }
        for (batch::SpecTask& t : corpus_tasks) tasks.push_back(std::move(t));
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "unknown option: " << arg << "\n";
        return usage();
      } else if (fs::is_directory(arg)) {
        add_directory(arg, tasks);
      } else {
        tasks.push_back(load_spec_file(arg));
      }
    }
    if (generate_count > 0) add_generated(seed, generate_count, tasks);
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

  if (use_cache) {
    cache::StoreOptions store_options;
    store_options.max_entries = cache_max;
    options.pipeline.cache = std::make_shared<cache::Store>(store_options);
  }
  if (use_snapshot && !snapshot_in.empty()) {
    try {
      const cache::SnapshotMeta meta = cache::load_snapshot(
          *options.pipeline.cache, snapshot_in, nlp::Lexicon::builtin().fingerprint());
      if (!quiet) {
        std::cerr << "cache snapshot " << snapshot_in << ": " << meta.entries
                  << " entries loaded\n";
      }
    } catch (const cache::SnapshotError& e) {
      // Never degrade to a silent cold start: a requested warm start that
      // cannot be honored is an operational error.
      std::cerr << "error: cache snapshot rejected ("
                << cache::snapshot_error_kind_name(e.kind()) << "): "
                << e.what() << "\n";
      return 1;
    }
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
  if (!json_path.empty()) {
    if (json_path == "-") {
      std::cout << batch::to_json(report);
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
      }
      out << batch::to_json(report);
      if (!quiet) std::cerr << "JSON report written to " << json_path << "\n";
    }
  }

  if (use_snapshot && !snapshot_out.empty()) {
    try {
      cache::save_snapshot(*options.pipeline.cache, snapshot_out,
                           nlp::Lexicon::builtin().fingerprint());
      if (!quiet) {
        std::cerr << "cache snapshot written to " << snapshot_out << "\n";
      }
    } catch (const cache::SnapshotError& e) {
      std::cerr << "error: cannot write cache snapshot ("
                << cache::snapshot_error_kind_name(e.kind()) << "): "
                << e.what() << "\n";
      return 1;
    }
  }

  if (report.errors > 0 || report.budget_exhausted > 0 ||
      report.cancelled > 0 || report.disagreements > 0) {
    return 3;
  }
  return report.all_consistent() ? 0 : 2;
}
