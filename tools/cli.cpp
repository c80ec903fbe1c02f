#include "cli.hpp"

#include <fstream>
#include <iostream>
#include <utility>

#include "batch/corpus_tasks.hpp"
#include "cache/snapshot.hpp"
#include "difftest/harness.hpp"
#include "nlp/lexicon.hpp"

namespace speccc::cli {

const char* const kCheckUsage =
    "                    [FILE|DIR ...] [--manifest FILE]\n"
    "                    [--corpus cara|tele|robot|table1]\n"
    "                    [--generate N] [--seed S] [--time-budget S]\n"
    "                    [--substrate auto|NAME|race:a,b,...]\n"
    "                    [--crosscheck] [--diagnose] [--max-correction-sets N]\n"
    "                    [--timeabs enum|smt] [--smt-encoder mapped|tseitin]\n"
    "                    [--strict-next] [--cache] [--cache-max N]\n";

namespace {

using CorpusTasks = std::vector<batch::SpecTask> (*)();

CorpusTasks find_corpus(const std::string& name) {
  static constexpr std::pair<std::string_view, CorpusTasks> kCorpora[] = {
      {"cara", &batch::cara_tasks},
      {"tele", &batch::telepromise_tasks},
      {"robot", &batch::robot_tasks},
      {"table1", &batch::table1_tasks}};
  for (const auto& [corpus, tasks] : kCorpora) {
    if (corpus == name) return tasks;
  }
  throw util::UsageError("unknown corpus: " + name);
}

}  // namespace

core::SubstrateSpec substrate(const std::string& text) {
  try {
    return core::SubstrateSpec::parse(text);
  } catch (const util::InvalidInputError& e) {
    throw util::UsageError(std::string("invalid --substrate: ") + e.what());
  }
}

bool pipeline_flag(util::Args& args, core::PipelineOptions& pipeline) {
  const std::string& arg = args.flag();
  if (arg == "--substrate") {
    pipeline.substrate = substrate(args.next());
  } else if (arg == "--strict-next") {
    pipeline.translation.next_mode = translate::NextMode::kStrict;
  } else if (arg == "--diagnose") {
    if (pipeline.localization.max_correction_sets == 0) {
      pipeline.localization.max_correction_sets = 4;
    }
  } else if (arg == "--max-correction-sets") {
    pipeline.localization.max_correction_sets = args.number(std::size_t{1});
  } else {
    return false;
  }
  return true;
}

bool check_flag(util::Args& args, CheckArgs& check) {
  const std::string& arg = args.flag();
  core::PipelineOptions& pipeline = check.options.pipeline;
  if (pipeline_flag(args, pipeline)) return true;
  if (arg == "--time-budget") {
    check.options.task_time_budget_seconds = args.number(0.0);
  } else if (arg == "--crosscheck") {
    check.options.check_agreement = true;
  } else if (arg == "--timeabs") {
    const std::string backend = args.next();
    if (backend == "enum") {
      pipeline.timeabs_backend = timeabs::Backend::kEnumeration;
    } else if (backend == "smt") {
      pipeline.timeabs_backend = timeabs::Backend::kSmt;
    } else {
      throw util::UsageError("--timeabs must be enum or smt");
    }
  } else if (arg == "--smt-encoder") {
    const std::string encoder = args.next();
    if (encoder == "mapped") {
      pipeline.smt_encoder = timeabs::SmtEncoder::kCutMap;
    } else if (encoder == "tseitin") {
      pipeline.smt_encoder = timeabs::SmtEncoder::kTseitin;
    } else {
      throw util::UsageError("--smt-encoder must be mapped or tseitin");
    }
  } else if (arg == "--cache") {
    check.cache = true;
  } else if (arg == "--cache-max") {
    check.cache_max = args.number(std::size_t{1});
  } else if (arg == "--manifest") {
    check.inputs.push_back({Input::Kind::kManifest, args.next()});
  } else if (arg == "--corpus") {
    std::string name = args.next();
    find_corpus(name);
    check.inputs.push_back({Input::Kind::kCorpus, std::move(name)});
  } else if (arg == "--generate") {
    check.generate = args.number(0);
  } else if (arg == "--seed") {
    check.seed = args.number(std::uint64_t{0});
  } else if (!arg.empty() && arg[0] == '-') {
    return false;
  } else {
    check.inputs.push_back({Input::Kind::kPath, arg});
  }
  return true;
}

SnapshotPair snapshot_pair(const std::string& value) {
  const auto comma = value.find(',');
  if (comma == std::string::npos) {
    throw util::UsageError(
        "--cache-snapshot needs IN,OUT (either side may be empty)");
  }
  return {value.substr(0, comma), value.substr(comma + 1)};
}

bool load_snapshot(cache::Store& store, const std::string& path,
                   std::string_view prefix, bool quiet) {
  try {
    const cache::SnapshotMeta meta = cache::load_snapshot(
        store, path, nlp::Lexicon::builtin().fingerprint());
    if (!quiet) {
      std::cerr << prefix << "cache snapshot " << path << ": " << meta.entries
                << " entries loaded\n";
    }
    return true;
  } catch (const cache::SnapshotError& e) {
    std::cerr << "error: cache snapshot rejected ("
              << cache::snapshot_error_kind_name(e.kind()) << "): " << e.what()
              << "\n";
    return false;
  }
}

bool save_snapshot(const cache::Store& store, const std::string& path,
                   std::string_view prefix, bool quiet) {
  try {
    cache::save_snapshot(store, path, nlp::Lexicon::builtin().fingerprint());
    if (!quiet) {
      std::cerr << prefix << "cache snapshot written to " << path << "\n";
    }
    return true;
  } catch (const cache::SnapshotError& e) {
    std::cerr << "error: cannot write cache snapshot ("
              << cache::snapshot_error_kind_name(e.kind()) << "): " << e.what()
              << "\n";
    return false;
  }
}

std::vector<batch::SpecTask> corpus_tasks(const std::string& name) {
  return find_corpus(name)();
}

std::vector<batch::SpecTask> generated_tasks(std::uint64_t seed, int count) {
  std::vector<batch::SpecTask> tasks;
  for (int index = 0; index < count; ++index) {
    auto spec = difftest::generated_spec(seed, index);
    tasks.push_back({std::move(spec.name), std::move(spec.requirements)});
  }
  return tasks;
}

bool write_json(const std::string& path, const std::string& text, bool quiet) {
  if (path == "-") {
    std::cout << text;
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << text;
  if (!quiet) std::cerr << "JSON report written to " << path << "\n";
  return true;
}

}  // namespace speccc::cli
