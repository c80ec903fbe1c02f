// The flags and helpers the tools/ front ends share, on top of the
// util::Args cursor. speccc_batch and speccc_shard parse the check flags
// through one check_flag, so the shard rejects a bad passthrough value
// with batch's own message before it starts a worker; speccc_batch and
// speccc_serve parse the pipeline flags through one pipeline_flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "batch/batch.hpp"
#include "cache/store.hpp"
#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "util/args.hpp"

namespace speccc::cli {

/// The usage lines of the inputs and check flags (see check_flag), indented
/// to follow a "usage: speccc_batch " or "usage: speccc_shard " line.
extern const char* const kCheckUsage;

/// A --substrate value; an unparseable one is a UsageError.
[[nodiscard]] core::SubstrateSpec substrate(const std::string& text);

/// Parse args.flag() if it is one of the pipeline flags --substrate,
/// --strict-next, --diagnose (up to 4 correction sets) or
/// --max-correction-sets N. False when it is none of them.
bool pipeline_flag(util::Args& args, core::PipelineOptions& pipeline);

/// One spec source of a batch run, kept in listing order.
struct Input {
  enum class Kind { kPath, kManifest, kCorpus };
  Kind kind;
  std::string value;  // FILE|DIR, manifest path, or a known corpus name
};

/// What the flags speccc_batch shares with speccc_shard select.
struct CheckArgs {
  batch::BatchOptions options;  // pipeline, --time-budget, --crosscheck
  bool cache = false;
  std::size_t cache_max = cache::StoreOptions{}.max_entries;
  std::vector<Input> inputs;
  int generate = 0;
  std::uint64_t seed = 1;
};

/// Parse args.flag() if it is a check flag: the pipeline flags, --time-budget,
/// --crosscheck, --timeabs, --smt-encoder, --cache, --cache-max, or an input
/// (--manifest, --corpus, --generate, --seed, FILE|DIR). Inputs are only
/// recorded, never read. False when args.flag() is some other option.
bool check_flag(util::Args& args, CheckArgs& check);

/// The IN and OUT sides of a --cache-snapshot IN,OUT value (either may be
/// empty); a value without a comma is a UsageError.
struct SnapshotPair {
  std::string in;
  std::string out;
};
[[nodiscard]] SnapshotPair snapshot_pair(const std::string& value);

/// Load snapshot `path` into `store`, noting it on stderr after `prefix`
/// unless quiet. A rejected snapshot is reported with its structured kind
/// and returns false -- never a silent cold start.
bool load_snapshot(cache::Store& store, const std::string& path,
                   std::string_view prefix, bool quiet);

/// Save `store` to snapshot `path` (atomic temp-file + rename); false,
/// after reporting the failure, when it cannot be written.
bool save_snapshot(const cache::Store& store, const std::string& path,
                   std::string_view prefix, bool quiet);

/// The batch tasks of a paper corpus: cara | tele | robot | table1. Any
/// other name is a UsageError.
[[nodiscard]] std::vector<batch::SpecTask> corpus_tasks(
    const std::string& name);

/// `count` specs from the difftest generator, with speccc_fuzz's seed
/// derivation (difftest::generated_spec): task k is spec case k of
/// `speccc_fuzz --seed S`, so a verdict anomaly maps straight onto a fuzz
/// reproduction command.
[[nodiscard]] std::vector<batch::SpecTask> generated_tasks(std::uint64_t seed,
                                                           int count);

/// Write a JSON report to `path` ('-' for stdout); false, after reporting
/// it, when the file cannot be written.
bool write_json(const std::string& path, const std::string& text, bool quiet);

}  // namespace speccc::cli
