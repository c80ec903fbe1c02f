// Tests for distributed corpus sharding (src/shard): the round-robin
// splitter's determinism and remainder handling, and the subprocess
// coordinator's headline contract -- the merged canonical report of a
// K-way sharded run is byte-identical to the unsharded `batch::check`
// baseline, for every shard count, cache mode, and warm/cold snapshot
// state, and stays byte-identical when workers are killed, fail with
// nonzero exits, or time out (the fault battery drives wrapper scripts
// keyed on SPECCC_SHARD_INDEX / SPECCC_SHARD_ATTEMPT).
//
// The worker binaries come from the build tree: SPECCC_BATCH_BIN and
// SPECCC_SHARD_BIN are compile definitions set in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>

#include "batch/batch.hpp"
#include "batch/corpus_tasks.hpp"
#include "difftest/harness.hpp"
#include "shard/coordinator.hpp"
#include "shard/splitter.hpp"
#include "util/json.hpp"

namespace batch = speccc::batch;
namespace shard = speccc::shard;
namespace fs = std::filesystem;
namespace json = speccc::util::json;

namespace {

/// A per-test scratch directory under gtest's temp root.
std::string test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "speccc_shard/" +
                          info->test_suite_name() + "." + info->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct Baseline {
  std::string canonical;
  int exit_code = 0;  // what the speccc_batch CLI would return
};

/// The unsharded ground truth, computed in-process: the exact canonical
/// bytes `speccc_batch --corpus table1 --generate N --seed S --canonical`
/// prints (tasks in the same order: corpus first, generated appended),
/// plus the exit code that CLI run would end with.
Baseline unsharded_baseline(bool table1, int generate, std::uint64_t seed) {
  std::vector<batch::SpecTask> tasks;
  if (table1) tasks = batch::table1_tasks();
  for (int index = 0; index < generate; ++index) {
    auto spec = speccc::difftest::generated_spec(seed, index);
    tasks.push_back({std::move(spec.name), std::move(spec.requirements)});
  }
  const batch::BatchReport report = batch::check(tasks, {});
  Baseline baseline;
  baseline.canonical = batch::canonical(report);
  if (report.errors > 0 || report.budget_exhausted > 0 ||
      report.cancelled > 0 || report.disagreements > 0) {
    baseline.exit_code = 3;
  } else {
    baseline.exit_code = report.all_consistent() ? 0 : 2;
  }
  return baseline;
}

std::string unsharded_canonical(bool table1, int generate,
                                std::uint64_t seed) {
  return unsharded_baseline(table1, generate, seed).canonical;
}

/// Write an executable /bin/sh wrapper that (conditionally) misbehaves and
/// otherwise execs the real speccc_batch. The condition sees the
/// coordinator's SPECCC_SHARD_INDEX / SPECCC_SHARD_ATTEMPT exports, so
/// faults are deterministic per (shard, attempt).
std::string write_wrapper(const std::string& dir, const std::string& name,
                          const std::string& fault_lines) {
  const std::string path = dir + "/" + name;
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n"
        << fault_lines << "exec \"" << SPECCC_BATCH_BIN << "\" \"$@\"\n";
  }
  ::chmod(path.c_str(), 0755);
  return path;
}

/// Run a shell command, capturing stdout/stderr to files. Returns the
/// exit code (or -signal when terminated).
int run_command(const std::string& command, const std::string& stdout_path,
                const std::string& stderr_path) {
  const std::string full =
      command + " > " + stdout_path + " 2> " + stderr_path;
  const int status = std::system(full.c_str());
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

shard::CoordinatorOptions coordinator_options(
    std::size_t shards, std::vector<std::string> worker_args) {
  shard::CoordinatorOptions options;
  options.shards = shards;
  options.worker_command = {SPECCC_BATCH_BIN};
  options.worker_args = std::move(worker_args);
  return options;
}

}  // namespace

// ---- shard/splitter.hpp -----------------------------------------------------

TEST(Splitter, RoundRobinDealIsDeterministicAndOwnsEveryKthIndex) {
  const auto assignment = shard::split_round_robin(10, 4);
  ASSERT_EQ(assignment.size(), 4u);
  EXPECT_EQ(assignment[0], (std::vector<std::size_t>{0, 4, 8}));
  EXPECT_EQ(assignment[1], (std::vector<std::size_t>{1, 5, 9}));
  EXPECT_EQ(assignment[2], (std::vector<std::size_t>{2, 6}));
  EXPECT_EQ(assignment[3], (std::vector<std::size_t>{3, 7}));
  EXPECT_EQ(shard::split_round_robin(10, 4), assignment);  // pure function
}

TEST(Splitter, ShardSizesMatchTheDealForEveryRemainder) {
  for (std::size_t count = 0; count <= 21; ++count) {
    for (std::size_t shards = 1; shards <= 8; ++shards) {
      const auto assignment = shard::split_round_robin(count, shards);
      std::size_t total = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(assignment[s].size(), shard::shard_size(count, shards, s))
            << "count=" << count << " shards=" << shards << " s=" << s;
        total += assignment[s].size();
        for (const std::size_t index : assignment[s]) {
          EXPECT_EQ(shard::shard_of(index, shards), s);
        }
      }
      EXPECT_EQ(total, count);
      // Earlier shards take the remainder: sizes are non-increasing.
      for (std::size_t s = 1; s < shards; ++s) {
        EXPECT_GE(assignment[s - 1].size(), assignment[s].size());
      }
    }
  }
}

TEST(Splitter, InterleavingTheShardsRestoresGlobalInputOrder) {
  const std::size_t count = 17, shards = 5;
  const auto assignment = shard::split_round_robin(count, shards);
  std::vector<std::size_t> merged;
  for (std::size_t row = 0; merged.size() < count; ++row) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (row < assignment[s].size()) merged.push_back(assignment[s][row]);
    }
  }
  std::vector<std::size_t> expected(count);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(merged, expected);  // the coordinator's merge rule
}

TEST(Splitter, SingleShardOwnsEverythingInOrder) {
  const auto assignment = shard::split_round_robin(6, 1);
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_EQ(assignment[0], (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

// ---- merged canonical == unsharded canonical --------------------------------

// The headline determinism contract: for every shard count and cache
// mode, the merged canonical report over all 22 Table I rows plus a
// fixed-seed generated corpus is byte-identical to the in-process
// unsharded baseline.
TEST(ShardCoordinator, MergedCanonicalIsByteIdenticalAcrossShardCountsAndCacheModes) {
  const Baseline baseline = unsharded_baseline(true, 12, 3);
  ASSERT_FALSE(baseline.canonical.empty());
  const std::vector<std::string> inputs = {"--corpus",   "table1", "--generate",
                                           "12",         "--seed", "3"};
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const bool cache : {false, true}) {
      std::vector<std::string> args = inputs;
      if (cache) args.push_back("--cache");
      const shard::MergedReport report =
          shard::run_sharded(coordinator_options(shards, args));
      ASSERT_TRUE(report.complete)
          << "shards=" << shards << " cache=" << cache << ": "
          << report.merge_error;
      EXPECT_EQ(shard::canonical(report), baseline.canonical)
          << "shards=" << shards << " cache=" << cache;
      EXPECT_EQ(report.exit_code(), baseline.exit_code);
      EXPECT_EQ(report.worker_failures, 0u);
      EXPECT_EQ(report.cache_enabled, cache);
    }
  }
}

TEST(ShardCoordinator, MoreShardsThanTasksLeavesEmptyShardsAndStillMerges) {
  const std::string baseline = unsharded_canonical(false, 3, 7);
  const shard::MergedReport report = shard::run_sharded(
      coordinator_options(8, {"--generate", "3", "--seed", "7"}));
  ASSERT_TRUE(report.complete) << report.merge_error;
  EXPECT_EQ(shard::canonical(report), baseline);
  EXPECT_EQ(report.specs(), 3u);
  std::size_t empty = 0;
  for (const shard::ShardOutcome& outcome : report.shards) {
    EXPECT_TRUE(outcome.completed);
    if (outcome.specs == 0) ++empty;
  }
  EXPECT_EQ(empty, 5u);  // shards 3..7 legitimately got nothing
}

// ---- fault injection --------------------------------------------------------

TEST(ShardFaults, KilledWorkerIsRetriedAndTheMergeStaysByteIdentical) {
  const std::string dir = test_dir();
  // Shard 1's first attempt dies of SIGKILL before producing output.
  const std::string wrapper = write_wrapper(
      dir, "killer",
      "if [ \"$SPECCC_SHARD_INDEX\" = \"1\" ] && "
      "[ \"$SPECCC_SHARD_ATTEMPT\" = \"0\" ]; then kill -9 $$; fi\n");
  shard::CoordinatorOptions options =
      coordinator_options(3, {"--generate", "8", "--seed", "5"});
  options.worker_command = {wrapper};
  const Baseline baseline = unsharded_baseline(false, 8, 5);
  const shard::MergedReport report = shard::run_sharded(options);
  ASSERT_TRUE(report.complete) << report.merge_error;
  EXPECT_EQ(shard::canonical(report), baseline.canonical);
  // The crash is a non-canonical statistic, never silently dropped --
  // and it does not leak into the exit code once the retry recovered.
  EXPECT_EQ(report.worker_failures, 1u);
  EXPECT_EQ(report.retries_used, 1u);
  ASSERT_EQ(report.shards[1].attempts.size(), 2u);
  EXPECT_TRUE(report.shards[1].attempts[0].signalled);
  EXPECT_EQ(report.shards[1].attempts[0].term_signal, SIGKILL);
  EXPECT_NE(report.shards[1].attempts[0].failure.find("signal"),
            std::string::npos);
  EXPECT_EQ(report.exit_code(), baseline.exit_code);
}

TEST(ShardFaults, NonzeroExitIsRetriedAndCountedInStats) {
  const std::string dir = test_dir();
  const std::string wrapper = write_wrapper(
      dir, "flaky",
      "if [ \"$SPECCC_SHARD_INDEX\" = \"0\" ] && "
      "[ \"$SPECCC_SHARD_ATTEMPT\" = \"0\" ]; then exit 9; fi\n");
  shard::CoordinatorOptions options =
      coordinator_options(2, {"--generate", "6", "--seed", "5"});
  options.worker_command = {wrapper};
  const shard::MergedReport report = shard::run_sharded(options);
  ASSERT_TRUE(report.complete) << report.merge_error;
  EXPECT_EQ(shard::canonical(report), unsharded_canonical(false, 6, 5));
  EXPECT_EQ(report.worker_failures, 1u);
  ASSERT_EQ(report.shards[0].attempts.size(), 2u);
  EXPECT_EQ(report.shards[0].attempts[0].exit_code, 9);
  EXPECT_NE(report.shards[0].attempts[0].failure.find("exit code 9"),
            std::string::npos);
  EXPECT_EQ(report.shards[1].retries(), 0u);  // the healthy shard ran once
}

TEST(ShardFaults, TimedOutWorkerIsKilledAndRetried) {
  const std::string dir = test_dir();
  const std::string wrapper = write_wrapper(
      dir, "hanger",
      "if [ \"$SPECCC_SHARD_INDEX\" = \"0\" ] && "
      "[ \"$SPECCC_SHARD_ATTEMPT\" = \"0\" ]; then sleep 300; fi\n");
  shard::CoordinatorOptions options =
      coordinator_options(2, {"--generate", "4", "--seed", "5"});
  options.worker_command = {wrapper};
  // Far above any healthy attempt's wall clock (even on a loaded CI
  // machine), far below the hung attempt's sleep.
  options.worker_timeout_seconds = 10.0;
  const shard::MergedReport report = shard::run_sharded(options);
  ASSERT_TRUE(report.complete) << report.merge_error;
  EXPECT_EQ(shard::canonical(report), unsharded_canonical(false, 4, 5));
  ASSERT_EQ(report.shards[0].attempts.size(), 2u);
  EXPECT_TRUE(report.shards[0].attempts[0].timed_out);
  EXPECT_NE(report.shards[0].attempts[0].failure.find("timed out"),
            std::string::npos);
}

TEST(ShardFaults, ExhaustedRetriesYieldStructuredErrorAndExitCode3) {
  const std::string dir = test_dir();
  // Shard 1 fails every attempt; the healthy shards must still complete.
  const std::string wrapper = write_wrapper(
      dir, "dead",
      "if [ \"$SPECCC_SHARD_INDEX\" = \"1\" ]; then exit 9; fi\n");
  shard::CoordinatorOptions options =
      coordinator_options(2, {"--generate", "4", "--seed", "5"});
  options.worker_command = {wrapper};
  options.retries = 1;
  const shard::MergedReport report = shard::run_sharded(options);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.exit_code(), 3);
  EXPECT_TRUE(report.rows.empty());  // no partial canonical output
  EXPECT_TRUE(report.shards[0].completed);
  EXPECT_FALSE(report.shards[1].completed);
  EXPECT_EQ(report.shards[1].attempts.size(), 2u);  // retries + 1
  EXPECT_NE(report.shards[1].error.find("failed after 2 attempts"),
            std::string::npos);
  EXPECT_EQ(report.worker_failures, 2u);
}

// A worker that exits cleanly with a well-formed but wrong-typed report
// (a string or a negative count) is a failed attempt like any malformed
// output: recorded, retried, and -- when every attempt does it -- exit 3,
// never an abort of the coordinator.
TEST(ShardFaults, WrongTypedReportIsAFailedAttemptNotAnAbort) {
  const std::string dir = test_dir();
  for (const std::string report :
       {R"({"consistent": "one", "specs": [{}]})",
        R"({"consistent": -1, "inconsistent": 0, "errors": 0,)"
        R"( "budget_exhausted": 0, "cancelled": 0, "disagreements": 0,)"
        R"( "specs": [{}]})"}) {
    // Shard 0 runs the real worker, then overwrites its --json report.
    const std::string wrapper = write_wrapper(
        dir, "mistyped",
        "if [ \"$SPECCC_SHARD_INDEX\" = \"0\" ]; then\n"
        "  \"" SPECCC_BATCH_BIN "\" \"$@\"; code=$?\n"
        "  while [ $# -gt 0 ]; do\n"
        "    if [ \"$1\" = --json ]; then printf '%s' '" + report +
            "' > \"$2\"; fi\n"
        "    shift\n"
        "  done\n"
        "  exit $code\n"
        "fi\n");
    const int exit_code = run_command(
        std::string(SPECCC_SHARD_BIN) + " --worker " + wrapper +
            " --generate 2 --seed 5 --shards 2 --retries 1 --quiet --json " +
            dir + "/report.json",
        dir + "/out", dir + "/err");
    EXPECT_EQ(exit_code, 3) << report << slurp(dir + "/err");
    const json::Value merged = json::parse(slurp(dir + "/report.json"));
    EXPECT_FALSE(merged.at("complete").as_bool());
    EXPECT_EQ(merged.at("worker_failures").as_count(), 2u);
    const json::Value& shard0 = merged.at("shard_outcomes").as_array().at(0);
    EXPECT_FALSE(shard0.at("completed").as_bool());
    const json::Array& attempts = shard0.at("attempts").as_array();
    ASSERT_EQ(attempts.size(), 2u);
    EXPECT_NE(attempts[0].at("failure").as_string().find(
                  "malformed shard report"),
              std::string::npos)
        << report;
  }
}

// ---- warm-start snapshots through the CLI tools -----------------------------

TEST(ShardSnapshot, WarmStartFromMergedSnapshotIsByteIdenticalWithZeroMisses) {
  const std::string dir = test_dir();
  const std::string snap = dir + "/warm.snap";
  const std::string inputs = "--generate 10 --seed 5";
  const std::string baseline = unsharded_canonical(false, 10, 5);

  // Cold sharded run that writes the merged snapshot.
  int exit_code = run_command(
      std::string(SPECCC_SHARD_BIN) + " " + inputs +
          " --shards 4 --canonical --quiet --cache-snapshot ," + snap,
      dir + "/cold.out", dir + "/cold.err");
  EXPECT_EQ(exit_code, 0) << slurp(dir + "/cold.err");
  EXPECT_EQ(slurp(dir + "/cold.out"), baseline);
  ASSERT_TRUE(fs::exists(snap));

  // Warm sharded run from the merged snapshot: same bytes.
  exit_code = run_command(
      std::string(SPECCC_SHARD_BIN) + " " + inputs +
          " --shards 2 --canonical --quiet --cache-snapshot " + snap + ",",
      dir + "/warm.out", dir + "/warm.err");
  EXPECT_EQ(exit_code, 0) << slurp(dir + "/warm.err");
  EXPECT_EQ(slurp(dir + "/warm.out"), baseline);

  // Warm unsharded run: byte-identical AND fully served from the
  // snapshot -- zero misses on both cache levels (--cache-stats prints
  // the counters to stderr in canonical mode).
  exit_code = run_command(
      std::string(SPECCC_BATCH_BIN) + " " + inputs +
          " --canonical --quiet --cache-stats --cache-snapshot " + snap + ",",
      dir + "/batch.out", dir + "/batch.err");
  EXPECT_EQ(exit_code, 0) << slurp(dir + "/batch.err");
  EXPECT_EQ(slurp(dir + "/batch.out"), baseline);
  const std::string stats = slurp(dir + "/batch.err");
  EXPECT_NE(stats.find(" 0 misses, L2 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" 0 misses, 0 evictions"), std::string::npos) << stats;
}

TEST(ShardSnapshot, RejectedSnapshotIsAStructuredFailureNotAColdStart) {
  const std::string dir = test_dir();
  const std::string snap = dir + "/bad.snap";
  {
    // Long enough to carry a full header, but not a snapshot.
    std::ofstream out(snap, std::ios::binary);
    out << std::string(64, 'x');
  }
  const int exit_code = run_command(
      std::string(SPECCC_BATCH_BIN) +
          " --generate 2 --seed 5 --canonical --quiet --cache-snapshot " +
          snap + ",",
      dir + "/out", dir + "/err");
  EXPECT_EQ(exit_code, 1);
  EXPECT_TRUE(slurp(dir + "/out").empty());  // no silent cold-start report
  const std::string err = slurp(dir + "/err");
  EXPECT_NE(err.find("cache snapshot rejected"), std::string::npos) << err;
  EXPECT_NE(err.find("bad-magic"), std::string::npos) << err;
}

// ---- speccc_shard CLI surface -----------------------------------------------

TEST(ShardCli, CliMergedReportMatchesBatchCliByteForByte) {
  const std::string dir = test_dir();
  // The default time abstraction and the SMT backend (a worker
  // passthrough flag) must both shard invisibly.
  for (const std::string inputs :
       {"--corpus table1", "--corpus table1 --timeabs smt"}) {
    const int batch_exit =
        run_command(std::string(SPECCC_BATCH_BIN) + " " + inputs +
                        " --canonical --quiet",
                    dir + "/batch.out", dir + "/batch.err");
    const int shard_exit =
        run_command(std::string(SPECCC_SHARD_BIN) + " " + inputs +
                        " --shards 3 --canonical --quiet --json " +
                        dir + "/report.json",
                    dir + "/shard.out", dir + "/shard.err");
    // Same bytes, same exit code -- sharding is invisible to callers.
    EXPECT_EQ(shard_exit, batch_exit) << inputs << slurp(dir + "/shard.err");
    EXPECT_EQ(slurp(dir + "/shard.out"), slurp(dir + "/batch.out")) << inputs;
    const json::Value report = json::parse(slurp(dir + "/report.json"));
    EXPECT_EQ(report.at("shards").as_count(), 3u) << inputs;
    EXPECT_EQ(report.at("worker_failures").as_count(), 0u) << inputs;
  }
}

// A numeric flag value is taken whole or not at all: "2x" is not 2.
TEST(ShardCli, MalformedNumericFlagValuesAreUsageErrors) {
  const std::string dir = test_dir();
  for (const std::string& command :
       {std::string(SPECCC_BATCH_BIN) + " --generate 1 --jobs 2x",
        std::string(SPECCC_BATCH_BIN) + " --generate 1x",
        std::string(SPECCC_BATCH_BIN) + " --generate 1 --seed abc",
        std::string(SPECCC_BATCH_BIN) + " --generate 1 --time-budget 1s",
        std::string(SPECCC_SHARD_BIN) + " --generate 1 --worker-timeout abc",
        std::string(SPECCC_SHARD_BIN) + " --generate 1 --shards 2x"}) {
    EXPECT_EQ(run_command(command, dir + "/out", dir + "/err"), 1) << command;
    EXPECT_NE(slurp(dir + "/err").find("bad value"), std::string::npos)
        << command;
    EXPECT_TRUE(slurp(dir + "/out").empty()) << command;
  }
}

// The coordinator parses every flag it forwards with speccc_batch's own
// parser: a bad value is batch's usage error, reported before any worker
// starts (the wrapper worker would leave a marker file behind).
// With no arguments there is nothing to check: the coordinator says so
// and starts no worker (its own path is not an input). The default worker
// is the speccc_batch next to the coordinator, so a copy of the
// coordinator sits beside a speccc_batch that only touches a marker.
TEST(ShardCli, NoArgumentsChecksNothingAndStartsNoWorker) {
  const std::string dir = test_dir();
  const std::string marker = dir + "/worker-started";
  write_wrapper(dir, "speccc_batch", "touch \"" + marker + "\"\n");
  const std::string coordinator = dir + "/speccc_shard";
  fs::copy_file(SPECCC_SHARD_BIN, coordinator);
  EXPECT_EQ(run_command(coordinator, dir + "/out", dir + "/err"), 1);
  EXPECT_EQ(slurp(dir + "/err").rfind("no specifications to check\n", 0), 0u)
      << slurp(dir + "/err");
  EXPECT_TRUE(slurp(dir + "/out").empty());
  EXPECT_FALSE(fs::exists(marker));
}

TEST(ShardCli, BadPassthroughValuesFailBeforeAnyWorkerStarts) {
  const std::string dir = test_dir();
  const std::string marker = dir + "/worker-started";
  const std::string wrapper =
      write_wrapper(dir, "marker", "touch \"" + marker + "\"\n");
  const std::pair<std::string, std::string> cases[] = {
      {"--substrate bogus", "invalid --substrate: "},
      {"--time-budget 1s", "--time-budget: bad value \"1s\""},
      {"--cache-max 0", "--cache-max: bad value \"0\""},
      {"--corpus nope", "unknown corpus: nope"}};
  for (const auto& [flag, message] : cases) {
    const std::string inputs = " --generate 1 " + flag;
    EXPECT_EQ(run_command(std::string(SPECCC_BATCH_BIN) + inputs,
                          dir + "/batch.out", dir + "/batch.err"),
              1)
        << flag;
    const std::string batch_err = slurp(dir + "/batch.err");
    const std::string batch_message = batch_err.substr(0, batch_err.find('\n'));
    EXPECT_EQ(batch_message.rfind(message, 0), 0u) << batch_err;

    EXPECT_EQ(run_command(std::string(SPECCC_SHARD_BIN) + inputs +
                              " --shards 2 --worker " + wrapper,
                          dir + "/shard.out", dir + "/shard.err"),
              1)
        << flag;
    EXPECT_EQ(slurp(dir + "/shard.err").rfind(batch_message + "\n", 0), 0u)
        << flag << ": " << slurp(dir + "/shard.err");
    EXPECT_TRUE(slurp(dir + "/shard.out").empty()) << flag;
    EXPECT_FALSE(fs::exists(marker)) << flag;
  }
}
