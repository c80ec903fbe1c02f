// Tests for the argv layer the command-line front ends share: the
// util::Args cursor and its usage errors, the tools/cli flag parsers and
// helpers, and -- through the built binaries -- that every one of the
// seven front ends reports an unknown option, a missing value and a
// malformed number with its own message and usage exit code.
//
// The binaries come from the build tree: the SPECCC_*_BIN compile
// definitions are set in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "cli.hpp"
#include "util/args.hpp"

namespace cli = speccc::cli;
using speccc::util::Args;
using speccc::util::UsageError;

namespace {

/// An Args over `tokens` (argv[0] included), which must outlive it.
Args make_args(const std::vector<const char*>& tokens) {
  return Args(static_cast<int>(tokens.size()), tokens.data());
}

/// The message of the UsageError `parse` throws ("" when it throws none).
template <typename Parse>
std::string usage_error(Parse&& parse) {
  try {
    parse();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

std::vector<std::string> to_vector(std::span<const std::string> tokens) {
  return {tokens.begin(), tokens.end()};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

// ---- util::Args -------------------------------------------------------------

TEST(Args, NoArgumentsLeaveNothingToParse) {
  const std::vector<const char*> program = {"tool"};
  EXPECT_FALSE(make_args(program).advance());
  const std::vector<const char*> empty = {nullptr};  // argc == 0
  EXPECT_FALSE(Args(0, empty.data()).advance());
}

TEST(Args, MissingValueIsAUsageError) {
  const std::vector<const char*> argv = {"tool", "--jobs"};
  Args args = make_args(argv);
  ASSERT_TRUE(args.advance());
  EXPECT_EQ(args.flag(), "--jobs");
  EXPECT_EQ(usage_error([&] { args.number(1); }), "--jobs needs an argument");
  EXPECT_FALSE(args.advance());
}

TEST(Args, NumberIsTakenWholeOrNotAtAll) {
  const std::vector<const char*> argv = {"tool", "--jobs", "2x", "--jobs", "2"};
  Args args = make_args(argv);
  ASSERT_TRUE(args.advance());
  EXPECT_EQ(usage_error([&] { args.number(1); }), "--jobs: bad value \"2x\"");
  ASSERT_TRUE(args.advance());
  EXPECT_EQ(args.number(1), 2);
}

TEST(Args, NumberOutOfRangeIsAUsageError) {
  const std::vector<const char*> argv = {"tool", "--port", "65536", "--budget",
                                         "4294967296"};
  Args args = make_args(argv);
  ASSERT_TRUE(args.advance());
  EXPECT_EQ(usage_error([&] { args.number(0, 65535); }),
            "--port: bad value \"65536\"");
  ASSERT_TRUE(args.advance());
  EXPECT_EQ(usage_error([&] { args.number(std::uint32_t{0}); }),
            "--budget: bad value \"4294967296\"");
}

TEST(Args, TakenIsExactlyTheTokensTheFlagConsumed) {
  const std::vector<const char*> argv = {"tool", "--seed", "7", "--quiet",
                                         "spec.txt"};
  Args args = make_args(argv);
  ASSERT_TRUE(args.advance());
  EXPECT_EQ(to_vector(args.taken()), std::vector<std::string>{"--seed"});
  EXPECT_EQ(args.number(std::uint64_t{0}), 7u);
  EXPECT_EQ(to_vector(args.taken()),
            (std::vector<std::string>{"--seed", "7"}));
  ASSERT_TRUE(args.advance());
  EXPECT_EQ(to_vector(args.taken()), std::vector<std::string>{"--quiet"});
  ASSERT_TRUE(args.advance());
  EXPECT_EQ(to_vector(args.taken()), std::vector<std::string>{"spec.txt"});
  EXPECT_FALSE(args.advance());
}

// ---- tools/cli --------------------------------------------------------------

TEST(Cli, SnapshotPairNeedsAComma) {
  EXPECT_EQ(usage_error([] { (void)cli::snapshot_pair("warm.snap"); }),
            "--cache-snapshot needs IN,OUT (either side may be empty)");
  const cli::SnapshotPair pair = cli::snapshot_pair(",warm.snap");
  EXPECT_EQ(pair.in, "");
  EXPECT_EQ(pair.out, "warm.snap");
}

TEST(Cli, UnknownCorpusIsAUsageError) {
  EXPECT_EQ(usage_error([] { (void)cli::corpus_tasks("nope"); }),
            "unknown corpus: nope");
  EXPECT_EQ(cli::corpus_tasks("table1").size(), 22u);
  // check_flag rejects the name too, without loading anything.
  const std::vector<const char*> argv = {"tool", "--corpus", "nope"};
  Args args = make_args(argv);
  ASSERT_TRUE(args.advance());
  cli::CheckArgs check;
  EXPECT_EQ(usage_error([&] { cli::check_flag(args, check); }),
            "unknown corpus: nope");
}

TEST(Cli, BadSubstrateIsAUsageError) {
  const std::vector<const char*> argv = {"tool", "--substrate", "bogus"};
  Args args = make_args(argv);
  ASSERT_TRUE(args.advance());
  speccc::core::PipelineOptions pipeline;
  EXPECT_EQ(usage_error([&] { cli::pipeline_flag(args, pipeline); })
                .rfind("invalid --substrate: ", 0),
            0u);
}

// check_flag is the parser speccc_shard checks its passthrough with, so
// the flags it takes are exactly the ones the shard forwards to its
// speccc_batch workers.
TEST(Cli, CheckFlagTakesExactlyTheShardPassthroughFlags) {
  const std::vector<std::vector<const char*>> forwarded = {
      {"--cache"},
      {"--crosscheck"},
      {"--diagnose"},
      {"--strict-next"},
      {"--cache-max", "9"},
      {"--time-budget", "0.5"},
      {"--substrate", "race:tableau,symbolic"},
      {"--max-correction-sets", "2"},
      {"--timeabs", "smt"},
      {"--smt-encoder", "tseitin"},
      {"--manifest", "specs.lst"},
      {"--corpus", "cara"},
      {"--generate", "3"},
      {"--seed", "11"},
      {"spec.txt"}};
  for (const std::vector<const char*>& tokens : forwarded) {
    std::vector<const char*> argv = {"tool"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    Args args = make_args(argv);
    ASSERT_TRUE(args.advance());
    cli::CheckArgs check;
    EXPECT_TRUE(cli::check_flag(args, check)) << tokens[0];
    EXPECT_EQ(to_vector(args.taken()),
              std::vector<std::string>(tokens.begin(), tokens.end()));
    EXPECT_FALSE(args.advance()) << tokens[0];
  }
  for (const char* other :
       {"--jobs", "--json", "--canonical", "--quiet", "--cache-stats",
        "--cache-snapshot", "--shard-index", "--shard-count", "--shards",
        "--worker", "--no-cache", "--eviction", "--bogus", "-"}) {
    const std::vector<const char*> argv = {"tool", other, "1"};
    Args args = make_args(argv);
    ASSERT_TRUE(args.advance());
    cli::CheckArgs check;
    EXPECT_FALSE(cli::check_flag(args, check)) << other;
    EXPECT_EQ(to_vector(args.taken()), std::vector<std::string>{other});
  }
}

TEST(Cli, CheckFlagRecordsInputsInListingOrder) {
  const std::vector<const char*> argv = {
      "tool",      "a.txt",    "--corpus",   "robot", "--manifest",
      "specs.lst", "--generate", "2",        "--cache-max", "5"};
  Args args = make_args(argv);
  cli::CheckArgs check;
  while (args.advance()) ASSERT_TRUE(cli::check_flag(args, check));
  ASSERT_EQ(check.inputs.size(), 3u);
  EXPECT_EQ(check.inputs[0].kind, cli::Input::Kind::kPath);
  EXPECT_EQ(check.inputs[1].kind, cli::Input::Kind::kCorpus);
  EXPECT_EQ(check.inputs[1].value, "robot");
  EXPECT_EQ(check.inputs[2].kind, cli::Input::Kind::kManifest);
  EXPECT_EQ(check.generate, 2);
  EXPECT_EQ(check.cache_max, 5u);
  EXPECT_FALSE(check.cache);
}

// ---- the seven front ends ---------------------------------------------------

namespace {

struct FrontEnd {
  std::string binary;
  std::string name;        // as it prints itself in its usage line
  int usage_exit;          // its usage exit code
  std::string missing;     // a flag given without its value
  std::string malformed;   // a flag with a malformed number
  std::string bad_message;
};

std::vector<FrontEnd> front_ends() {
  std::vector<FrontEnd> tools = {
      {SPECCC_BATCH_BIN, "speccc_batch", 1, "--json", "--jobs 2x",
       "--jobs: bad value \"2x\""},
      {SPECCC_SHARD_BIN, "speccc_shard", 1, "--worker", "--shards 2x",
       "--shards: bad value \"2x\""},
      {SPECCC_SERVE_BIN, "speccc_serve", 1, "--port-file", "--port 70000",
       "--port: bad value \"70000\""},
      {SPECCC_LOAD_BIN, "speccc_load", 1, "--port-file", "--rate fast",
       "--rate: bad value \"fast\""},
      {SPECCC_FUZZ_BIN, "speccc_fuzz", 2, "--seed", "--specs 5x",
       "--specs: bad value \"5x\""},
      {SPECCC_CNF_BIN, "speccc_cnf", 2, "-o", "--cut-size 7",
       "--cut-size: bad value \"7\""},
  };
#ifdef SPECCC_CHECK_SPEC_BIN
  // check_spec's --budget used to go through std::stoul: "abc" aborted.
  tools.push_back({SPECCC_CHECK_SPEC_BIN, "check_spec", 1, "--dot",
                   "--budget abc", "--budget: bad value \"abc\""});
#endif
  return tools;
}

/// Run `binary args` (bounded by `timeout`, so a regression that starts a
/// daemon cannot hang the suite); returns the exit code, -1 if signalled.
int run(const std::string& dir, const FrontEnd& tool, const std::string& args,
        std::string& out, std::string& err) {
  const std::string command = "timeout 20 \"" + tool.binary + "\" " + args +
                              " > " + dir + "/out 2> " + dir + "/err";
  const int status = std::system(command.c_str());
  out = slurp(dir + "/out");
  err = slurp(dir + "/err");
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

TEST(FrontEnds, UsageErrorsPrintTheMessageThenTheUsageAndExitWithTheUsageCode) {
  const std::string dir = ::testing::TempDir() + "speccc_cli";
  std::filesystem::create_directories(dir);
  for (const FrontEnd& tool : front_ends()) {
    const std::string usage = "usage: " + tool.name;
    // check_spec answers an unknown option with its usage text alone.
    const std::string unknown =
        tool.name == "check_spec" ? usage : "unknown option: --bogus\n" + usage;
    const struct {
      std::string args;
      std::string message;
    } cases[] = {
        {"--bogus", unknown},
        {tool.missing, tool.missing + " needs an argument\n" + usage},
        {tool.malformed, tool.bad_message + "\n" + usage},
    };
    for (const auto& c : cases) {
      std::string out;
      std::string err;
      EXPECT_EQ(run(dir, tool, c.args, out, err), tool.usage_exit)
          << tool.name << " " << c.args;
      EXPECT_EQ(err.rfind(c.message, 0), 0u)
          << tool.name << " " << c.args << ": " << err;
      EXPECT_TRUE(out.empty()) << tool.name << " " << c.args;
    }
  }
}

// Run with no arguments, each tool does what it did before the shared
// parser: its own path is not a token. (speccc_serve is left out: with no
// arguments it listens on its default port.)
TEST(FrontEnds, NoArgumentsIsNotAnUnknownOption) {
  const std::string dir = ::testing::TempDir() + "speccc_cli";
  std::filesystem::create_directories(dir);
  for (const FrontEnd& tool : front_ends()) {
    if (tool.name == "speccc_serve" || tool.name == "speccc_shard") continue;
    std::string out;
    std::string err;
    const int exit = run(dir, tool, "", out, err);
    EXPECT_EQ(err.find("unknown option"), std::string::npos)
        << tool.name << ": " << err;
    if (tool.name == "speccc_fuzz") {
      // The default campaign runs (or is still running at the timeout).
      EXPECT_TRUE(exit == 0 || exit == 124) << exit;
      EXPECT_EQ(err.find("usage:"), std::string::npos) << err;
      continue;
    }
    const std::string expected = tool.name == "speccc_batch"
                                     ? "no specifications to check\n"
                                 : tool.name == "speccc_load"
                                     ? "need --port or --port-file"
                                 : tool.name == "speccc_cnf"
                                     ? "pick an instance"
                                     : "usage: check_spec";
    EXPECT_EQ(exit, tool.usage_exit) << tool.name;
    EXPECT_EQ(err.rfind(expected, 0), 0u) << tool.name << ": " << err;
    EXPECT_TRUE(out.empty()) << tool.name;
  }
}

#ifdef SPECCC_CHECK_SPEC_BIN
// A malformed dictionary file is a parsing error (exit 1), not an abort.
TEST(FrontEnds, CheckSpecReportsAMalformedDictionaryFile) {
  const std::string dir = ::testing::TempDir() + "speccc_cli";
  std::filesystem::create_directories(dir);
  const std::string bad = dir + "/bad.dict";
  std::ofstream(bad) << "bad line with too many fields here\n";
  const FrontEnd check_spec = front_ends().back();
  for (const char* flag : {"--lexicon", "--antonyms"}) {
    std::string out;
    std::string err;
    EXPECT_EQ(run(dir, check_spec, std::string(flag) + " " + bad + " x.txt",
                  out, err),
              1)
        << flag << ": " << err;
    EXPECT_EQ(err.rfind("error: ", 0), 0u) << flag << ": " << err;
  }
}
#endif
