// Substrate portfolio racing: SubstrateSpec parsing, the builtin registry,
// and the PortfolioRunner's first-verdict-wins semantics -- above all the
// race determinism contract, proved the strong way: racing on vs racing
// off must produce byte-identical canonical batch output over the paper's
// Table I corpus for every jobs count and cache mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "batch/batch.hpp"
#include "batch/corpus_tasks.hpp"
#include "cache/store.hpp"
#include "core/portfolio.hpp"
#include "core/substrate.hpp"
#include "difftest/harness.hpp"
#include "ltl/parser.hpp"
#include "util/diagnostics.hpp"

namespace batch = speccc::batch;
namespace core = speccc::core;
namespace ltl = speccc::ltl;
namespace synth = speccc::synth;
namespace util = speccc::util;

using core::SubstrateSpec;
using synth::Realizability;

namespace {

// ---------------------------------------------------------------------------
// SubstrateSpec parsing

TEST(SubstrateSpec, ParsesAutoSoloAndRace) {
  EXPECT_TRUE(SubstrateSpec::parse("auto").is_auto());
  const SubstrateSpec solo = SubstrateSpec::parse("bounded");
  EXPECT_EQ(solo.mode, SubstrateSpec::Mode::kSolo);
  ASSERT_EQ(solo.substrates.size(), 1u);
  EXPECT_EQ(solo.substrates.front(), "bounded");
  const SubstrateSpec race = SubstrateSpec::parse("race:tableau,symbolic");
  EXPECT_EQ(race.mode, SubstrateSpec::Mode::kRace);
  ASSERT_EQ(race.substrates.size(), 2u);
  EXPECT_EQ(race.substrates[0], "tableau");
  EXPECT_EQ(race.substrates[1], "symbolic");
}

TEST(SubstrateSpec, RoundTripsThroughToString) {
  for (const char* text :
       {"auto", "tableau", "bounded", "symbolic", "race:tableau,bounded",
        "race:tableau,bounded,symbolic", "race:symbolic,bounded"}) {
    const SubstrateSpec spec = SubstrateSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(SubstrateSpec::parse(spec.to_string()), spec) << text;
  }
}

TEST(SubstrateSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)SubstrateSpec::parse(""), util::InvalidInputError);
  EXPECT_THROW((void)SubstrateSpec::parse("sat"), util::InvalidInputError);
  EXPECT_THROW((void)SubstrateSpec::parse("race:"), util::InvalidInputError);
  EXPECT_THROW((void)SubstrateSpec::parse("race:tableau"),
               util::InvalidInputError);
  EXPECT_THROW((void)SubstrateSpec::parse("race:tableau,"),
               util::InvalidInputError);
  EXPECT_THROW((void)SubstrateSpec::parse("race:tableau,tableau"),
               util::InvalidInputError);
  EXPECT_THROW((void)SubstrateSpec::parse("race:tableau,warp"),
               util::InvalidInputError);
}

// ---------------------------------------------------------------------------
// Registry and the builtin substrates

TEST(SubstrateRegistry, GlobalHoldsTheThreeBuiltins) {
  const core::SubstrateRegistry& registry = core::SubstrateRegistry::global();
  EXPECT_EQ(registry.names(), core::builtin_substrate_names());
  for (const std::string& name : core::builtin_substrate_names()) {
    const core::Substrate* substrate = registry.find(name);
    ASSERT_NE(substrate, nullptr) << name;
    EXPECT_EQ(substrate->name(), name);
  }
  EXPECT_EQ(registry.find("warp"), nullptr);
}

TEST(SubstrateRegistry, ResolvePreservesSpecOrderAndRejectsAuto) {
  const core::SubstrateRegistry& registry = core::SubstrateRegistry::global();
  const auto racers =
      registry.resolve(SubstrateSpec::parse("race:symbolic,tableau"));
  ASSERT_EQ(racers.size(), 2u);
  EXPECT_EQ(racers[0]->name(), "symbolic");
  EXPECT_EQ(racers[1]->name(), "tableau");
  EXPECT_THROW((void)registry.resolve(SubstrateSpec{}),
               util::InvalidInputError);
}

TEST(TableauSubstrate, UnsatIsUnrealizableSatAbstains) {
  const core::Substrate* tableau =
      core::SubstrateRegistry::global().find("tableau");
  ASSERT_NE(tableau, nullptr);
  const synth::IoSignature signature{{"p"}, {"q"}};
  const synth::SynthesisOptions options;
  // (G p) & (G !p) is unsatisfiable: unrealizable under ANY partition.
  const auto unsat = tableau->check(
      {ltl::parse("G p"), ltl::parse("G !p")}, signature, options, {});
  EXPECT_EQ(unsat.verdict, Realizability::kUnrealizable);
  EXPECT_EQ(unsat.substrate_used, "tableau");
  // A satisfiable conjunction proves nothing about realizability.
  const auto sat = tableau->check({ltl::parse("G (p -> F q)")}, signature,
                                  options, {});
  EXPECT_EQ(sat.verdict, Realizability::kUnknown);
}

// ---------------------------------------------------------------------------
// Test doubles for pinning race semantics without timing luck

/// Answers a fixed verdict immediately.
class InstantSubstrate final : public core::Substrate {
 public:
  InstantSubstrate(std::string name, Realizability verdict)
      : name_(std::move(name)), verdict_(verdict) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] synth::SynthesisResult check(
      const std::vector<ltl::Formula>&, const synth::IoSignature&,
      const synth::SynthesisOptions&, const core::CancelFn&) const override {
    synth::SynthesisResult result;
    result.verdict = verdict_;
    return result;
  }

 private:
  std::string name_;
  Realizability verdict_;
};

/// Never answers on its own: polls the cancel predicate every millisecond
/// until it fires (then unwinds like a real cancelled engine), or a
/// generous deadline passes (then abstains, keeping the test hang-proof).
class SlowSubstrate final : public core::Substrate {
 public:
  explicit SlowSubstrate(std::atomic<bool>* observed_cancel)
      : observed_cancel_(observed_cancel) {}

  [[nodiscard]] std::string_view name() const override { return "slow"; }

  [[nodiscard]] synth::SynthesisResult check(
      const std::vector<ltl::Formula>&, const synth::IoSignature&,
      const synth::SynthesisOptions&,
      const core::CancelFn& cancelled) const override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (cancelled && cancelled()) {
        if (observed_cancel_ != nullptr) observed_cancel_->store(true);
        throw util::CancelledError("slow substrate cancelled");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    synth::SynthesisResult result;
    result.verdict = Realizability::kUnknown;
    return result;
  }

 private:
  std::atomic<bool>* observed_cancel_;
};

/// Always throws, standing in for an inapplicable substrate.
class ErroringSubstrate final : public core::Substrate {
 public:
  ErroringSubstrate(std::string name, std::string message)
      : name_(std::move(name)), message_(std::move(message)) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] synth::SynthesisResult check(
      const std::vector<ltl::Formula>&, const synth::IoSignature&,
      const synth::SynthesisOptions&, const core::CancelFn&) const override {
    throw util::InvalidInputError(message_);
  }

 private:
  std::string name_;
  std::string message_;
};

SubstrateSpec race_of(std::vector<std::string> names) {
  SubstrateSpec spec;
  spec.mode = SubstrateSpec::Mode::kRace;
  spec.substrates = std::move(names);
  return spec;
}

const std::vector<ltl::Formula>& dummy_formulas() {
  static const std::vector<ltl::Formula> formulas = {ltl::parse("G p")};
  return formulas;
}

const synth::IoSignature& dummy_signature() {
  static const synth::IoSignature signature{{"p"}, {"q"}};
  return signature;
}

// ---------------------------------------------------------------------------
// PortfolioRunner semantics

TEST(PortfolioRunner, WinnerVerdictUsedAndLoserCancelled) {
  std::atomic<bool> slow_saw_cancel{false};
  core::SubstrateRegistry registry;
  registry.add(std::make_unique<SlowSubstrate>(&slow_saw_cancel));
  registry.add(
      std::make_unique<InstantSubstrate>("instant", Realizability::kRealizable));

  // The slow racer is listed FIRST (it runs inline on the caller thread),
  // so the win must come from the threaded racer flipping the flag.
  const core::PortfolioRunner runner(registry, race_of({"slow", "instant"}));
  core::PortfolioStats stats;
  const synth::SynthesisResult result = runner.run(
      dummy_formulas(), dummy_signature(), synth::SynthesisOptions{}, {},
      &stats);

  EXPECT_EQ(result.verdict, Realizability::kRealizable);
  EXPECT_EQ(result.substrate_used, "instant");
  EXPECT_TRUE(slow_saw_cancel.load());
  EXPECT_EQ(stats.winner, "instant");
  ASSERT_EQ(stats.runs.size(), 2u);
  EXPECT_EQ(stats.runs[0].name, "slow");
  EXPECT_TRUE(stats.runs[0].cancelled);
  EXPECT_FALSE(stats.runs[0].won);
  EXPECT_EQ(stats.runs[1].name, "instant");
  EXPECT_TRUE(stats.runs[1].won);
  EXPECT_FALSE(stats.runs[1].cancelled);
}

TEST(PortfolioRunner, AllAbstainBreaksTiesInSpecOrder) {
  core::SubstrateRegistry registry;
  registry.add(
      std::make_unique<InstantSubstrate>("ab1", Realizability::kUnknown));
  registry.add(
      std::make_unique<InstantSubstrate>("ab2", Realizability::kUnknown));
  // Identical abstentions either way round: the first-listed racer's
  // result is the result, independent of which thread finished first.
  for (const auto& order : {race_of({"ab1", "ab2"}), race_of({"ab2", "ab1"})}) {
    const core::PortfolioRunner runner(registry, order);
    core::PortfolioStats stats;
    const synth::SynthesisResult result =
        runner.run(dummy_formulas(), dummy_signature(),
                   synth::SynthesisOptions{}, {}, &stats);
    EXPECT_EQ(result.verdict, Realizability::kUnknown);
    EXPECT_EQ(result.substrate_used, order.substrates.front());
    EXPECT_TRUE(stats.winner.empty());
  }
}

TEST(PortfolioRunner, AbstainersNeverOutrankADefiniteVerdict) {
  core::SubstrateRegistry registry;
  registry.add(
      std::make_unique<InstantSubstrate>("ab1", Realizability::kUnknown));
  registry.add(std::make_unique<InstantSubstrate>(
      "definite", Realizability::kUnrealizable));
  const core::PortfolioRunner runner(registry, race_of({"ab1", "definite"}));
  const synth::SynthesisResult result = runner.run(
      dummy_formulas(), dummy_signature(), synth::SynthesisOptions{}, {});
  EXPECT_EQ(result.verdict, Realizability::kUnrealizable);
  EXPECT_EQ(result.substrate_used, "definite");
}

TEST(PortfolioRunner, AllErroredRethrowsTheFirstListedError) {
  core::SubstrateRegistry registry;
  registry.add(std::make_unique<ErroringSubstrate>("e1", "first error"));
  registry.add(std::make_unique<ErroringSubstrate>("e2", "second error"));
  const core::PortfolioRunner runner(registry, race_of({"e1", "e2"}));
  core::PortfolioStats stats;
  try {
    (void)runner.run(dummy_formulas(), dummy_signature(),
                     synth::SynthesisOptions{}, {}, &stats);
    FAIL() << "expected the first racer's error to propagate";
  } catch (const util::InvalidInputError& e) {
    EXPECT_STREQ(e.what(), "first error");
  }
  ASSERT_EQ(stats.runs.size(), 2u);
  EXPECT_EQ(stats.runs[0].error, "first error");
  EXPECT_EQ(stats.runs[1].error, "second error");
}

TEST(PortfolioRunner, ErrorBesideAnAbstainerYieldsTheAbstention) {
  core::SubstrateRegistry registry;
  registry.add(std::make_unique<ErroringSubstrate>("e1", "inapplicable"));
  registry.add(
      std::make_unique<InstantSubstrate>("ab1", Realizability::kUnknown));
  const core::PortfolioRunner runner(registry, race_of({"e1", "ab1"}));
  const synth::SynthesisResult result = runner.run(
      dummy_formulas(), dummy_signature(), synth::SynthesisOptions{}, {});
  EXPECT_EQ(result.verdict, Realizability::kUnknown);
  EXPECT_EQ(result.substrate_used, "ab1");
}

TEST(PortfolioRunner, ExternalCancelWithoutAWinnerThrowsCancelled) {
  core::SubstrateRegistry registry;
  registry.add(std::make_unique<SlowSubstrate>(nullptr));
  registry.add(
      std::make_unique<InstantSubstrate>("ab1", Realizability::kUnknown));
  const core::PortfolioRunner runner(registry, race_of({"ab1", "slow"}));
  const core::CancelFn external = [] { return true; };
  EXPECT_THROW((void)runner.run(dummy_formulas(), dummy_signature(),
                                synth::SynthesisOptions{}, external),
               util::CancelledError);
}

TEST(PortfolioRunner, SoloSpecIsAOneLaneRace) {
  core::SubstrateRegistry registry;
  registry.add(
      std::make_unique<InstantSubstrate>("only", Realizability::kRealizable));
  SubstrateSpec spec;
  spec.mode = SubstrateSpec::Mode::kSolo;
  spec.substrates = {"only"};
  const core::PortfolioRunner runner(registry, spec);
  core::PortfolioStats stats;
  const synth::SynthesisResult result = runner.run(
      dummy_formulas(), dummy_signature(), synth::SynthesisOptions{}, {},
      &stats);
  EXPECT_EQ(result.verdict, Realizability::kRealizable);
  EXPECT_EQ(stats.winner, "only");
}

// ---------------------------------------------------------------------------
// The determinism contract: race on == race off, byte for byte

TEST(PortfolioDeterminism, RaceMatchesAutoOnTableOneForAllJobsAndCaches) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  ASSERT_EQ(tasks.size(), 22u);

  batch::BatchOptions baseline_options;
  baseline_options.jobs = 1;
  const std::string baseline =
      batch::canonical(batch::check(tasks, baseline_options));

  for (const int jobs : {1, 4, 8}) {
    for (const bool cache_on : {false, true}) {
      batch::BatchOptions options;
      options.jobs = jobs;
      options.pipeline.substrate =
          SubstrateSpec::parse("race:tableau,bounded,symbolic");
      if (cache_on) {
        options.pipeline.cache =
            std::make_shared<speccc::cache::Store>(speccc::cache::StoreOptions{});
      }
      const std::string raced = batch::canonical(batch::check(tasks, options));
      EXPECT_EQ(raced, baseline)
          << "race-on canonical output diverged at jobs=" << jobs
          << " cache=" << (cache_on ? "on" : "off");
    }
  }
}

TEST(PortfolioDeterminism, RaceMatchesAutoOnTheStandingSlowSeed) {
  // Seed 6 / spec case 21 is the standing slow spec of the fuzz corpus
  // (the bench_portfolio pin); racing must neither change its verdict nor
  // its canonical row.
  const auto spec = speccc::difftest::generated_spec(6, 21);
  const std::vector<batch::SpecTask> tasks = {{spec.name, spec.requirements}};

  batch::BatchOptions auto_options;
  auto_options.jobs = 1;
  const std::string baseline =
      batch::canonical(batch::check(tasks, auto_options));

  batch::BatchOptions race_options;
  race_options.jobs = 1;
  race_options.pipeline.substrate =
      SubstrateSpec::parse("race:tableau,bounded,symbolic");
  const batch::BatchReport report = batch::check(tasks, race_options);
  EXPECT_EQ(batch::canonical(report), baseline);
  ASSERT_EQ(report.results.size(), 1u);
  ASSERT_TRUE(report.results.front().portfolio.has_value());
  EXPECT_EQ(report.results.front().portfolio->runs.size(), 3u);
}

TEST(PortfolioDeterminism, RacedReportCarriesNonCanonicalStats) {
  const std::vector<batch::SpecTask> tasks = {batch::table1_tasks().front()};
  batch::BatchOptions options;
  options.jobs = 1;
  options.pipeline.substrate = SubstrateSpec::parse("race:bounded,symbolic");
  const batch::BatchReport report = batch::check(tasks, options);
  ASSERT_EQ(report.results.size(), 1u);
  const batch::TaskResult& result = report.results.front();
  ASSERT_TRUE(result.portfolio.has_value());
  EXPECT_FALSE(result.substrate.empty());
  EXPECT_EQ(result.portfolio->runs.size(), 2u);
  // The canonical line must NOT mention the (timing-dependent) winner.
  const std::string line = batch::canonical_line(result);
  EXPECT_EQ(line.find(result.substrate), std::string::npos)
      << "canonical line leaked the winning substrate: " << line;
}

}  // namespace
