// Tests for the long-running service layer (serve/): the NDJSON protocol
// codec and the Service engine's contracts
// -- verdicts byte-identical to batch::check, bounded-queue backpressure
// with retry hints, priority ordering, deadline handling (never silently
// dropped), per-request cache accounting, and drain-complete shutdown.
// Everything here is in-process and socket-free by design; the TCP path
// is exercised by the CI serve smoke (speccc_serve + speccc_load).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "batch/batch.hpp"
#include "cache/store.hpp"
#include "difftest/harness.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace batch = speccc::batch;
namespace cache = speccc::cache;
namespace serve = speccc::serve;
namespace json = speccc::util::json;
using speccc::util::ParseError;

namespace {

batch::SpecTask door_spec(std::string name = "doors") {
  return {std::move(name),
          {
              {"R1", "If the door button is pressed, the lock signal is updated."},
              {"R2",
               "When the door sensor is detected, eventually the alarm is "
               "raised."},
          }};
}

serve::Request make_request(std::string id, batch::SpecTask spec,
                            int priority = 0, double deadline_seconds = 0.0) {
  serve::Request request;
  request.id = std::move(id);
  request.spec = std::move(spec);
  request.priority = priority;
  request.deadline_seconds = deadline_seconds;
  return request;
}

}  // namespace

// ---- serve protocol codec ---------------------------------------------------

TEST(ServeProtocol, ParsesCheckWithStringAndObjectRequirements) {
  const serve::ParsedRequest parsed = serve::parse_request(
      R"({"method":"check","id":"r9","name":"spec-a","priority":2,)"
      R"("deadline_ms":1500,"requirements":)"
      R"(["the door is open",{"id":"lock","text":"the lock is closed"}]})");
  EXPECT_EQ(parsed.method, serve::Method::kCheck);
  EXPECT_EQ(parsed.id, "r9");
  EXPECT_EQ(parsed.request.spec.name, "spec-a");
  EXPECT_EQ(parsed.request.priority, 2);
  EXPECT_DOUBLE_EQ(parsed.request.deadline_seconds, 1.5);
  ASSERT_EQ(parsed.request.spec.requirements.size(), 2u);
  EXPECT_EQ(parsed.request.spec.requirements[0].id, "R1");  // positional default
  EXPECT_EQ(parsed.request.spec.requirements[0].text, "the door is open");
  EXPECT_EQ(parsed.request.spec.requirements[1].id, "lock");
}

TEST(ServeProtocol, CheckDefaultsIdToNameAndNameToSpec) {
  const serve::ParsedRequest named = serve::parse_request(
      R"({"method":"check","name":"n1","requirements":["x is set"]})");
  EXPECT_EQ(named.id, "n1");
  EXPECT_EQ(named.request.id, "n1");
  const serve::ParsedRequest bare =
      serve::parse_request(R"({"method":"check","requirements":["x is set"]})");
  EXPECT_EQ(bare.request.spec.name, "spec");
  EXPECT_EQ(bare.id, "spec");
}

TEST(ServeProtocol, ParsesControlMethods) {
  EXPECT_EQ(serve::parse_request(R"({"method":"ping","id":"p"})").method,
            serve::Method::kPing);
  EXPECT_EQ(serve::parse_request(R"({"method":"stats"})").method,
            serve::Method::kStats);
  EXPECT_EQ(serve::parse_request(R"({"method":"shutdown"})").method,
            serve::Method::kShutdown);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(serve::parse_request("not json"), ParseError);
  EXPECT_THROW(serve::parse_request("[1,2]"), ParseError);
  EXPECT_THROW(serve::parse_request(R"({"id":"x"})"), ParseError);  // no method
  EXPECT_THROW(serve::parse_request(R"({"method":"frobnicate"})"), ParseError);
  EXPECT_THROW(serve::parse_request(R"({"method":"check"})"), ParseError);
  EXPECT_THROW(
      serve::parse_request(R"({"method":"check","requirements":[]})"),
      ParseError);
  EXPECT_THROW(
      serve::parse_request(R"({"method":"check","requirements":[42]})"),
      ParseError);
  EXPECT_THROW(serve::parse_request(
                   R"({"method":"check","requirements":[""]})"),
               ParseError);
  EXPECT_THROW(
      serve::parse_request(
          R"({"method":"check","deadline_ms":-5,"requirements":["x is set"]})"),
      ParseError);
}

TEST(ServeProtocol, RejectsNumbersOutsideTheirFieldsRange) {
  // An out-of-range number must be refused before any float-to-integer
  // conversion (undefined behaviour past the target's range).
  const auto error_of = [](const std::string& fields) -> std::string {
    try {
      (void)serve::parse_request(R"({"method":"check",)" + fields +
                                 R"(,"requirements":["x is set"]})");
    } catch (const ParseError& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const char* priority : {"1e300", "-3e9", "2147483648", "1.5"}) {
    const std::string what = error_of(std::string(R"("priority":)") + priority);
    EXPECT_EQ(what.rfind("protocol: \"priority\" must be an integer", 0), 0u)
        << priority << ": " << what;
  }
  for (const char* deadline : {"1e20", "10000000001"}) {
    const std::string what =
        error_of(std::string(R"("deadline_ms":)") + deadline);
    EXPECT_EQ(what.rfind("protocol: \"deadline_ms\" must be in [0, ", 0), 0u)
        << deadline << ": " << what;
  }

  // The bounds themselves are accepted.
  const serve::ParsedRequest edge = serve::parse_request(
      R"({"method":"check","priority":-2147483648,"deadline_ms":1e10,)"
      R"("requirements":["x is set"]})");
  EXPECT_EQ(edge.request.priority, std::numeric_limits<int>::min());
  EXPECT_DOUBLE_EQ(edge.request.deadline_seconds, serve::kMaxDeadlineMs / 1000);
}

TEST(ServeCli, DefaultDeadlineBeyondTheBoundIsAUsageError) {
  // Parsed before the listener starts; `timeout` bounds a regression that
  // would accept the flag and serve forever.
  const std::string command = std::string("timeout 20 \"") + SPECCC_SERVE_BIN +
                              "\" --port 0 --quiet --default-deadline-ms "
                              "1e20 2>/dev/null";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

TEST(ServeProtocol, RendersResultWithEmbeddedCanonicalLine) {
  batch::TaskResult result;
  result.name = "doors";
  result.status = batch::TaskStatus::kConsistent;
  result.formulas = 2;
  result.inputs = 2;
  result.outputs = 2;
  result.seconds = 0.25;

  serve::Response response;
  response.id = "r1";
  response.kind = serve::ResponseKind::kResult;
  response.result = result;
  response.queue_seconds = 0.002;

  const std::string line = serve::render_response(response);
  const json::Value doc = json::parse(line);
  EXPECT_EQ(doc.find("id")->as_string(), "r1");
  EXPECT_EQ(doc.find("kind")->as_string(), "result");
  EXPECT_EQ(doc.find("status")->as_string(), "consistent");
  EXPECT_EQ(doc.find("queue_ms")->as_number(), 2.0);
  EXPECT_EQ(doc.find("run_ms")->as_number(), 250.0);
  // The canonical field is EXACTLY batch's canonical line, newline
  // stripped -- the byte-comparability bridge.
  std::string expected = batch::canonical_line(result);
  ASSERT_FALSE(expected.empty());
  expected.pop_back();  // '\n'
  EXPECT_EQ(doc.find("canonical")->as_string(), expected);
}

TEST(ServeProtocol, ParsesOptionalSubstrateField) {
  const serve::ParsedRequest raced = serve::parse_request(
      R"({"method":"check","requirements":["x is set"],)"
      R"("substrate":"race:tableau,bounded"})");
  ASSERT_TRUE(raced.request.substrate.has_value());
  EXPECT_EQ(raced.request.substrate->to_string(), "race:tableau,bounded");

  const serve::ParsedRequest plain = serve::parse_request(
      R"({"method":"check","requirements":["x is set"]})");
  EXPECT_FALSE(plain.request.substrate.has_value());

  // An unparseable spec is a protocol error like any malformed field.
  EXPECT_THROW(
      serve::parse_request(R"({"method":"check","requirements":["x is set"],)"
                           R"("substrate":"race:tableau"})"),
      ParseError);
  EXPECT_THROW(
      serve::parse_request(R"({"method":"check","requirements":["x is set"],)"
                           R"("substrate":"warp"})"),
      ParseError);
}

TEST(ServeProtocol, RendersRacedResultWithWonAndSubstrateStats) {
  batch::TaskResult result;
  result.name = "doors";
  result.status = batch::TaskStatus::kConsistent;
  result.substrate = "symbolic";
  speccc::core::PortfolioStats portfolio;
  portfolio.winner = "symbolic";
  speccc::core::SubstrateRunStats tableau_run;
  tableau_run.name = "tableau";
  tableau_run.cancelled = true;
  speccc::core::SubstrateRunStats symbolic_run;
  symbolic_run.name = "symbolic";
  symbolic_run.verdict = speccc::synth::Realizability::kRealizable;
  symbolic_run.wall_seconds = 0.004;
  symbolic_run.won = true;
  portfolio.runs = {tableau_run, symbolic_run};
  result.portfolio = portfolio;

  serve::Response response;
  response.id = "r7";
  response.kind = serve::ResponseKind::kResult;
  response.result = result;

  const json::Value doc = json::parse(serve::render_response(response));
  EXPECT_EQ(doc.find("substrate")->as_string(), "symbolic");
  EXPECT_EQ(doc.find("won")->as_string(), "symbolic");
  const auto& runs = doc.find("substrates")->as_array();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].find("name")->as_string(), "tableau");
  EXPECT_TRUE(runs[0].find("cancelled")->as_bool());
  EXPECT_EQ(runs[1].find("name")->as_string(), "symbolic");
  EXPECT_EQ(runs[1].find("verdict")->as_string(), "realizable");
  EXPECT_TRUE(runs[1].find("won")->as_bool());

  // The race diagnostics ride ALONGSIDE the canonical row, never in it:
  // the embedded field stays byte-identical to an unraced result's.
  std::string expected = batch::canonical_line(result);
  expected.pop_back();
  EXPECT_EQ(doc.find("canonical")->as_string(), expected);
  EXPECT_EQ(expected.find("won"), std::string::npos);

  // Unraced results carry neither field.
  batch::TaskResult bare;
  bare.name = "doors";
  bare.status = batch::TaskStatus::kConsistent;
  serve::Response bare_response;
  bare_response.id = "r8";
  bare_response.kind = serve::ResponseKind::kResult;
  bare_response.result = bare;
  const json::Value bare_doc =
      json::parse(serve::render_response(bare_response));
  EXPECT_EQ(bare_doc.find("won"), nullptr);
  EXPECT_EQ(bare_doc.find("substrates"), nullptr);
}

TEST(ServeProtocol, RendersRejectionAndErrorKinds) {
  serve::Response rejection;
  rejection.id = "r2";
  rejection.kind = serve::ResponseKind::kRejected;
  rejection.error = "admission queue is full";
  rejection.retry_after_seconds = 0.128;
  const json::Value doc = json::parse(serve::render_response(rejection));
  EXPECT_EQ(doc.find("kind")->as_string(), "rejected");
  EXPECT_EQ(doc.find("retry_after_ms")->as_number(), 128.0);

  const json::Value err = json::parse(serve::render_error("", "bad line"));
  EXPECT_EQ(err.find("kind")->as_string(), "error");
  EXPECT_EQ(err.find("error")->as_string(), "bad line");

  const json::Value pong = json::parse(serve::render_pong("p1"));
  EXPECT_EQ(pong.find("kind")->as_string(), "pong");
}

TEST(ServeProtocol, RendersStatsWithCacheSection) {
  serve::ServiceStats stats;
  stats.submitted = 5;
  stats.completed = 4;
  stats.workers = 2;
  cache::Store store({.shards = 4, .max_entries = 8,
                      .eviction = cache::Eviction::kLru});
  const json::Value doc =
      json::parse(serve::render_stats("s1", stats, &store));
  EXPECT_EQ(doc.find("submitted")->as_number(), 5.0);
  EXPECT_EQ(doc.find("workers")->as_number(), 2.0);
  ASSERT_NE(doc.find("cache"), nullptr);
  EXPECT_EQ(doc.find("cache")->find("eviction")->as_string(), "lru");
  // Without a store the section is absent.
  const json::Value bare = json::parse(serve::render_stats("s2", stats, nullptr));
  EXPECT_EQ(bare.find("cache"), nullptr);
}

// ---- serve::Service ---------------------------------------------------------

TEST(ServeService, VerdictsAreByteIdenticalToBatch) {
  // The determinism bridge, in-process: the same specs through
  // batch::check and through the service must render identical canonical
  // lines (the CI smoke re-proves this across the TCP transport).
  std::vector<batch::SpecTask> specs;
  for (int index = 0; index < 6; ++index) {
    auto spec = speccc::difftest::generated_spec(11, index);
    specs.push_back({std::move(spec.name), std::move(spec.requirements)});
  }
  batch::BatchOptions batch_options;
  batch_options.jobs = 1;
  const batch::BatchReport report = batch::check(specs, batch_options);

  serve::ServiceOptions options;
  options.workers = 2;
  serve::Service service(options);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const serve::Response response =
        service.check(make_request("q" + std::to_string(i), specs[i]));
    ASSERT_EQ(response.kind, serve::ResponseKind::kResult) << response.error;
    EXPECT_EQ(batch::canonical_line(response.result),
              batch::canonical_line(report.results[i]))
        << specs[i].name;
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServeService, PerRequestSubstrateOverrideKeepsCanonicalParity) {
  // A raced request must answer the same canonical line as the unraced
  // default -- mixed-substrate traffic stays byte-comparable with batch --
  // while carrying the race diagnostics alongside.
  serve::ServiceOptions options;
  options.workers = 1;
  serve::Service service(options);

  const serve::Response plain = service.check(make_request("p", door_spec()));
  ASSERT_EQ(plain.kind, serve::ResponseKind::kResult) << plain.error;

  serve::Request raced_request = make_request("r", door_spec());
  raced_request.substrate =
      speccc::core::SubstrateSpec::parse("race:tableau,bounded,symbolic");
  const serve::Response raced = service.check(std::move(raced_request));
  ASSERT_EQ(raced.kind, serve::ResponseKind::kResult) << raced.error;

  EXPECT_EQ(batch::canonical_line(raced.result),
            batch::canonical_line(plain.result));
  ASSERT_TRUE(raced.result.portfolio.has_value());
  EXPECT_EQ(raced.result.portfolio->runs.size(), 3u);
  EXPECT_FALSE(raced.result.substrate.empty());
  EXPECT_FALSE(plain.result.portfolio.has_value());
}

TEST(ServeService, BackpressureRejectsWithRetryHintAndAnswersEveryRequest) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  serve::Service service(options);

  // Block the single worker inside a completion callback so the queue
  // state is deterministic while we probe admission.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> answered{0};
  ASSERT_TRUE(service.submit(make_request("blocker", door_spec()),
                            [&](serve::Response) {
                              started.set_value();
                              release_future.wait();
                              ++answered;
                            }));
  started.get_future().wait();  // worker is now parked; queue is empty

  // Fill the queue exactly to capacity...
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(service.submit(make_request("fill" + std::to_string(i),
                                            door_spec()),
                               [&](serve::Response r) {
                                 EXPECT_EQ(r.kind, serve::ResponseKind::kResult);
                                 ++answered;
                               }));
  }
  // ...and the next submission bounces with a positive retry hint.
  serve::Response rejection;
  EXPECT_FALSE(service.submit(make_request("overflow", door_spec()),
                              [&](serve::Response r) {
                                rejection = std::move(r);
                                ++answered;
                              }));
  EXPECT_EQ(rejection.kind, serve::ResponseKind::kRejected);
  EXPECT_EQ(rejection.id, "overflow");
  EXPECT_GT(rejection.retry_after_seconds, 0.0);

  release.set_value();
  service.shutdown();
  // Exactly one response per submission: 1 blocker + 2 fills + 1 rejection.
  EXPECT_EQ(answered.load(), 4);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(ServeService, LowerPriorityValueRunsFirstFifoWithinClass) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  serve::Service service(options);

  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ASSERT_TRUE(service.submit(make_request("blocker", door_spec()),
                            [&](serve::Response) {
                              started.set_value();
                              release_future.wait();
                            }));
  started.get_future().wait();

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&](serve::Response r) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(r.id);
  };
  // Enqueued while the worker is parked: urgent (0) beats normal (5);
  // same priority keeps submission order.
  ASSERT_TRUE(service.submit(make_request("slow-a", door_spec(), 5), record));
  ASSERT_TRUE(service.submit(make_request("urgent", door_spec(), 0), record));
  ASSERT_TRUE(service.submit(make_request("slow-b", door_spec(), 5), record));

  release.set_value();
  service.shutdown();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "urgent");
  EXPECT_EQ(order[1], "slow-a");
  EXPECT_EQ(order[2], "slow-b");
}

TEST(ServeService, ExpiredDeadlineAnswersDeadlineExceededNotSilence) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::Service service(options);

  // Park the worker so the deadline lapses while the request is queued.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ASSERT_TRUE(service.submit(make_request("blocker", door_spec()),
                            [&](serve::Response) {
                              started.set_value();
                              release_future.wait();
                            }));
  started.get_future().wait();

  std::promise<serve::Response> answered;
  ASSERT_TRUE(service.submit(
      make_request("doomed", door_spec(), 0, /*deadline_seconds=*/1e-9),
      [&](serve::Response r) { answered.set_value(std::move(r)); }));
  release.set_value();

  const serve::Response response = answered.get_future().get();
  EXPECT_EQ(response.kind, serve::ResponseKind::kDeadlineExceeded);
  EXPECT_EQ(response.id, "doomed");
  EXPECT_FALSE(response.error.empty());
  service.shutdown();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  // The expired request was counted, answered, and never ran to a verdict.
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServeService, DefaultDeadlineAppliesToRequestsWithoutOne) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.default_deadline_seconds = 1e-9;
  serve::Service service(options);

  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ASSERT_TRUE(service.submit(make_request("blocker", door_spec(), 0,
                                          /*deadline_seconds=*/3600.0),
                            [&](serve::Response) {
                              started.set_value();
                              release_future.wait();
                            }));
  started.get_future().wait();
  // No explicit deadline: inherits the (immediately expiring) default.
  std::promise<serve::Response> answered;
  ASSERT_TRUE(
      service.submit(make_request("inherits", door_spec()),
                     [&](serve::Response r) { answered.set_value(std::move(r)); }));
  release.set_value();
  EXPECT_EQ(answered.get_future().get().kind,
            serve::ResponseKind::kDeadlineExceeded);
  service.shutdown();
}

TEST(ServeService, ShutdownDrainsQueuedWorkThenRejects) {
  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  serve::Service service(options);

  std::atomic<int> answered{0};
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(service.submit(
        make_request("q" + std::to_string(i), door_spec()),
        [&](serve::Response r) {
          EXPECT_EQ(r.kind, serve::ResponseKind::kResult);
          ++answered;
        }));
  }
  service.shutdown();  // must not return before every request answers
  EXPECT_EQ(answered.load(), kRequests);

  serve::Response late;
  EXPECT_FALSE(service.submit(make_request("late", door_spec()),
                              [&](serve::Response r) { late = std::move(r); }));
  EXPECT_EQ(late.kind, serve::ResponseKind::kRejected);
  EXPECT_EQ(service.stats().completed, static_cast<std::uint64_t>(kRequests));
}

TEST(ServeService, PerRequestCacheAccountingIsExact) {
  serve::ServiceOptions options;
  options.workers = 1;
  auto store = std::make_shared<cache::Store>(
      cache::StoreOptions{.eviction = cache::Eviction::kLru});
  options.pipeline.cache = store;
  serve::Service service(options);

  const serve::Response first = service.check(make_request("c1", door_spec()));
  ASSERT_EQ(first.kind, serve::ResponseKind::kResult);
  EXPECT_GT(first.result.cache.misses(), 0u);  // cold store

  const serve::Response second = service.check(make_request("c2", door_spec()));
  ASSERT_EQ(second.kind, serve::ResponseKind::kResult);
  // The identical spec re-checked against a warm store: every artifact
  // hits, nothing misses -- and the thread-local deltas attribute that to
  // THIS request exactly.
  EXPECT_EQ(second.result.cache.misses(), 0u);
  EXPECT_GT(second.result.cache.hits(), 0u);
  // And the verdicts stayed byte-identical, warm or cold.
  EXPECT_EQ(batch::canonical_line(second.result),
            batch::canonical_line(first.result));
  service.shutdown();
}
