#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "batch/batch.hpp"
#include "serve/service.hpp"
#include "util/diagnostics.hpp"

namespace specbench {

using namespace speccc;

namespace {

// Set-up is timed this many times before every pass, so its samples are
// spread through the run as the passes are and a burst of load from
// elsewhere on the machine spoils a few of them, not the reported median.
// The set-up the pass then uses is the last one built.
constexpr int kSetupRepsPerPass = 3;

// planted: specs per pass. About a quarter second per pass at 4 jobs, so a
// run holds over a hundred passes and the reported figures are their medians.
constexpr int kPlantedSpecs = 1000;

// The share of a traced pass's wall time its root spans must cover. The
// rest is the loop between specs, which compares each verdict and little
// more.
constexpr double kMinSpanCoverage = 0.95;

// The serve traffic, driven in planted's traced run for the cache and
// serve layer figures. A hot set of Table-I-sized generated specs recurs;
// one-requirement revisions of it reuse its sentence parses and screen
// results but not its synthesis; fresh generated specs (default shape, so
// now and then one with a depth-12 deadline reaches the screen cliff) and
// planted specs (the planted workload's shape: a default-shape planted spec
// can carry several depth-12 deadlines and outrun any sane deadline on the
// screen alone) miss the cache entirely. The store's per-kind cap holds the
// hot set but not the whole traffic, so it inserts, hits and evicts
// throughout.
// The shares, the nominal rate and the hot set's size are chosen by hand,
// not derived from recorded traffic: the mix is synthetic, and the cache and
// serve figures show how a change moves it, not real traffic.
constexpr int kHotSpecs = 64;
constexpr int kHotMinFormulas = 12;
constexpr int kHotMaxFormulas = 24;
constexpr unsigned kHotPercent = 55;
constexpr unsigned kRevisionPercent = 25;
constexpr unsigned kFreshPercent = 13;  // the rest are planted specs
constexpr std::size_t kStoreEntries = 1024;
constexpr double kNominalRate = 200.0;  // requests per second
constexpr double kLatencyLimitSeconds = 1.0;
// Each request's deadline, with headroom over the limit: a depth-12 spec
// alone runs 0.3-0.7 s on a loaded 4-core machine, and an expiry would be a
// cancelled check rather than a late answer. Answers later than the limit
// still count as SLO misses.
constexpr double kDeadlineSeconds = 2.0;
// An open-loop generator that sends later than this behind schedule has
// stopped imposing the intended load; such a run is not reported.
constexpr double kGeneratorLagBoundMs = 100.0;
constexpr double kLadderRates[] = {100, 200, 400, 800, 1600, 3200};

// ---- shared helpers ---------------------------------------------------------

std::string named(const std::string& name, const std::string& failure) {
  return failure.empty() ? failure : name + ": " + failure;
}

template <typename Make, typename Built>
void timed_setup(const Make& make, std::optional<Built>& built,
                 std::vector<double>& samples) {
  for (int i = 0; i < kSetupRepsPerPass; ++i) {
    built.reset();  // torn down untimed; one set-up alive at a time
    const auto t0 = Clock::now();
    built.emplace(make());
    samples.push_back(seconds_between(t0, Clock::now()));
  }
}

/// Per-pass figures of a workload that repeats one spec set. Every figure
/// is taken per pass and the median pass reported, so a burst of load from
/// elsewhere on the machine spoils one pass, not the run.
struct Passes {
  std::vector<double> specs_per_s;
  std::vector<double> cpu_ms_per_spec;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;

  void add(double wall_s, double cpu_s, const std::vector<double>& latency_ms) {
    const auto n = static_cast<double>(latency_ms.size());
    specs_per_s.push_back(n / wall_s);
    cpu_ms_per_spec.push_back(cpu_s * 1e3 / n);
    p50_ms.push_back(quantile(latency_ms, 0.50));
    p99_ms.push_back(quantile(latency_ms, 0.99));
  }
};

void add_end_to_end(Report& r, const std::vector<double>& setup_s,
                    const Passes& p) {
  r.add("setup_s", median(setup_s), "s");
  r.add("specs_per_s", median(p.specs_per_s), "1/s");
  r.add("latency_p50_ms", median(p.p50_ms), "ms");
  r.add("latency_p99_ms", median(p.p99_ms), "ms");
  r.add("cpu_ms_per_spec", median(p.cpu_ms_per_spec), "ms");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void run_self_test(Report& r, const std::vector<Case>& cases,
                   const std::vector<Verdict>& verdicts) {
  for (std::size_t i = 0; i < cases.size() && i < verdicts.size(); ++i) {
    const std::string missed = self_test(cases[i], verdicts[i]);
    if (!missed.empty()) r.invalid = "self-test: corrupted " + missed + " was not caught";
  }
}

void check_verdicts(Report& r, const std::vector<Case>& cases,
                    const std::vector<Verdict>& verdicts) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    r.count(named(cases[i].task.name, mismatch(cases[i].expected, verdicts[i])));
  }
}

/// One Pipeline::run per case, one at a time. Results become verdicts only
/// after the pass's clocks stop, so checking the answers is never timed.
struct PlainPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<Verdict> verdicts;
};

PlainPass plain_pass(const core::Pipeline& pipeline,
                     const std::vector<Case>& cases) {
  PlainPass pass;
  std::vector<std::optional<core::PipelineResult>> results(cases.size());
  std::vector<std::string> errors(cases.size());
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto s0 = Clock::now();
    try {
      results[i] = pipeline.run(cases[i].task.name, cases[i].task.requirements);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
    pass.latency_ms.push_back(seconds_between(s0, Clock::now()) * 1e3);
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  pass.cpu_s = process_cpu_seconds() - cpu0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Verdict v;
    if (results[i].has_value()) v = verdict_of(*results[i]);
    v.error = errors[i];
    pass.verdicts.push_back(std::move(v));
  }
  return pass;
}

// ---- the traced run -----------------------------------------------------------

struct LayerPasses {
  std::vector<std::map<std::string, double>> self_ms;  // per traced pass
  std::vector<double> spec_ms;
  std::vector<double> traced_wall;
  std::vector<double> plain_wall;
  LayerCounts counts;  // summed over traced passes
  std::vector<Verdict> canonical;
};

/// Alternate untraced passes (Pipeline::run, checked against the known
/// answers) with traced passes (the replica, checked against Pipeline::run)
/// over `cases` until `budget_s` is spent, at least once each.
void traced_passes(const std::vector<Case>& cases, double budget_s,
                   Tracer& tracer, Report& report, LayerPasses& out) {
  const core::Pipeline pipeline;
  TracedPipeline traced;
  const auto start = Clock::now();
  int spec_id = tracer.spans().empty() ? 0 : tracer.spans().back().spec + 1;
  while (out.traced_wall.empty() ||
         seconds_between(start, Clock::now()) < budget_s) {
    PlainPass plain = plain_pass(pipeline, cases);
    check_verdicts(report, cases, plain.verdicts);
    if (out.canonical.empty()) out.canonical = std::move(plain.verdicts);
    out.plain_wall.push_back(plain.wall_s);

    const std::size_t first = tracer.spans().size();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      Verdict replica;
      try {
        replica = traced.run(tracer, spec_id++, cases[i].task, out.counts);
      } catch (const std::exception& e) {
        replica.error = e.what();
      }
      const std::string diff = replica.error.empty()
                                   ? replica_mismatch(out.canonical[i], replica)
                                   : replica.error;
      if (!diff.empty()) {
        report.invalid = "replica guard: " + cases[i].task.name + ": " + diff;
        return;
      }
    }
    const double wall_s = seconds_between(t0, Clock::now());
    out.traced_wall.push_back(wall_s);
    const SelfTimes st = self_times(tracer.spans(), first);
    if (!st.error.empty()) {
      report.invalid = "span tree: " + st.error;
      return;
    }
    // The pass's clock, read outside the tracer, must hold the root spans
    // and be nearly all of them: otherwise spans were lost, overlap or
    // were stamped on a different clock.
    if (st.root_ms > wall_s * 1e3 ||
        st.root_ms < kMinSpanCoverage * wall_s * 1e3) {
      report.invalid = "span tree: root spans cover " +
                       std::to_string(st.root_ms) + " ms of a " +
                       std::to_string(wall_s * 1e3) + " ms traced pass";
      return;
    }
    out.self_ms.push_back(st.ms_by_name);
    out.spec_ms.push_back(st.root_ms);
  }
}

/// Layer figures that come from public result fields and stats rather than
/// from the traced replica; zero where the workload bypasses the layer.
struct Extras {
  double l1_hit_ratio = 0, l2_hit_ratio = 0, evictions = 0;
  double steals = 0, busy_frac = 0;
  double queue_wait_p50_ms = 0, queue_wait_p99_ms = 0;
  double run_p50_ms = 0, run_p99_ms = 0;
  double rejected = 0, deadline_exceeded = 0;
  double generator_lag_max_ms = 0, slo_miss_frac = 0, max_rate_rps = 0;
};

void add_layer_metrics(Report& r, const LayerPasses& lp, const Extras& x) {
  const double passes = static_cast<double>(lp.self_ms.size());
  const auto ms = [&lp](const char* span) {
    std::vector<double> per_pass;
    for (const auto& m : lp.self_ms) {
      const auto it = m.find(span);
      per_pass.push_back(it == m.end() ? 0.0 : it->second);
    }
    return median(per_pass);
  };
  const auto per_pass = [passes](std::size_t total) {
    return static_cast<double>(total) / passes;
  };
  const LayerCounts& c = lp.counts;
  r.add("nlp.parse_ms", ms("nlp.parse"), "ms");
  r.add("nlp.sentences", per_pass(c.sentences), "count");
  r.add("semantics.reason_ms", ms("semantics.reason"), "ms");
  r.add("translate.ms", ms("translate"), "ms");
  r.add("translate.calls", per_pass(c.translate_calls), "count");
  r.add("timeabs.ms", ms("timeabs"), "ms");
  r.add("timeabs.calls", per_pass(c.timeabs_calls), "count");
  r.add("partition.ms", ms("partition"), "ms");
  r.add("automata.screen_ms", ms("automata.screen"), "ms");
  r.add("automata.screen_calls", per_pass(c.screen_calls), "count");
  r.add("automata.screen_skipped", per_pass(c.screen_skipped), "count");
  r.add("automata.screen_unsat", per_pass(c.screen_unsat), "count");
  r.add("automata.screen_useful_ratio",
        ratio(static_cast<double>(c.screen_unsat),
              static_cast<double>(c.screen_calls)),
        "ratio");
  r.add("automata.screen_max_ms", c.screen_max_ms, "ms");
  r.add("automata.next_depth_max", static_cast<double>(c.next_depth_max),
        "count");
  r.add("synth.ms", ms("synth"), "ms");
  r.add("synth.calls", per_pass(c.synth_calls), "count");
  r.add("synth.symbolic_calls", per_pass(c.symbolic_calls), "count");
  r.add("synth.bounded_calls", per_pass(c.bounded_calls), "count");
  r.add("bdd.peak_nodes_max", static_cast<double>(c.bdd_peak_nodes_max),
        "count");
  r.add("bdd.cache_hit_ratio",
        ratio(static_cast<double>(c.bdd_cache_hits),
              static_cast<double>(c.bdd_cache_lookups)),
        "ratio");
  r.add("game.positions_max", static_cast<double>(c.game_positions_max),
        "count");
  r.add("refine.ms", ms("refine"), "ms");
  r.add("refine.calls", per_pass(c.refine_calls), "count");
  r.add("refine.checks", per_pass(c.refine_checks), "count");
  r.add("refine.repaired_ratio",
        ratio(static_cast<double>(c.refine_repaired),
              static_cast<double>(c.refine_calls)),
        "ratio");
  r.add("core.self_ms", ms("spec"), "ms");
  r.add("trace.spec_ms", median(lp.spec_ms), "ms");
  r.add("trace.overhead_frac",
        ratio(median(lp.traced_wall), median(lp.plain_wall)) - 1.0, "ratio");
  r.add("cache.l1_hit_ratio", x.l1_hit_ratio, "ratio");
  r.add("cache.l2_hit_ratio", x.l2_hit_ratio, "ratio");
  r.add("cache.evictions", x.evictions, "count");
  r.add("batch.steals", x.steals, "count");
  r.add("batch.busy_frac", x.busy_frac, "ratio");
  r.add("serve.queue_wait_p50_ms", x.queue_wait_p50_ms, "ms");
  r.add("serve.queue_wait_p99_ms", x.queue_wait_p99_ms, "ms");
  r.add("serve.run_p50_ms", x.run_p50_ms, "ms");
  r.add("serve.run_p99_ms", x.run_p99_ms, "ms");
  r.add("serve.rejected", x.rejected, "count");
  r.add("serve.deadline_exceeded", x.deadline_exceeded, "count");
  r.add("serve.generator_lag_max_ms", x.generator_lag_max_ms, "ms");
  r.add("serve.slo_miss_frac", x.slo_miss_frac, "ratio");
  r.add("serve.max_rate_rps", x.max_rate_rps, "1/s");
}

// ---- planted: one batch pass ------------------------------------------------

struct BatchPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  batch::BatchReport report;
};

BatchPass batch_pass(const std::vector<batch::SpecTask>& tasks, int jobs) {
  batch::BatchOptions options;
  options.jobs = jobs;
  BatchPass pass;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  pass.report = batch::check(tasks, options);
  pass.wall_s = seconds_between(t0, Clock::now());
  pass.cpu_s = process_cpu_seconds() - cpu0;
  return pass;
}

std::vector<Verdict> verdicts_of(const BatchPass& pass) {
  std::vector<Verdict> out;
  for (const auto& r : pass.report.results) out.push_back(verdict_of(r));
  return out;
}

// ---- serve: traffic and the open-loop generator -------------------------------

struct Arrival {
  double due_s = 0.0;  // offset from the phase start
  serve::Request request;
  std::size_t expected = 0;  // Traffic::at index of its spec
};

/// The seeded request stream. Every spec it emits keeps its known answer.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed) : seed_(seed), rng_(seed) {
    for (int i = 0; i < kHotSpecs; ++i) {
      difftest::SpecConfig shape;
      shape.min_formulas = kHotMinFormulas;
      shape.max_formulas = kHotMaxFormulas;
      hot_.push_back(generated_case(util::Rng::mix(seed ^ 0x401), i, shape));
      hot_.back().task.name = "hot" + std::to_string(i);
    }
  }

  /// Poisson arrivals at `rate` for `duration` seconds.
  std::vector<Arrival> plan(double rate, double duration) {
    std::vector<Arrival> out;
    double t = 0.0;
    while (true) {
      const double u = static_cast<double>(rng_.below(1u << 30)) /
                       static_cast<double>(1u << 30);
      t += -std::log(1.0 - u) / rate;
      if (t >= duration) break;
      Arrival a;
      a.due_s = t;
      const Case& c = pick();
      a.request.id = std::to_string(cases_.size());
      a.request.spec = c.task;
      a.request.deadline_seconds = kDeadlineSeconds;
      a.expected = cases_.size() - 1;
      out.push_back(std::move(a));
    }
    return out;
  }

  [[nodiscard]] const Case& at(std::size_t i) const { return cases_[i]; }
  /// Every hot spec once, all due at once, without deadlines.
  std::vector<Arrival> hot_plan() {
    std::vector<Arrival> out;
    for (const Case& c : hot_) {
      cases_.push_back(c);
      Arrival a;
      a.request.id = std::to_string(cases_.size() - 1);
      a.request.spec = c.task;
      a.expected = cases_.size() - 1;
      out.push_back(std::move(a));
    }
    return out;
  }

 private:
  const Case& pick() {
    const auto roll = static_cast<unsigned>(rng_.below(100));
    const auto& hot = hot_[rng_.below(hot_.size())];
    if (roll < kHotPercent) {
      cases_.push_back(hot);
    } else if (roll < kHotPercent + kRevisionPercent) {
      cases_.push_back(
          revision_of(hot, rng_.below(hot.task.requirements.size())));
    } else if (roll < kHotPercent + kRevisionPercent + kFreshPercent) {
      cases_.push_back(generated_case(util::Rng::mix(seed_ ^ 0xf7e5), fresh_));
      cases_.back().task.name = "fresh" + std::to_string(fresh_++);
    } else {
      cases_.push_back(
          planted_case(util::Rng::mix(seed_ ^ 0x91a7), planted_++));
    }
    return cases_.back();
  }

  std::uint64_t seed_;
  util::Rng rng_;
  std::vector<Case> hot_;
  std::vector<Case> cases_;  // every emitted request's spec, in order
  int fresh_ = 0;
  int planted_ = 0;
};

struct Outcome {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  serve::ResponseKind kind = serve::ResponseKind::kError;
  double queue_s = 0.0;
  batch::TaskResult result;
  std::string error;
  std::size_t expected = 0;
};

struct Served {
  std::vector<Outcome> outcomes;
  double lag_max_ms = 0.0;
  std::size_t depth_mid = 0;  // admission queue depth halfway through
  std::size_t depth_end = 0;  // ... and when the last request was sent
};

/// Send every arrival at its due time from this thread, then wait for
/// every response. Latency is measured from the due time, so a late send
/// counts against the request.
Served drive(serve::Service& service, std::vector<Arrival>& plan) {
  Served s;
  s.outcomes.resize(plan.size());
  std::atomic<std::size_t> answered{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(plan[i].due_s));
    // Spin rather than sleep to the due time: on a shared virtual machine a
    // sleeping thread wakes up to several milliseconds late, and that lag
    // would read as request latency.
    while (Clock::now() < due) {
    }
    Outcome& o = s.outcomes[i];
    o.due_s = plan[i].due_s;
    o.expected = plan[i].expected;
    o.sent_s = seconds_between(start, Clock::now());
    s.lag_max_ms = std::max(s.lag_max_ms, (o.sent_s - o.due_s) * 1e3);
    service.submit(std::move(plan[i].request),
                   [&o, &answered, start](serve::Response response) {
                     o.done_s = seconds_between(start, Clock::now());
                     o.kind = response.kind;
                     o.queue_s = response.queue_seconds;
                     o.result = std::move(response.result);
                     o.error = std::move(response.error);
                     answered.fetch_add(1, std::memory_order_acq_rel);
                   });
    if (i == plan.size() / 2) s.depth_mid = service.stats().queue_depth;
  }
  s.depth_end = service.stats().queue_depth;
  while (answered.load(std::memory_order_acquire) < plan.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return s;
}

double latency_ms(const Outcome& o) {
  const double ms = (o.done_s - o.due_s) * 1e3;
  // A refused or expired request misses any latency limit.
  return o.kind == serve::ResponseKind::kResult
             ? ms
             : std::max(ms, kLatencyLimitSeconds * 1e3);
}

bool slo_miss(const Outcome& o) {
  return o.kind != serve::ResponseKind::kResult ||
         latency_ms(o) > kLatencyLimitSeconds * 1e3;
}

/// Check every answered request against its known answer; refused and
/// expired requests count as failed when `strict`.
void check_served(const Served& s, const Traffic& traffic, Report& report,
                  bool strict) {
  for (const Outcome& o : s.outcomes) {
    const Case& c = traffic.at(o.expected);
    if (o.kind != serve::ResponseKind::kResult) {
      if (strict) {
        report.count(named(c.task.name, std::string("no verdict (") +
                                            serve::response_kind_name(o.kind) +
                                            ")"));
      }
      continue;
    }
    report.count(named(c.task.name, mismatch(c.expected, verdict_of(o.result))));
  }
}

/// Check the hot set once, without deadlines, so the store holds it
/// before timing starts: its cold misses are paid once per service start,
/// not on every request.
void prime(serve::Service& service, Traffic& traffic, Report& report) {
  std::vector<Arrival> plan = traffic.hot_plan();
  check_served(drive(service, plan), traffic, report, /*strict=*/true);
}

/// The serve traffic, for the cache and serve layer figures: a
/// `serve::Service` with nproc - 1 workers and one shared LRU store, fed
/// open-loop from this thread. After the hot set is primed, `nominal_s`
/// seconds at the nominal rate give the queue, run and SLO figures; the
/// rate ladder then takes `ladder_s` seconds.
Extras serve_phase(const RunOptions& o, double nominal_s, double ladder_s,
                   Report& report) {
  Traffic traffic(o.seed);
  std::vector<Arrival> plan = traffic.plan(kNominalRate, nominal_s);
  cache::StoreOptions store_options;
  store_options.max_entries = kStoreEntries;
  store_options.eviction = cache::Eviction::kLru;
  const auto store = std::make_shared<cache::Store>(store_options);
  serve::ServiceOptions options;
  options.workers = std::max(1, o.threads - 1);  // the generator is the last
  options.pipeline.cache = store;
  serve::Service service(options);
  prime(service, traffic, report);
  const cache::StatsSnapshot cache0 = store->stats();
  const serve::ServiceStats stats0 = service.stats();
  const Served nominal = drive(service, plan);
  const serve::ServiceStats stats1 = service.stats();
  check_served(nominal, traffic, report, /*strict=*/true);

  Extras x;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::size_t misses = 0;
  for (const Outcome& out : nominal.outcomes) {
    queue_ms.push_back(out.queue_s * 1e3);
    run_ms.push_back(out.result.seconds * 1e3);
    misses += slo_miss(out) ? 1 : 0;
  }
  x.queue_wait_p50_ms = quantile(queue_ms, 0.50);
  x.queue_wait_p99_ms = quantile(queue_ms, 0.99);
  x.run_p50_ms = quantile(run_ms, 0.50);
  x.run_p99_ms = quantile(run_ms, 0.99);
  x.rejected = static_cast<double>(stats1.rejected - stats0.rejected);
  x.deadline_exceeded =
      static_cast<double>(stats1.deadline_exceeded - stats0.deadline_exceeded);
  x.generator_lag_max_ms = nominal.lag_max_ms;
  x.slo_miss_frac = ratio(static_cast<double>(misses),
                          static_cast<double>(nominal.outcomes.size()));
  if (nominal.lag_max_ms > kGeneratorLagBoundMs) {
    report.invalid = "open-loop generator fell behind";
    return x;
  }

  // The ladder: the highest fixed rate whose p99 meets the limit with no
  // refusals, expiries or growing admission backlog. Overload responses
  // on the failing rung are the measurement, not verdict failures.
  const double rung_s =
      ladder_s / static_cast<double>(std::size(kLadderRates));
  for (const double rate : kLadderRates) {
    std::vector<Arrival> rung_plan = traffic.plan(rate, rung_s);
    const Served rung = drive(service, rung_plan);
    check_served(rung, traffic, report, /*strict=*/false);
    std::vector<double> lat;
    bool missed = rung.lag_max_ms > kGeneratorLagBoundMs;
    for (const Outcome& out : rung.outcomes) {
      lat.push_back(latency_ms(out));
      missed |= out.kind != serve::ResponseKind::kResult;
    }
    const bool backlog = rung.depth_end > rung.depth_mid +
                                              static_cast<std::size_t>(o.threads);
    if (missed || backlog || quantile(lat, 0.99) > kLatencyLimitSeconds * 1e3) {
      break;
    }
    x.max_rate_rps = rate;
  }

  // Cache figures cover the nominal phase and the ladder.
  const cache::StatsSnapshot cache = store->stats().since(cache0);
  x.l1_hit_ratio = ratio(static_cast<double>(cache.l1_hits),
                         static_cast<double>(cache.l1_hits + cache.l1_misses));
  x.l2_hit_ratio = ratio(static_cast<double>(cache.l2_hits),
                         static_cast<double>(cache.l2_hits + cache.l2_misses));
  x.evictions = static_cast<double>(cache.evictions);
  return x;
}

}  // namespace

// ---- table1 -------------------------------------------------------------------

Report run_table1(const RunOptions& o, Tracer& tracer) {
  Report report;
  if (o.trace) {
    const std::vector<Case> cases = table1_cases();
    LayerPasses lp;
    traced_passes(cases, o.seconds, tracer, report, lp);
    if (report.invalid.empty()) add_layer_metrics(report, lp, Extras{});
    run_self_test(report, cases, lp.canonical);
    return report;
  }
  struct Setup {
    std::vector<Case> cases;
    std::unique_ptr<core::Pipeline> pipeline;
  };
  const auto make = [] {
    return Setup{table1_cases(), std::make_unique<core::Pipeline>()};
  };
  std::optional<Setup> setup;
  std::vector<double> setup_s;
  Passes p;
  std::vector<Verdict> first_pass;
  const auto start = Clock::now();
  while (p.specs_per_s.size() < 3 ||
         seconds_between(start, Clock::now()) < o.seconds) {
    timed_setup(make, setup, setup_s);
    PlainPass pass = plain_pass(*setup->pipeline, setup->cases);
    check_verdicts(report, setup->cases, pass.verdicts);
    p.add(pass.wall_s, pass.cpu_s, pass.latency_ms);
    if (first_pass.empty()) first_pass = std::move(pass.verdicts);
  }
  add_end_to_end(report, setup_s, p);
  run_self_test(report, setup->cases, first_pass);
  return report;
}

// ---- planted ------------------------------------------------------------------

Report run_planted(const RunOptions& o, Tracer& tracer) {
  Report report;
  struct Setup {
    std::vector<Case> cases;
    std::vector<batch::SpecTask> tasks;
  };
  const auto make = [&o] {
    Setup s;
    for (int i = 0; i < kPlantedSpecs; ++i) {
      s.cases.push_back(planted_case(o.seed, i));
      s.tasks.push_back(s.cases.back().task);
    }
    return s;
  };
  if (o.trace) {
    // The traced walk (30% of the run), batch passes for the scheduler
    // figures (15%), then the serve traffic: nominal rate (25%) and the
    // rate ladder (30%).
    const Setup setup = make();
    LayerPasses lp;
    traced_passes(setup.cases, o.seconds * 0.3, tracer, report, lp);
    if (!report.invalid.empty()) return report;
    std::vector<double> steals;
    std::vector<double> busy;
    const auto start = Clock::now();
    while (steals.empty() ||
           seconds_between(start, Clock::now()) < o.seconds * 0.15) {
      const BatchPass pass = batch_pass(setup.tasks, o.threads);
      check_verdicts(report, setup.cases, verdicts_of(pass));
      steals.push_back(static_cast<double>(pass.report.steals));
      double task_s = 0.0;
      for (const auto& r : pass.report.results) task_s += r.seconds;
      busy.push_back(task_s / (pass.report.jobs * pass.wall_s));
    }
    Extras x = serve_phase(o, o.seconds * 0.25, o.seconds * 0.3, report);
    if (!report.invalid.empty()) return report;
    x.steals = median(steals);
    x.busy_frac = median(busy);
    add_layer_metrics(report, lp, x);
    run_self_test(report, setup.cases, lp.canonical);
    return report;
  }

  std::optional<Setup> setup;
  std::vector<double> setup_s;
  Passes p;
  std::vector<Verdict> first_pass;
  const auto start = Clock::now();
  while (p.specs_per_s.size() < 3 ||
         seconds_between(start, Clock::now()) < o.seconds) {
    timed_setup(make, setup, setup_s);
    const BatchPass pass = batch_pass(setup->tasks, o.threads);
    std::vector<Verdict> verdicts = verdicts_of(pass);
    check_verdicts(report, setup->cases, verdicts);
    if (first_pass.empty()) first_pass = std::move(verdicts);
    std::vector<double> latency_ms;
    for (const auto& r : pass.report.results) latency_ms.push_back(r.seconds * 1e3);
    p.add(pass.wall_s, pass.cpu_s, latency_ms);
  }
  add_end_to_end(report, setup_s, p);
  run_self_test(report, setup->cases, first_pass);
  return report;
}


}  // namespace specbench
