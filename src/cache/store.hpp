// Cross-spec memoization: a thread-safe, two-level, content-addressed
// store for the artifacts the Fig. 1 pipeline recomputes across repeated
// and revised specifications.
//
//   Level 1 (per sentence): the structured-English parse
//     (nlp::parse_sentence output), keyed by the whitespace-normalized
//     sentence text plus the lexicon fingerprint. Requirements documents
//     under revision share most of their sentences across revisions, so
//     this level hits across runs and across the specs of a batch. Within
//     one run each sentence is looked up once (translate::Translator::
//     analyze parses a spec once; time abstraction does not re-parse).
//
//   Level 2 (per formula / per spec): decision artifacts keyed by
//     ltl::canonical_digest — per-requirement tableau satisfiability, the
//     whole-spec synthesis verdict (keyed by formulas + I/O signature +
//     engine options), the refinement outcome, and the time-abstraction
//     solution (keyed by Theta + budget + backend). A repeated spec skips
//     synthesis entirely; a revised spec still reuses every per-formula
//     artifact of its unchanged requirements.
//
// Key derivation rule: a key must cover EVERYTHING the cached value is a
// function of — the cache is authoritative on a hit and never validates.
// The *_key helpers below are the single source of truth; extend them
// (never reuse a domain string) when adding a cached artifact.
//
// Concurrency: each level is sharded over mutex-protected maps (shard =
// key bits), so batch workers (batch/batch.hpp) and serve workers
// (serve/service.hpp) share one store without serializing on a global
// lock — this is the sanctioned exception to the per-worker-isolation
// threading rule, in the same class as the formula intern arena. Values
// are returned by copy; entries are immutable once inserted. Two workers
// may race to compute the same missing entry; both compute, both insert
// the identical value, and the counters record two misses — which is why
// hit/miss statistics are diagnostics (like timings), excluded from
// canonical batch reports.
//
// Determinism: every cached computation is a pure function of its key, so
// a run with a store (fresh or warm) is byte-identical in all canonical
// outputs to a run without one; only wall-clock changes. batch_test and
// the CI cache smoke enforce this.
//
// Eviction (StoreOptions::eviction): kFifo per shard by default — FIFO
// keeps the hit path single-lock-cheap, and batch workloads sweep keys in
// waves where recency tracking buys little. Long-lived serve processes
// use kLru instead: a resident store sees the same hot specifications
// recur indefinitely, and FIFO would cycle them out on age alone.
// StoreOptions::max_entries is a GLOBAL cap per artifact kind, enforced
// exactly: per-shard caps differ by at most one and sum to max_entries
// (shards low in index take the remainder). When max_entries is positive
// but smaller than the shard count, the shards whose cap works out to
// zero decline inserts — lookups there always miss, which only costs
// recomputation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "nlp/syntax.hpp"
#include "refine/refine.hpp"
#include "synth/synthesizer.hpp"
#include "timeabs/abstraction.hpp"
#include "util/digest.hpp"
#include "util/json.hpp"

namespace speccc::cache {

/// Per-shard eviction policy (see the header comment for the trade-off).
enum class Eviction {
  kFifo,  ///< insertion order; get() never mutates (batch default)
  kLru,   ///< least-recently-used; get() refreshes recency (serve default)
};

[[nodiscard]] const char* eviction_name(Eviction eviction);

struct StoreOptions {
  /// Mutex shards per artifact kind; more shards = less contention.
  std::size_t shards = 16;
  /// Global entry cap per artifact kind (sentences, satisfiability,
  /// synthesis, refinement, abstraction each get their own cap), enforced
  /// exactly across shards (per-shard caps differ by at most one and sum
  /// to this). 0 means unlimited.
  std::size_t max_entries = 1 << 16;
  /// Replacement policy applied when a shard is at capacity.
  Eviction eviction = Eviction::kFifo;
};

/// Point-in-time counters. "l1" is the sentence level, "l2" aggregates the
/// formula/spec-level artifact kinds. Snapshots are monotone; subtract two
/// to scope statistics to one batch (BatchReport does this).
struct StatsSnapshot {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] std::uint64_t hits() const { return l1_hits + l2_hits; }
  [[nodiscard]] std::uint64_t misses() const { return l1_misses + l2_misses; }
  /// this - earlier, fieldwise (for per-batch deltas).
  [[nodiscard]] StatsSnapshot since(const StatsSnapshot& earlier) const;
  bool operator==(const StatsSnapshot&) const = default;
};

/// The one-line human rendering ("cache: L1 H hits / M misses, L2 ..."),
/// shared by the batch summary and speccc_batch --cache-stats so the two
/// cannot drift.
void print_stats(std::ostream& os, const StatsSnapshot& stats);

/// The JSON rendering ({"evictions", "l1_hits", "l1_misses", "l2_hits",
/// "l2_misses"}), shared by the batch report, the merged shard report and
/// the serve protocol's result and stats lines.
[[nodiscard]] util::json::Object stats_json(const StatsSnapshot& stats);

/// Read stats_json()'s object back (the shard coordinator's view of a
/// worker's batch report). util::ParseError unless every counter is
/// present and a non-negative integer.
[[nodiscard]] StatsSnapshot stats_from_json(const util::json::Value& value);

namespace detail {

/// One sharded evicting map. Value types must be copyable; get() copies
/// out under the shard lock (and, under kLru, refreshes the entry's
/// recency while it holds it).
template <typename Value>
class ShardedMap {
 public:
  ShardedMap(std::size_t shards, std::size_t max_entries, Eviction eviction);
  ~ShardedMap();
  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  [[nodiscard]] std::optional<Value> get(const util::Digest& key) const;
  /// Inserts unless the key is already present; evicts per the policy when
  /// the shard is at capacity (shards capped at zero decline the insert).
  /// Returns evictions made.
  std::size_t put(const util::Digest& key, const Value& value);
  [[nodiscard]] std::size_t size() const;
  /// Visit every live entry (shard by shard, insertion order within a
  /// shard; callers needing a deterministic order sort by key). The
  /// callback runs under the shard lock: keep it cheap and never call back
  /// into the same map.
  void for_each(
      const std::function<void(const util::Digest&, const Value&)>& visit) const;

 private:
  struct Shard;
  std::vector<Shard> shards_;
  std::vector<std::size_t> shard_caps_;  // empty = unlimited
  Eviction eviction_;
};

}  // namespace detail

class Store {
 public:
  explicit Store(StoreOptions options = {});

  // ---- Level 1: sentence parses --------------------------------------------
  [[nodiscard]] std::optional<nlp::Sentence> find_sentence(const util::Digest& key) const;
  void put_sentence(const util::Digest& key, const nlp::Sentence& sentence);

  // ---- Level 2: decision artifacts -----------------------------------------
  [[nodiscard]] std::optional<bool> find_satisfiable(const util::Digest& key) const;
  void put_satisfiable(const util::Digest& key, bool satisfiable);

  [[nodiscard]] std::optional<synth::SynthesisResult> find_synthesis(
      const util::Digest& key) const;
  void put_synthesis(const util::Digest& key, const synth::SynthesisResult& result);

  [[nodiscard]] std::optional<refine::RefinementOutcome> find_refinement(
      const util::Digest& key) const;
  void put_refinement(const util::Digest& key, const refine::RefinementOutcome& outcome);

  [[nodiscard]] std::optional<timeabs::Abstraction> find_abstraction(
      const util::Digest& key) const;
  void put_abstraction(const util::Digest& key, const timeabs::Abstraction& abstraction);

  [[nodiscard]] StatsSnapshot stats() const;
  /// Total live entries across every artifact kind.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const StoreOptions& options() const { return options_; }

  // ---- Enumeration + merge (the snapshot surface, cache/snapshot.hpp) ------
  // Entry visitors per artifact kind. Iteration order is unspecified (the
  // snapshot writer sorts by key); callbacks run under shard locks and do
  // not touch the hit/miss counters.
  void for_each_sentence(
      const std::function<void(const util::Digest&, const nlp::Sentence&)>& visit)
      const;
  void for_each_satisfiable(
      const std::function<void(const util::Digest&, bool)>& visit) const;
  void for_each_synthesis(
      const std::function<void(const util::Digest&, const synth::SynthesisResult&)>&
          visit) const;
  void for_each_refinement(
      const std::function<void(const util::Digest&,
                               const refine::RefinementOutcome&)>& visit) const;
  void for_each_abstraction(
      const std::function<void(const util::Digest&, const timeabs::Abstraction&)>&
          visit) const;

  /// Copy every entry of `other` absent from this store (first writer
  /// wins, like racing put()s; this store's eviction policy and caps
  /// apply). The shard coordinator merges per-shard snapshot stores with
  /// this. Returns entries added.
  std::size_t merge(const Store& other);

  /// Per-thread counters: every hit/miss/eviction any Store records on the
  /// calling thread also accumulates into a thread-local snapshot. A serve
  /// worker runs one request start-to-finish on one thread, so the delta
  /// of two thread_stats() calls is that request's exact cache accounting
  /// — no cross-worker races, unlike the shared stats() counters.
  [[nodiscard]] static StatsSnapshot thread_stats();

 private:
  StoreOptions options_;
  detail::ShardedMap<nlp::Sentence> sentences_;
  detail::ShardedMap<bool> satisfiable_;
  detail::ShardedMap<synth::SynthesisResult> synthesis_;
  detail::ShardedMap<refine::RefinementOutcome> refinement_;
  detail::ShardedMap<timeabs::Abstraction> abstraction_;

  mutable std::atomic<std::uint64_t> l1_hits_{0};
  mutable std::atomic<std::uint64_t> l1_misses_{0};
  mutable std::atomic<std::uint64_t> l2_hits_{0};
  mutable std::atomic<std::uint64_t> l2_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};

  void record_eviction(std::size_t evicted);
};

// ---- Key derivation ---------------------------------------------------------
// Each helper folds in everything its artifact depends on, under a unique
// domain string. Collisions across kinds are impossible (separate maps);
// collisions within a kind are 2^-128 events.

/// Level 1: (whitespace-normalized sentence, lexicon fingerprint).
[[nodiscard]] util::Digest sentence_key(std::string_view normalized_text,
                                        const util::Digest& lexicon_fingerprint);

/// Whitespace normalization for sentence_key: trim plus collapse runs of
/// blanks to single spaces. Case is preserved — mid-sentence
/// capitalization is grammatically meaningful (proper names).
[[nodiscard]] std::string normalize_sentence(std::string_view text);

/// Level 2: per-formula tableau satisfiability.
[[nodiscard]] util::Digest satisfiability_key(ltl::Formula formula);

/// Level 2: whole-spec synthesis (formulas in order, signature, options).
[[nodiscard]] util::Digest synthesis_key(const std::vector<ltl::Formula>& formulas,
                                         const synth::IoSignature& signature,
                                         const synth::SynthesisOptions& options);

/// Level 2: synthesis under a non-auto substrate spec ("tableau",
/// "race:...", ...). The spec string is folded in because different
/// substrates are different computations (a tableau abstention must not
/// shadow auto's definite verdict). Auto keeps the untagged key above, so
/// stores warmed before the substrate layer stay valid.
[[nodiscard]] util::Digest synthesis_key(const std::vector<ltl::Formula>& formulas,
                                         const synth::IoSignature& signature,
                                         const synth::SynthesisOptions& options,
                                         std::string_view substrate_spec);

/// Level 2: stage-3 refinement (formulas, initial partition via the
/// signature it induces, synthesis options, localization options -- the
/// cached outcome embeds the correction sets, which depend on the
/// enumeration cap).
[[nodiscard]] util::Digest refinement_key(
    const std::vector<ltl::Formula>& formulas,
    const synth::IoSignature& signature,
    const synth::SynthesisOptions& options,
    const refine::LocalizeOptions& localize_options = {});

/// Level 2: the Section IV-E abstraction (Theta, budget, signs, backend).
[[nodiscard]] util::Digest abstraction_key(const timeabs::Request& request,
                                           int backend);

}  // namespace speccc::cache
