#include "cache/store.hpp"

#include <mutex>
#include <ostream>
#include <unordered_map>

namespace speccc::cache {

const char* eviction_name(Eviction eviction) {
  switch (eviction) {
    case Eviction::kFifo: return "fifo";
    case Eviction::kLru: return "lru";
  }
  return "?";
}

StatsSnapshot StatsSnapshot::since(const StatsSnapshot& earlier) const {
  StatsSnapshot delta;
  delta.l1_hits = l1_hits - earlier.l1_hits;
  delta.l1_misses = l1_misses - earlier.l1_misses;
  delta.l2_hits = l2_hits - earlier.l2_hits;
  delta.l2_misses = l2_misses - earlier.l2_misses;
  delta.evictions = evictions - earlier.evictions;
  return delta;
}

void print_stats(std::ostream& os, const StatsSnapshot& stats) {
  os << "cache: L1 " << stats.l1_hits << " hits / " << stats.l1_misses
     << " misses, L2 " << stats.l2_hits << " hits / " << stats.l2_misses
     << " misses, " << stats.evictions << " evictions\n";
}

util::json::Object stats_json(const StatsSnapshot& stats) {
  return {{"l1_hits", stats.l1_hits},
          {"l1_misses", stats.l1_misses},
          {"l2_hits", stats.l2_hits},
          {"l2_misses", stats.l2_misses},
          {"evictions", stats.evictions}};
}

StatsSnapshot stats_from_json(const util::json::Value& value) {
  return {.l1_hits = value.at("l1_hits").as_count(),
          .l1_misses = value.at("l1_misses").as_count(),
          .l2_hits = value.at("l2_hits").as_count(),
          .l2_misses = value.at("l2_misses").as_count(),
          .evictions = value.at("evictions").as_count()};
}

namespace {

/// The per-thread accumulator behind Store::thread_stats(). Plain fields:
/// only the owning thread ever touches its copy.
thread_local StatsSnapshot tls_stats;

}  // namespace

namespace detail {

template <typename Value>
struct ShardedMap<Value>::Shard {
  mutable std::mutex mutex;
  /// Eviction order: front is next to evict. kFifo appends on insert and
  /// never reorders; kLru additionally splices an entry to the back on
  /// every get() hit.
  mutable std::list<std::pair<util::Digest, Value>> entries;
  mutable std::unordered_map<util::Digest,
                             typename std::list<std::pair<util::Digest, Value>>::iterator>
      index;
};

template <typename Value>
ShardedMap<Value>::ShardedMap(std::size_t shards, std::size_t max_entries,
                              Eviction eviction)
    : shards_(shards == 0 ? 1 : shards), eviction_(eviction) {
  const std::size_t n = shards_.size();
  if (max_entries != 0) {
    // Exact global cap: per-shard caps differ by at most one and sum to
    // max_entries. Shards whose cap is zero (cap < shard count) decline
    // inserts rather than stretching the documented total.
    shard_caps_.resize(n);
    const std::size_t base = max_entries / n;
    const std::size_t remainder = max_entries % n;
    for (std::size_t i = 0; i < n; ++i) {
      shard_caps_[i] = base + (i < remainder ? 1 : 0);
    }
  }
}

template <typename Value>
ShardedMap<Value>::~ShardedMap() = default;

template <typename Value>
std::optional<Value> ShardedMap<Value>::get(const util::Digest& key) const {
  const Shard& shard = shards_[key.hi % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  if (eviction_ == Eviction::kLru) {
    shard.entries.splice(shard.entries.end(), shard.entries, it->second);
  }
  return it->second->second;
}

template <typename Value>
std::size_t ShardedMap<Value>::put(const util::Digest& key, const Value& value) {
  const std::size_t which = key.hi % shards_.size();
  Shard& shard = shards_[which];
  const std::size_t cap =
      shard_caps_.empty() ? 0 : shard_caps_[which];  // 0 in a capped map: declined
  if (!shard_caps_.empty() && cap == 0) return 0;
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.index.count(key) != 0) return 0;  // racing writer got here first
  std::size_t evicted = 0;
  while (cap != 0 && shard.index.size() >= cap) {
    shard.index.erase(shard.entries.front().first);
    shard.entries.pop_front();
    ++evicted;
  }
  shard.entries.emplace_back(key, value);
  shard.index.emplace(key, std::prev(shard.entries.end()));
  return evicted;
}

template <typename Value>
void ShardedMap<Value>::for_each(
    const std::function<void(const util::Digest&, const Value&)>& visit) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& entry : shard.entries) visit(entry.first, entry.second);
  }
}

template <typename Value>
std::size_t ShardedMap<Value>::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.index.size();
  }
  return total;
}

template class ShardedMap<nlp::Sentence>;
template class ShardedMap<bool>;
template class ShardedMap<synth::SynthesisResult>;
template class ShardedMap<refine::RefinementOutcome>;
template class ShardedMap<timeabs::Abstraction>;

}  // namespace detail

Store::Store(StoreOptions options)
    : options_(options),
      sentences_(options.shards, options.max_entries, options.eviction),
      satisfiable_(options.shards, options.max_entries, options.eviction),
      synthesis_(options.shards, options.max_entries, options.eviction),
      refinement_(options.shards, options.max_entries, options.eviction),
      abstraction_(options.shards, options.max_entries, options.eviction) {}

namespace {

/// Count a lookup against the right level's counters (shared atomics plus
/// the calling thread's per-request accumulator).
void count(bool hit, std::atomic<std::uint64_t>& hits,
           std::atomic<std::uint64_t>& misses, std::uint64_t StatsSnapshot::*tls_hit,
           std::uint64_t StatsSnapshot::*tls_miss) {
  (hit ? hits : misses).fetch_add(1, std::memory_order_relaxed);
  ++(tls_stats.*(hit ? tls_hit : tls_miss));
}

}  // namespace

void Store::record_eviction(std::size_t evicted) {
  if (evicted == 0) return;
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  tls_stats.evictions += evicted;
}

StatsSnapshot Store::thread_stats() { return tls_stats; }

std::optional<nlp::Sentence> Store::find_sentence(const util::Digest& key) const {
  auto result = sentences_.get(key);
  count(result.has_value(), l1_hits_, l1_misses_, &StatsSnapshot::l1_hits,
        &StatsSnapshot::l1_misses);
  return result;  // non-const local: moves
}

void Store::put_sentence(const util::Digest& key, const nlp::Sentence& sentence) {
  record_eviction(sentences_.put(key, sentence));
}

std::optional<bool> Store::find_satisfiable(const util::Digest& key) const {
  auto result = satisfiable_.get(key);
  count(result.has_value(), l2_hits_, l2_misses_, &StatsSnapshot::l2_hits,
        &StatsSnapshot::l2_misses);
  return result;  // non-const local: moves
}

void Store::put_satisfiable(const util::Digest& key, bool satisfiable) {
  record_eviction(satisfiable_.put(key, satisfiable));
}

std::optional<synth::SynthesisResult> Store::find_synthesis(
    const util::Digest& key) const {
  auto result = synthesis_.get(key);
  count(result.has_value(), l2_hits_, l2_misses_, &StatsSnapshot::l2_hits,
        &StatsSnapshot::l2_misses);
  return result;  // non-const local: moves
}

void Store::put_synthesis(const util::Digest& key,
                          const synth::SynthesisResult& result) {
  record_eviction(synthesis_.put(key, result));
}

std::optional<refine::RefinementOutcome> Store::find_refinement(
    const util::Digest& key) const {
  auto result = refinement_.get(key);
  count(result.has_value(), l2_hits_, l2_misses_, &StatsSnapshot::l2_hits,
        &StatsSnapshot::l2_misses);
  return result;  // non-const local: moves
}

void Store::put_refinement(const util::Digest& key,
                           const refine::RefinementOutcome& outcome) {
  record_eviction(refinement_.put(key, outcome));
}

std::optional<timeabs::Abstraction> Store::find_abstraction(
    const util::Digest& key) const {
  auto result = abstraction_.get(key);
  count(result.has_value(), l2_hits_, l2_misses_, &StatsSnapshot::l2_hits,
        &StatsSnapshot::l2_misses);
  return result;  // non-const local: moves
}

void Store::put_abstraction(const util::Digest& key,
                            const timeabs::Abstraction& abstraction) {
  record_eviction(abstraction_.put(key, abstraction));
}

StatsSnapshot Store::stats() const {
  StatsSnapshot snapshot;
  snapshot.l1_hits = l1_hits_.load(std::memory_order_relaxed);
  snapshot.l1_misses = l1_misses_.load(std::memory_order_relaxed);
  snapshot.l2_hits = l2_hits_.load(std::memory_order_relaxed);
  snapshot.l2_misses = l2_misses_.load(std::memory_order_relaxed);
  snapshot.evictions = evictions_.load(std::memory_order_relaxed);
  return snapshot;
}

std::size_t Store::size() const {
  return sentences_.size() + satisfiable_.size() + synthesis_.size() +
         refinement_.size() + abstraction_.size();
}

void Store::for_each_sentence(
    const std::function<void(const util::Digest&, const nlp::Sentence&)>& visit)
    const {
  sentences_.for_each(visit);
}

void Store::for_each_satisfiable(
    const std::function<void(const util::Digest&, bool)>& visit) const {
  satisfiable_.for_each(visit);
}

void Store::for_each_synthesis(
    const std::function<void(const util::Digest&, const synth::SynthesisResult&)>&
        visit) const {
  synthesis_.for_each(visit);
}

void Store::for_each_refinement(
    const std::function<void(const util::Digest&,
                             const refine::RefinementOutcome&)>& visit) const {
  refinement_.for_each(visit);
}

void Store::for_each_abstraction(
    const std::function<void(const util::Digest&, const timeabs::Abstraction&)>&
        visit) const {
  abstraction_.for_each(visit);
}

std::size_t Store::merge(const Store& other) {
  // put() is first-writer-wins, so merging never overwrites an existing
  // entry; the eviction counters still record any overflow the merge
  // causes under a capped store.
  const std::size_t before = size();
  other.for_each_sentence([this](const util::Digest& key, const nlp::Sentence& v) {
    put_sentence(key, v);
  });
  other.for_each_satisfiable(
      [this](const util::Digest& key, bool v) { put_satisfiable(key, v); });
  other.for_each_synthesis(
      [this](const util::Digest& key, const synth::SynthesisResult& v) {
        put_synthesis(key, v);
      });
  other.for_each_refinement(
      [this](const util::Digest& key, const refine::RefinementOutcome& v) {
        put_refinement(key, v);
      });
  other.for_each_abstraction(
      [this](const util::Digest& key, const timeabs::Abstraction& v) {
        put_abstraction(key, v);
      });
  const std::size_t after = size();
  return after - before;
}

// ---- Key derivation ---------------------------------------------------------

std::string normalize_sentence(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  for (char c : text) {
    const bool blank = c == ' ' || c == '\t' || c == '\r' || c == '\n';
    if (blank) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  return out;
}

util::Digest sentence_key(std::string_view normalized_text,
                          const util::Digest& lexicon_fingerprint) {
  return util::DigestBuilder("sentence")
      .str(normalized_text)
      .digest(lexicon_fingerprint)
      .finalize();
}

util::Digest satisfiability_key(ltl::Formula formula) {
  return util::DigestBuilder("sat")
      .digest(ltl::canonical_digest(formula))
      .finalize();
}

namespace {

void fold_signature(util::DigestBuilder& builder,
                    const synth::IoSignature& signature) {
  builder.u64(signature.inputs.size());
  for (const std::string& in : signature.inputs) builder.str(in);
  builder.u64(signature.outputs.size());
  for (const std::string& out : signature.outputs) builder.str(out);
}

void fold_options(util::DigestBuilder& builder,
                  const synth::SynthesisOptions& options) {
  builder.u64(0);  // removed engine selector's slot: keeps old keys valid
  builder.u64(static_cast<std::uint64_t>(options.bounded.max_k));
  builder.u64(options.bounded.extract ? 1 : 0);
  builder.u64(options.bounded.max_alphabet_bits);
  builder.u64(options.bounded.max_game_positions);
  builder.u64(options.bounded.max_ucw_states);
  builder.u64(options.symbolic.extract ? 1 : 0);
  builder.u64(options.symbolic.max_extract_inputs);
}

void fold_formulas(util::DigestBuilder& builder,
                   const std::vector<ltl::Formula>& formulas) {
  builder.u64(formulas.size());
  for (ltl::Formula f : formulas) builder.digest(ltl::canonical_digest(f));
}

}  // namespace

util::Digest synthesis_key(const std::vector<ltl::Formula>& formulas,
                           const synth::IoSignature& signature,
                           const synth::SynthesisOptions& options) {
  util::DigestBuilder builder("synthesis");
  fold_formulas(builder, formulas);
  fold_signature(builder, signature);
  fold_options(builder, options);
  return builder.finalize();
}

util::Digest synthesis_key(const std::vector<ltl::Formula>& formulas,
                           const synth::IoSignature& signature,
                           const synth::SynthesisOptions& options,
                           std::string_view substrate_spec) {
  util::DigestBuilder builder("synthesis-substrate");
  fold_formulas(builder, formulas);
  fold_signature(builder, signature);
  fold_options(builder, options);
  builder.str(substrate_spec);
  return builder.finalize();
}

util::Digest refinement_key(const std::vector<ltl::Formula>& formulas,
                            const synth::IoSignature& signature,
                            const synth::SynthesisOptions& options,
                            const refine::LocalizeOptions& localize_options) {
  util::DigestBuilder builder("refinement");
  fold_formulas(builder, formulas);
  fold_signature(builder, signature);
  fold_options(builder, options);
  builder.u64(0);  // removed localizer selector's slot: keeps old keys valid
  builder.u64(localize_options.max_correction_sets);
  return builder.finalize();
}

util::Digest abstraction_key(const timeabs::Request& request, int backend) {
  util::DigestBuilder builder("abstraction");
  builder.u64(request.thetas.size());
  for (std::uint32_t theta : request.thetas) builder.u64(theta);
  builder.u64(request.error_budget);
  builder.u64(request.signs.size());
  for (timeabs::ErrorSign sign : request.signs) {
    builder.u64(static_cast<std::uint64_t>(sign));
  }
  builder.u64(static_cast<std::uint64_t>(backend));
  return builder.finalize();
}

}  // namespace speccc::cache
