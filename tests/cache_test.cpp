// Tests for the cross-spec memoization layer (cache/store.hpp): canonical
// digest stability, lexicon fingerprint invalidation, store semantics
// (hit/miss counters, FIFO/LRU eviction under the exact global
// max_entries cap, per-thread accounting), the cached-equals-uncached
// contract at the translator and pipeline levels, and the persistent
// snapshot format (cache/snapshot.hpp): round trips, pinned golden
// bytes, structured rejection of damaged files, and Store::merge.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/snapshot.hpp"
#include "cache/store.hpp"
#include "core/pipeline.hpp"
#include "ltl/formula.hpp"
#include "ltl/parser.hpp"
#include "nlp/lexicon.hpp"
#include "nlp/syntax.hpp"
#include "semantics/antonyms.hpp"
#include "translate/translator.hpp"
#include "util/digest.hpp"

namespace cache = speccc::cache;
namespace ltl = speccc::ltl;
namespace nlp = speccc::nlp;
using speccc::util::Digest;
using speccc::util::DigestBuilder;

namespace {

std::vector<speccc::translate::RequirementText> door_lock_spec() {
  return {
      {"R1", "If the door button is pressed, the lock signal is updated."},
      {"R2", "When the door sensor is detected, eventually the alarm is raised."},
      {"R3",
       "If the battery status is measured, the monitor light is activated in "
       "10 seconds."},
  };
}

}  // namespace

// ---- util::Digest -----------------------------------------------------------

TEST(DigestBuilder, AppendersAreDomainSeparatedAndOrderSensitive) {
  const Digest a = DigestBuilder().str("ab").str("c").finalize();
  const Digest b = DigestBuilder().str("a").str("bc").finalize();
  EXPECT_NE(a, b);  // length prefixes prevent concatenation aliasing

  const Digest c = DigestBuilder().u64(0).finalize();
  const Digest d = DigestBuilder().str("").finalize();
  EXPECT_NE(c, d);  // tag bytes separate the appender kinds

  EXPECT_EQ(DigestBuilder("x").u64(7).finalize(),
            DigestBuilder("x").u64(7).finalize());
  EXPECT_NE(DigestBuilder("x").u64(7).finalize(),
            DigestBuilder("y").u64(7).finalize());
}

TEST(DigestBuilder, HexRendersBothLanes) {
  const Digest d{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
}

// ---- ltl::canonical_digest --------------------------------------------------

// The digest is a persistent cache-key format: these pinned values detect
// any accidental change to the algorithm (which would silently invalidate
// — or worse, mis-match — every key derived from formulas).
TEST(CanonicalDigest, PinnedValuesAreStable) {
  EXPECT_EQ(ltl::canonical_digest(ltl::parse("G (a -> b)")).hex(),
            "8e66b93de56689d491d35e4e908126d3");
  EXPECT_EQ(ltl::canonical_digest(ltl::parse("a U b")).hex(),
            "00910f8019924b33dd8cb0a04dd9c5a7");
  EXPECT_EQ(ltl::canonical_digest(ltl::tru()).hex(),
            "47c7742b0513c67ae146072891946d32");
}

TEST(CanonicalDigest, StructurallyEqualFormulasAgreeHoweverBuilt) {
  const ltl::Formula parsed = ltl::parse("G (a -> b)");
  const ltl::Formula built =
      ltl::always(ltl::implies(ltl::ap("a"), ltl::ap("b")));
  EXPECT_EQ(ltl::canonical_digest(parsed), ltl::canonical_digest(built));

  // Print/parse round trip preserves the digest.
  EXPECT_EQ(ltl::canonical_digest(ltl::parse(ltl::to_string(parsed))),
            ltl::canonical_digest(parsed));
}

TEST(CanonicalDigest, DistinguishesStructureOperatorsAndNames) {
  const auto d = [](const char* text) {
    return ltl::canonical_digest(ltl::parse(text));
  };
  EXPECT_NE(d("a U b"), d("b U a"));      // child order
  EXPECT_NE(d("a U b"), d("a W b"));      // operator
  EXPECT_NE(d("a && b"), d("a || b"));    // n-ary operator
  EXPECT_NE(d("F alpha"), d("F alphb"));  // proposition name
  EXPECT_NE(d("X a"), d("X X a"));        // depth
}

TEST(CanonicalDigest, DeepNextChainsDoNotRecurse) {
  // Timed requirements produce X-chains hundreds deep; the walk must be
  // iterative (this would overflow a naive recursion at -O0 sanitizer
  // stack sizes long before 50k).
  const ltl::Formula deep = ltl::next_n(ltl::ap("p"), 50'000);
  const ltl::Formula deep2 = ltl::next_n(ltl::ap("p"), 50'000);
  EXPECT_EQ(ltl::canonical_digest(deep), ltl::canonical_digest(deep2));
}

// ---- nlp::Lexicon::fingerprint ----------------------------------------------

TEST(LexiconFingerprint, ContentDeterminesFingerprintNotInsertionOrder) {
  nlp::Lexicon a;
  a.add("door", nlp::Pos::kNoun);
  a.add_verb("press");
  a.add("red", nlp::Pos::kAdjective);

  nlp::Lexicon b;
  b.add("red", nlp::Pos::kAdjective);
  b.add_verb("press");
  b.add("door", nlp::Pos::kNoun);

  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Pinned on a fixed hand-composed lexicon (NOT on builtin(), whose
  // vocabulary may legitimately grow): detects accidental changes to the
  // fingerprint algorithm, a persistent cache-key format.
  EXPECT_EQ(a.fingerprint().hex(), "98f0377d91e0468e578e70bcd5e318f6");
}

TEST(LexiconFingerprint, AnyVocabularyEditChangesTheFingerprint) {
  nlp::Lexicon base = nlp::Lexicon::builtin();
  const Digest before = base.fingerprint();

  nlp::Lexicon with_word = base;
  with_word.add("flux", nlp::Pos::kNoun);
  EXPECT_NE(with_word.fingerprint(), before);

  nlp::Lexicon with_verb = base;
  with_verb.add_verb("flux");
  EXPECT_NE(with_verb.fingerprint(), before);
  EXPECT_NE(with_verb.fingerprint(), with_word.fingerprint());

  nlp::Lexicon with_irregular = base;
  with_irregular.add_irregular_verb("floxen", "flux", nlp::VerbForm::kPast);
  EXPECT_NE(with_irregular.fingerprint(), before);
}

// ---- key derivation ---------------------------------------------------------

TEST(CacheKeys, SentenceKeyNormalizesWhitespaceButPreservesCase) {
  EXPECT_EQ(cache::normalize_sentence("  the  Air Ok\tsignal \n"),
            "the Air Ok signal");

  const Digest lex = nlp::Lexicon::builtin().fingerprint();
  EXPECT_EQ(cache::sentence_key(cache::normalize_sentence("a   b"), lex),
            cache::sentence_key(cache::normalize_sentence(" a b "), lex));
  // Case is meaningful (proper names): never folded by normalization.
  EXPECT_NE(cache::sentence_key("the Air Ok signal", lex),
            cache::sentence_key("the air ok signal", lex));
  // The lexicon fingerprint is part of the key: vocabulary edits
  // invalidate by changing the key, not by purging entries.
  nlp::Lexicon extended = nlp::Lexicon::builtin();
  extended.add("flux", nlp::Pos::kNoun);
  EXPECT_NE(cache::sentence_key("a b", lex),
            cache::sentence_key("a b", extended.fingerprint()));
}

TEST(CacheKeys, SynthesisKeyCoversFormulasSignatureAndOptions) {
  const std::vector<ltl::Formula> formulas{ltl::parse("G (a -> b)")};
  speccc::synth::IoSignature signature{{"a"}, {"b"}};
  speccc::synth::SynthesisOptions options;

  const Digest base = cache::synthesis_key(formulas, signature, options);
  EXPECT_EQ(base, cache::synthesis_key(formulas, signature, options));

  speccc::synth::IoSignature flipped{{"b"}, {"a"}};
  EXPECT_NE(base, cache::synthesis_key(formulas, flipped, options));

  speccc::synth::SynthesisOptions deeper = options;
  deeper.bounded.max_k = options.bounded.max_k + 1;
  EXPECT_NE(base, cache::synthesis_key(formulas, signature, deeper));

  // Refinement and synthesis artifacts never share keys even for equal
  // inputs (separate domains).
  EXPECT_NE(base, cache::refinement_key(formulas, signature, options));
}

TEST(CacheKeys, SynthesisAndRefinementKeysArePinned) {
  // Key-drift guard: these keys address store and snapshot entries, so the
  // bytes folded for fixed inputs under default options must never move
  // (a moved key silently turns every warm snapshot cold).
  const std::vector<ltl::Formula> formulas{ltl::parse("G (a -> b)")};
  const speccc::synth::IoSignature signature{{"a"}, {"b"}};
  EXPECT_EQ(cache::synthesis_key(formulas, signature, {}).hex(),
            "95528686857a6e740687377792287877");
  EXPECT_EQ(cache::refinement_key(formulas, signature, {}).hex(),
            "f89a38137136f61a09e94e45b9e79cc7");
}

// ---- cache::Store -----------------------------------------------------------

TEST(Store, CountsHitsAndMissesPerLevel) {
  cache::Store store;
  const Digest key = cache::satisfiability_key(ltl::parse("F p"));

  EXPECT_FALSE(store.find_satisfiable(key).has_value());
  store.put_satisfiable(key, true);
  const auto hit = store.find_satisfiable(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);

  const cache::StatsSnapshot stats = store.stats();
  EXPECT_EQ(stats.l2_misses, 1u);
  EXPECT_EQ(stats.l2_hits, 1u);
  EXPECT_EQ(stats.l1_hits + stats.l1_misses, 0u);
  EXPECT_EQ(stats.hits(), 1u);
  EXPECT_EQ(stats.misses(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(Store, EvictsOldestFirstUnderMaxEntries) {
  cache::StoreOptions options;
  options.shards = 1;  // single shard: eviction order is exactly FIFO
  options.max_entries = 4;
  cache::Store store(options);

  std::vector<Digest> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(DigestBuilder("test").u64(i).finalize());
    store.put_satisfiable(keys.back(), i % 2 == 0);
  }

  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.stats().evictions, 2u);
  EXPECT_FALSE(store.find_satisfiable(keys[0]).has_value());  // evicted
  EXPECT_FALSE(store.find_satisfiable(keys[1]).has_value());  // evicted
  for (int i = 2; i < 6; ++i) {
    EXPECT_TRUE(store.find_satisfiable(keys[i]).has_value()) << i;
  }
}

TEST(Store, GlobalCapIsExactEvenWhenShardsDoNotDivideIt) {
  // Regression pin: the cap used to be ceiling-split per shard, so
  // shards=4 with max_entries=10 could hold up to 12 entries. The cap is
  // documented GLOBAL and enforced exactly: per-shard caps differ by at
  // most one and sum to max_entries.
  cache::StoreOptions options;
  options.shards = 4;
  options.max_entries = 10;  // not divisible by 4
  cache::Store store(options);

  for (int i = 0; i < 200; ++i) {
    store.put_satisfiable(DigestBuilder("cap").u64(i).finalize(), true);
  }
  EXPECT_LE(store.size(), 10u);
  // Keys spread over 4 shards; 200 inserts certainly filled every shard,
  // so the store sits exactly at the global cap.
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.stats().evictions, 200u - 10u);
}

TEST(Store, CapBelowShardCountStillAdmitsSomewhereAndNeverExceeds) {
  // The documented corner: max_entries < shards leaves some shards with a
  // zero cap; they decline inserts (a miss there only costs
  // recomputation), while the store still never exceeds the global cap.
  cache::StoreOptions options;
  options.shards = 8;
  options.max_entries = 3;
  cache::Store store(options);
  for (int i = 0; i < 100; ++i) {
    store.put_satisfiable(DigestBuilder("tiny").u64(i).finalize(), true);
  }
  EXPECT_LE(store.size(), 3u);
  EXPECT_GT(store.size(), 0u);
}

TEST(Store, LruKeepsRecentlyUsedWhereFifoEvictsByAge) {
  // Same access pattern under both policies: insert A then B (cap 2),
  // touch A, insert C. FIFO evicts A (oldest inserted); LRU evicts B
  // (least recently used) because the touch refreshed A.
  const Digest a = DigestBuilder("ev").u64(1).finalize();
  const Digest b = DigestBuilder("ev").u64(2).finalize();
  const Digest c = DigestBuilder("ev").u64(3).finalize();

  for (const cache::Eviction policy :
       {cache::Eviction::kFifo, cache::Eviction::kLru}) {
    cache::StoreOptions options;
    options.shards = 1;
    options.max_entries = 2;
    options.eviction = policy;
    cache::Store store(options);

    store.put_satisfiable(a, true);
    store.put_satisfiable(b, true);
    EXPECT_TRUE(store.find_satisfiable(a).has_value());  // touch A
    store.put_satisfiable(c, true);

    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.find_satisfiable(c).has_value());
    if (policy == cache::Eviction::kFifo) {
      EXPECT_FALSE(store.find_satisfiable(a).has_value()) << "fifo";
      EXPECT_TRUE(store.find_satisfiable(b).has_value()) << "fifo";
    } else {
      EXPECT_TRUE(store.find_satisfiable(a).has_value()) << "lru";
      EXPECT_FALSE(store.find_satisfiable(b).has_value()) << "lru";
    }
  }
  EXPECT_STREQ(cache::eviction_name(cache::Eviction::kFifo), "fifo");
  EXPECT_STREQ(cache::eviction_name(cache::Eviction::kLru), "lru");
}

TEST(Store, ThreadStatsAttributeWorkToTheCallingThread) {
  // Per-request accounting for the serve layer: the thread-local snapshot
  // delta scopes hits/misses to exactly what THIS thread did, regardless
  // of what other threads do to the same (or any) store.
  cache::Store store;
  const Digest here = DigestBuilder("tls").u64(1).finalize();
  const Digest there = DigestBuilder("tls").u64(2).finalize();

  std::thread other([&] {
    for (int i = 0; i < 5; ++i) {
      (void)store.find_satisfiable(there);  // 5 misses on the other thread
    }
  });
  other.join();

  const cache::StatsSnapshot before = cache::Store::thread_stats();
  (void)store.find_satisfiable(here);  // miss
  store.put_satisfiable(here, true);
  (void)store.find_satisfiable(here);  // hit
  const cache::StatsSnapshot delta =
      cache::Store::thread_stats().since(before);
  EXPECT_EQ(delta.l2_misses, 1u);
  EXPECT_EQ(delta.l2_hits, 1u);
  EXPECT_EQ(delta.evictions, 0u);
  // The shared counters saw everything, including the other thread.
  EXPECT_EQ(store.stats().l2_misses, 6u);
}

TEST(Store, PutIsFirstWriterWinsAndIdempotent) {
  cache::Store store;
  const Digest key = DigestBuilder("test").u64(1).finalize();
  store.put_satisfiable(key, true);
  store.put_satisfiable(key, false);  // racing duplicate: ignored
  EXPECT_TRUE(*store.find_satisfiable(key));
  EXPECT_EQ(store.size(), 1u);
}

// ---- translator + pipeline integration --------------------------------------

TEST(TranslatorCache, CachedTranslationIsIdenticalAndHitsOnReuse) {
  const nlp::Lexicon lexicon = nlp::Lexicon::builtin();
  const auto dictionary = speccc::semantics::AntonymDictionary::builtin();
  const auto spec = door_lock_spec();

  const speccc::translate::Translator plain(lexicon, dictionary);
  const auto expected = plain.translate(spec);

  cache::Store store;
  const speccc::translate::Translator cached(lexicon, dictionary, {}, &store);
  const auto first = cached.translate(spec);
  const auto second = cached.translate(spec);

  ASSERT_EQ(first.requirements.size(), expected.requirements.size());
  for (std::size_t i = 0; i < expected.requirements.size(); ++i) {
    EXPECT_EQ(first.requirements[i].formula, expected.requirements[i].formula);
    EXPECT_EQ(second.requirements[i].formula, expected.requirements[i].formula);
    EXPECT_EQ(first.requirements[i].text, expected.requirements[i].text);
  }
  const cache::StatsSnapshot stats = store.stats();
  EXPECT_EQ(stats.l1_misses, spec.size());  // first pass parsed
  EXPECT_EQ(stats.l1_hits, spec.size());    // second pass fully cached
}

TEST(PipelineCache, CachedRunMatchesUncachedAndSkipsRecomputation) {
  const auto spec = door_lock_spec();

  const speccc::core::Pipeline uncached;
  const auto expected = uncached.run("door_lock", spec);

  speccc::core::PipelineOptions options;
  options.cache = std::make_shared<cache::Store>();
  const speccc::core::Pipeline pipeline(options);
  const auto first = pipeline.run("door_lock", spec);
  const cache::StatsSnapshot after_first = options.cache->stats();
  const auto second = pipeline.run("door_lock", spec);
  const cache::StatsSnapshot after_second = options.cache->stats();

  for (const auto* run : {&first, &second}) {
    EXPECT_EQ(run->consistent, expected.consistent);
    EXPECT_EQ(run->num_formulas(), expected.num_formulas());
    EXPECT_EQ(run->partition.inputs, expected.partition.inputs);
    EXPECT_EQ(run->partition.outputs, expected.partition.outputs);
    EXPECT_EQ(run->unsatisfiable_requirements,
              expected.unsatisfiable_requirements);
    EXPECT_EQ(run->synthesis.verdict, expected.synthesis.verdict);
  }
  // The repeated run decides nothing anew: every level-2 lookup hits.
  EXPECT_GT(after_second.l2_hits, after_first.l2_hits);
  EXPECT_EQ(after_second.l2_misses, after_first.l2_misses);
  EXPECT_EQ(after_second.l1_misses, after_first.l1_misses);
}

// ---- persistent snapshots (cache/snapshot.hpp) ------------------------------

namespace {

namespace fs = std::filesystem;

std::string snapshot_path(const char* name) {
  const std::string dir = ::testing::TempDir() + "speccc_cache_snapshots";
  fs::create_directories(dir);
  return dir + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

// A hand-built two-entry store + fixed fingerprint: the snapshot of this
// store is a pure function of the FORMAT, not of any parser or pipeline
// behavior, so the golden-bytes pin below only breaks when the format
// itself changes (which must come with a version bump).
constexpr Digest kStampA{0x1111111111111111ULL, 0x2222222222222222ULL};

void fill_golden(cache::Store& store) {
  store.put_satisfiable(Digest{1, 2}, true);
  store.put_satisfiable(Digest{0x0123456789abcdefULL, 0xfedcba9876543210ULL},
                        false);
}

}  // namespace

TEST(Snapshot, PipelineRoundTripRerunsWithZeroMisses) {
  const auto spec = door_lock_spec();
  const std::string path = snapshot_path("roundtrip.snap");
  const Digest stamp = nlp::Lexicon::builtin().fingerprint();

  speccc::core::PipelineOptions options;
  options.cache = std::make_shared<cache::Store>();
  const auto expected = speccc::core::Pipeline(options).run("door_lock", spec);
  cache::save_snapshot(*options.cache, path, stamp);

  speccc::core::PipelineOptions warm_options;
  warm_options.cache = std::make_shared<cache::Store>();
  const cache::SnapshotMeta meta =
      cache::load_snapshot(*warm_options.cache, path, stamp);
  EXPECT_EQ(meta.version, cache::kSnapshotVersion);
  EXPECT_EQ(meta.lexicon_fingerprint, stamp);
  EXPECT_EQ(meta.entries, options.cache->size());
  EXPECT_EQ(warm_options.cache->size(), options.cache->size());

  // The warm store serves the rerun entirely: zero misses on both levels,
  // and the same verdict.
  const auto warm = speccc::core::Pipeline(warm_options).run("door_lock", spec);
  EXPECT_EQ(warm.consistent, expected.consistent);
  EXPECT_EQ(warm.num_formulas(), expected.num_formulas());
  EXPECT_EQ(warm.synthesis.verdict, expected.synthesis.verdict);
  const cache::StatsSnapshot stats = warm_options.cache->stats();
  EXPECT_EQ(stats.l1_misses, 0u);
  EXPECT_EQ(stats.l2_misses, 0u);
  EXPECT_GT(stats.l1_hits, 0u);
  EXPECT_GT(stats.l2_hits, 0u);
}

TEST(Snapshot, GoldenBytesArePinned) {
  // Format guard: the exact bytes of a tiny snapshot. If this pin breaks,
  // the on-disk format changed -- bump kSnapshotVersion and repin; do NOT
  // silently repin under the same version (old snapshots would be
  // misread, not rejected).
  const std::string path = snapshot_path("golden.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  EXPECT_EQ(
      to_hex(read_file(path)),
      // header: magic "SPCCSNP1", version 1, fingerprint, body length 79
      "53504343534e5031"  // SPCCSNP1
      "01000000"          // version 1
      "1111111111111111" "2222222222222222"  // lexicon fingerprint hi, lo
      "4f00000000000000"  // body: 79 bytes
      // body: 5 sections in kind order, entries sorted by key
      "01" "0000000000000000"  // sentences: none
      "02" "0200000000000000"  // satisfiable: 2 entries
      "0100000000000000" "0200000000000000" "01"  // {1,2} -> true
      "efcdab8967452301" "1032547698badcfe" "00"  // {0123...,fedc...} -> false
      "03" "0000000000000000"  // synthesis: none
      "04" "0000000000000000"  // refinement: none
      "05" "0000000000000000"  // abstraction: none
      // footer: DigestBuilder("snapshot-body") checksum of the body
      "748dcd324d7d3dbdcae9cd5c8c6a481e");
}

TEST(Snapshot, SaveIsAtomicAndOverwritesInPlace) {
  const std::string path = snapshot_path("atomic.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  const std::string first = read_file(path);
  cache::save_snapshot(store, path, kStampA);  // overwrite via rename
  EXPECT_EQ(read_file(path), first);
  // No temporary siblings survive a successful save.
  for (const auto& entry : fs::directory_iterator(fs::path(path).parent_path())) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

TEST(Snapshot, RejectsTruncatedFiles) {
  const std::string path = snapshot_path("truncated.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  const std::string bytes = read_file(path);

  // Cut mid-checksum and mid-header: both are kTruncated, and the target
  // store stays untouched either way.
  for (const std::size_t keep : {bytes.size() - 10, std::size_t{20}}) {
    write_file(path, bytes.substr(0, keep));
    cache::Store target;
    try {
      cache::load_snapshot(target, path, kStampA);
      FAIL() << "truncated snapshot (" << keep << " bytes) was accepted";
    } catch (const cache::SnapshotError& e) {
      EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kTruncated);
      EXPECT_EQ(e.path(), path);
    }
    EXPECT_EQ(target.size(), 0u);
  }
}

TEST(Snapshot, RejectsCorruptedBody) {
  const std::string path = snapshot_path("corrupted.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  std::string bytes = read_file(path);
  bytes[40] = static_cast<char>(bytes[40] ^ 0x40);  // flip one body bit
  write_file(path, bytes);

  cache::Store target;
  target.put_satisfiable(Digest{9, 9}, true);  // pre-existing entry
  try {
    cache::load_snapshot(target, path, kStampA);
    FAIL() << "corrupted snapshot was accepted";
  } catch (const cache::SnapshotError& e) {
    EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kCorrupted);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  EXPECT_EQ(target.size(), 1u);  // rejection left the store untouched
}

TEST(Snapshot, RejectsOutOfRangeEnumValues) {
  // Each stored enum is range-checked on load: a value no enumerator has
  // is corruption, rejected before the store is touched.
  const auto rejects = [](const char* name, const cache::Store& store) {
    const std::string path = snapshot_path(name);
    cache::save_snapshot(store, path, kStampA);
    cache::Store target;
    target.put_satisfiable(Digest{9, 9}, true);  // pre-existing entry
    try {
      cache::load_snapshot(target, path, kStampA);
      ADD_FAILURE() << name << ": out-of-range enum was accepted";
    } catch (const cache::SnapshotError& e) {
      EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kCorrupted) << name;
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(target.size(), 1u) << name;  // store untouched
  };

  speccc::synth::SynthesisResult bad_verdict;
  bad_verdict.verdict = static_cast<speccc::synth::Realizability>(7);
  cache::Store verdict_store;
  verdict_store.put_synthesis(Digest{1, 1}, bad_verdict);
  rejects("enum-verdict.snap", verdict_store);

  speccc::synth::SynthesisResult bad_engine;
  bad_engine.engine_used = static_cast<speccc::synth::Engine>(3);
  cache::Store engine_store;
  engine_store.put_synthesis(Digest{1, 1}, bad_engine);
  rejects("enum-engine.snap", engine_store);

  nlp::Clause clause;
  clause.subjects.push_back(nlp::NounPhrase{});
  clause.subjects[0].words.push_back(
      {"door", static_cast<nlp::Pos>(static_cast<int>(nlp::Pos::kUnknown) + 1)});
  nlp::Sentence bad_pos;
  bad_pos.main.clauses.emplace_back("", clause);
  cache::Store pos_store;
  pos_store.put_sentence(Digest{1, 1}, bad_pos);
  rejects("enum-pos.snap", pos_store);

  nlp::Sentence bad_kind;
  bad_kind.main.clauses.emplace_back("", nlp::Clause{});
  bad_kind.main.clauses[0].second.predicate.kind =
      static_cast<nlp::PredicateKind>(5);
  cache::Store kind_store;
  kind_store.put_sentence(Digest{1, 1}, bad_kind);
  rejects("enum-kind.snap", kind_store);
}

TEST(Snapshot, RejectsTimeConstraintPastTheGrammarsLimit) {
  // The parser rejects a deadline past nlp::kMaxConstraintSeconds, so a
  // stored parse carrying one is corruption.
  const auto load = [](const char* name, unsigned value, unsigned unit) {
    nlp::Sentence sentence;
    sentence.main.clauses.emplace_back("", nlp::Clause{});
    sentence.main.clauses[0].second.constraint = nlp::TimeConstraint{value, unit};
    cache::Store store;
    store.put_sentence(Digest{1, 1}, sentence);
    const std::string path = snapshot_path(name);
    cache::save_snapshot(store, path, kStampA);
    cache::Store target;
    cache::load_snapshot(target, path, kStampA);
    return target.size();
  };
  EXPECT_EQ(load("deadline-at-cap.snap", 1048576, 1), 1u);
  const std::pair<unsigned, unsigned> past_cap[] = {
      {1048577u, 1u}, {1193047u, 3600u}, {4294967295u, 4294967295u}};
  for (const auto& [value, unit] : past_cap) {
    try {
      (void)load("deadline-past-cap.snap", value, unit);
      ADD_FAILURE() << value << " x " << unit << " s was accepted";
    } catch (const cache::SnapshotError& e) {
      EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kCorrupted);
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Snapshot, RejectsWrongFormatVersion) {
  const std::string path = snapshot_path("version.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  std::string bytes = read_file(path);
  bytes[8] = 99;  // version field follows the 8-byte magic
  write_file(path, bytes);

  cache::Store target;
  try {
    cache::load_snapshot(target, path, kStampA);
    FAIL() << "future-version snapshot was accepted";
  } catch (const cache::SnapshotError& e) {
    EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kBadVersion);
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos);
  }
}

TEST(Snapshot, RejectsForeignMagicAndMissingFiles) {
  const std::string path = snapshot_path("magic.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);

  cache::Store target;
  EXPECT_THROW(
      try { cache::load_snapshot(target, path, kStampA); } catch
          (const cache::SnapshotError& e) {
        EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kBadMagic);
        throw;
      },
      cache::SnapshotError);
  EXPECT_THROW(
      try {
        cache::load_snapshot(target, snapshot_path("does-not-exist.snap"),
                             kStampA);
      } catch (const cache::SnapshotError& e) {
        EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kIo);
        throw;
      },
      cache::SnapshotError);
}

TEST(Snapshot, RejectsForeignLexiconFingerprint) {
  // A vocabulary edit changes the fingerprint; loading the stale snapshot
  // must fail loudly (level-1 keys embed the fingerprint, so the entries
  // would be unreachable at best).
  const std::string path = snapshot_path("fingerprint.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);

  nlp::Lexicon edited = nlp::Lexicon::builtin();
  edited.add("flux", nlp::Pos::kNoun);
  cache::Store target;
  try {
    cache::load_snapshot(target, path, edited.fingerprint());
    FAIL() << "foreign-lexicon snapshot was accepted";
  } catch (const cache::SnapshotError& e) {
    EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kBadFingerprint);
    // The diagnostic names both fingerprints, for the operator.
    EXPECT_NE(std::string(e.what()).find(kStampA.hex()), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(edited.fingerprint().hex()),
              std::string::npos);
  }
  EXPECT_EQ(target.size(), 0u);
}

// ---- Store::merge -----------------------------------------------------------

TEST(StoreMerge, FirstWriterWinsAndOnlyNewEntriesCount) {
  cache::Store a;
  a.put_satisfiable(Digest{1, 1}, true);
  cache::Store b;
  b.put_satisfiable(Digest{1, 1}, false);  // conflicting duplicate
  b.put_satisfiable(Digest{2, 2}, true);
  b.put_sentence(cache::sentence_key("the door opens", kStampA),
                 nlp::Sentence{});

  EXPECT_EQ(a.merge(b), 2u);  // the duplicate is not an insert
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(*a.find_satisfiable(Digest{1, 1}));  // a's value survived
  EXPECT_TRUE(*a.find_satisfiable(Digest{2, 2}));
  EXPECT_EQ(a.merge(b), 0u);  // idempotent
}

TEST(StoreMerge, ShardSnapshotsMergeIntoTheUnion) {
  // The coordinator's merge path in miniature: two per-shard stores with
  // one overlapping entry, snapshotted, loaded into one store.
  const std::string path_a = snapshot_path("shard-a.snap");
  const std::string path_b = snapshot_path("shard-b.snap");
  cache::Store shard_a, shard_b;
  shard_a.put_satisfiable(Digest{1, 1}, true);
  shard_a.put_satisfiable(Digest{2, 2}, false);
  shard_b.put_satisfiable(Digest{2, 2}, false);  // shared work
  shard_b.put_satisfiable(Digest{3, 3}, true);
  cache::save_snapshot(shard_a, path_a, kStampA);
  cache::save_snapshot(shard_b, path_b, kStampA);

  cache::Store merged;
  cache::load_snapshot(merged, path_a, kStampA);
  cache::load_snapshot(merged, path_b, kStampA);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_TRUE(*merged.find_satisfiable(Digest{1, 1}));
  EXPECT_FALSE(*merged.find_satisfiable(Digest{2, 2}));
  EXPECT_TRUE(*merged.find_satisfiable(Digest{3, 3}));
}
