// Tests for the determinism sanitizer (engine/detsan.h) and its canonical
// hashing substrate (util/canon_hash.h).
//
// Shape mirrors test_lint.cpp: each seeded impurity (non-commutative
// reduce, by-reference mutable capture, dirty combiner) is paired with the
// nearest clean plan that must NOT fire, plus end-to-end runs proving the
// stock mining pipelines replay clean at sample rate 1.0.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "detsan_fixtures.h"
#include "engine/context.h"
#include "engine/detsan.h"
#include "engine/lint.h"
#include "engine/rdd.h"
#include "fim/mr_apriori.h"
#include "fim/yafim.h"
#include "mapreduce/job.h"
#include "util/bytes.h"
#include "util/canon_hash.h"
#include "util/rng.h"

namespace yafim::engine {
namespace {

Context::Options detsan_on(double rate = 1.0, bool fail_fast = false) {
  Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 2;
  opts.detsan.enabled = true;
  opts.detsan.sample_rate = rate;
  opts.detsan.fail_fast = fail_fast;
  return opts;
}

std::vector<int> iota(int n) {
  std::vector<int> out(n);
  for (int i = 0; i < n; ++i) out[i] = i;
  return out;
}

fim::TransactionDB small_db() {
  Rng rng(41);
  std::vector<fim::Transaction> tx;
  for (int i = 0; i < 200; ++i) {
    fim::Transaction t;
    for (u32 item = 0; item < 12; ++item) {
      if (rng.bernoulli(0.4)) t.push_back(item);
    }
    if (t.empty()) t.push_back(static_cast<fim::Item>(rng.below(12)));
    tx.push_back(std::move(t));
  }
  return fim::TransactionDB(std::move(tx));
}

// --- canonical hashing ---------------------------------------------------

TEST(CanonHash, UnorderedIsPermutationInvariant) {
  const std::vector<int> a = {1, 2, 3, 4, 5};
  const std::vector<int> b = {5, 3, 1, 4, 2};
  EXPECT_EQ(util::canon_hash_unordered(a), util::canon_hash_unordered(b));
  const std::vector<int> dropped = {1, 2, 3, 4};
  EXPECT_NE(util::canon_hash_unordered(a),
            util::canon_hash_unordered(dropped));
  const std::vector<int> duplicated = {1, 2, 3, 4, 5, 5};
  EXPECT_NE(util::canon_hash_unordered(a),
            util::canon_hash_unordered(duplicated));
}

TEST(CanonHash, OrderedIsOrderSensitive) {
  const std::vector<int> a = {1, 2, 3};
  const std::vector<int> b = {3, 2, 1};
  EXPECT_NE(util::canon_hash_ordered(a), util::canon_hash_ordered(b));
  EXPECT_EQ(util::canon_hash_ordered(a), util::canon_hash_ordered(a));
}

TEST(CanonHash, ScalarsHashCanonically) {
  // Signed/width widening: the same value hashes alike across int types.
  EXPECT_EQ(util::canon_hash_value(i32{5}), util::canon_hash_value(i64{5}));
  EXPECT_EQ(util::canon_hash_value(i32{-7}), util::canon_hash_value(i64{-7}));
  // Both floating-point zeros compare equal, so they must hash equal.
  EXPECT_EQ(util::canon_hash_value(0.0), util::canon_hash_value(-0.0));
  EXPECT_NE(util::canon_hash_value(1.0), util::canon_hash_value(2.0));
}

TEST(CanonHash, PairAndNestedShapesAreHashable) {
  static_assert(util::is_canon_hashable_v<std::pair<const std::string, u64>>,
                "map iteration yields pair<const K, V>");
  static_assert(util::is_canon_hashable_v<std::vector<std::pair<int, double>>>);
  static_assert(!util::is_canon_hashable_v<std::set<int>>);
  const std::pair<std::string, u64> p{"abc", 7};
  const std::pair<std::string, u64> q{"abc", 8};
  EXPECT_NE(util::canon_hash_value(p), util::canon_hash_value(q));
}

// --- sampling and permutation machinery ----------------------------------

TEST(DetSan, PermutationIsDeterministicAndNeverIdentity) {
  for (size_t n : {2u, 3u, 5u, 16u, 100u}) {
    for (u64 seed : {1ull, 42ull, 0xDE75A11ull}) {
      const auto perm = DetSan::permutation(n, seed);
      ASSERT_EQ(perm.size(), n);
      EXPECT_EQ(perm, DetSan::permutation(n, seed));
      std::set<u32> seen(perm.begin(), perm.end());
      EXPECT_EQ(seen.size(), n) << "must be a permutation";
      bool identity = true;
      for (size_t i = 0; i < n; ++i) identity &= (perm[i] == i);
      EXPECT_FALSE(identity) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(DetSan, SamplingIsDeterministicAndRateGated) {
  Context ctx0(detsan_on(0.0));
  Context ctx1(detsan_on(1.0));
  Context ctx_half(detsan_on(0.5));
  Context ctx_half2(detsan_on(0.5));
  u32 sampled = 0;
  for (u32 node = 1; node < 20; ++node) {
    for (u32 pid = 0; pid < 8; ++pid) {
      EXPECT_FALSE(ctx0.detsan().should_replay(node, pid));
      EXPECT_TRUE(ctx1.detsan().should_replay(node, pid));
      EXPECT_EQ(ctx_half.detsan().should_replay(node, pid),
                ctx_half2.detsan().should_replay(node, pid));
      sampled += ctx_half.detsan().should_replay(node, pid);
    }
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_LT(sampled, 19u * 8u);
}

TEST(DetSan, EnablingForcesTheLinterOn) {
  Context ctx(detsan_on());
  EXPECT_TRUE(ctx.detsan().enabled());
  EXPECT_TRUE(ctx.linter().enabled());
}

// --- clean plans must not fire -------------------------------------------

TEST(DetSan, PurePipelineReplaysClean) {
  Context ctx(detsan_on(1.0));
  using KV = std::pair<int, int>;
  auto counts = ctx.parallelize(iota(200), 4)
                    .map([](const int& x) { return x * 3; })
                    .filter([](const int& x) { return x % 2 == 0; })
                    .flat_map([](const int& x) {
                      return std::vector<int>{x, x + 1};
                    })
                    .map([](const int& x) { return KV(x % 5, 1); })
                    .reduce_by_key([](int a, int b) { return a + b; });
  counts.collect();
  const auto sum = ctx.parallelize(iota(100), 4).reduce(
      [](int a, int b) { return a + b; });
  EXPECT_EQ(sum, 4950);
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
  EXPECT_EQ(ctx.linter().count("YL007"), 0u);
}

TEST(DetSan, OrderSensitiveButDeterministicMapPartitionsIsClean) {
  // A partition function may legitimately depend on element order (prefix
  // sums); the replay only checks it is a *function* of that order.
  Context ctx(detsan_on(1.0));
  auto prefix = ctx.parallelize(iota(64), 4).map_partitions(
      [](const std::vector<int>& part) {
        std::vector<int> out;
        int acc = 0;
        for (int x : part) out.push_back(acc += x);
        return out;
      });
  prefix.collect();
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
}

// --- seeded impurities must fire -----------------------------------------

TEST(DetSan, NonCommutativeReduceDivergesAsYL007) {
  Context ctx(detsan_on(1.0));
  auto rdd = ctx.parallelize(iota(64), 4);
  rdd.named("bad-fold");
  // detsan: intentional-divergence -- the impurity under test.
  (void)rdd.reduce([](int a, int b) { return a - b; });
  EXPECT_GT(ctx.detsan().divergences(), 0u);
  ASSERT_GE(ctx.linter().count("YL007"), 1u);
  bool named = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule != "YL007") continue;
    EXPECT_EQ(diag.severity, LintSeverity::kError);
    named |= diag.node_name == "bad-fold";
  }
  EXPECT_TRUE(named) << "YL007 must name the diverging node";
  EXPECT_TRUE(ctx.linter().any_at_least(LintSeverity::kError));
}

TEST(DetSan, StatefulByRefCaptureDivergesWithNodeName) {
  Context ctx(detsan_on(1.0));
  auto rdd = ctx.parallelize(iota(64), 4);
  std::atomic<int> calls{0};
  // detsan: intentional-divergence -- the impurity under test.
  auto tagged = rdd.map([&calls](const int& x) {
    return x * 16 + (calls.fetch_add(1, std::memory_order_relaxed) & 15);
  });
  tagged.named("leaky-map");
  tagged.collect();
  EXPECT_GT(ctx.detsan().divergences(), 0u);
  bool named = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    named |= diag.rule == "YL007" && diag.node_name == "leaky-map";
  }
  EXPECT_TRUE(named);
}

TEST(DetSan, FailFastThrowsDetSanErrorNamingNodeAndStage) {
  Context ctx(detsan_on(1.0, /*fail_fast=*/true));
  auto rdd = ctx.parallelize(iota(64), 4);
  rdd.named("bad-fold");
  try {
    // detsan: intentional-divergence -- the impurity under test.
    (void)rdd.reduce([](int a, int b) { return a - b; }, "fold-stage");
    FAIL() << "expected DetSanError";
  } catch (const DetSanError& e) {
    EXPECT_EQ(e.node_name(), "bad-fold");
    EXPECT_EQ(e.stage(), "fold-stage");
    EXPECT_FALSE(e.element().empty());
    EXPECT_NE(std::string(e.what()).find("bad-fold"), std::string::npos);
  }
}

TEST(DetSan, SelftestFixturesBothDiverge) {
  Context ctx(detsan_on(1.0));
  const auto result = detsan_fixtures::run(ctx);
  EXPECT_GT(result.tasks_replayed, 0u);
  EXPECT_GT(result.divergences, 0u);
  bool saw_fold = false;
  bool saw_map = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule != "YL007") continue;
    saw_fold |= diag.node_name == "noncommutative-fold";
    saw_map |= diag.node_name == "stateful-map";
  }
  EXPECT_TRUE(saw_fold);
  EXPECT_TRUE(saw_map);
}

TEST(DetSan, DisabledSanitizerNeverReplays) {
  Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 2;
  Context ctx(opts);
  auto rdd = ctx.parallelize(iota(64), 4);
  // Impure on purpose: with the sanitizer off nothing may fire.
  (void)rdd.reduce([](int a, int b) { return a - b; });
  EXPECT_EQ(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
}

// --- MapReduce combiner hook ---------------------------------------------

using CombineSpec = mr::JobSpec<u64, u64, i64, std::pair<u64, i64>>;

CombineSpec combine_spec(bool commutative) {
  CombineSpec spec;
  spec.name = commutative ? "clean-combine" : "dirty-combine";
  spec.decode_input = [](const std::vector<u8>& bytes) {
    ByteReader r(bytes);
    const u64 n = r.read_u64();
    std::vector<u64> records;
    for (u64 i = 0; i < n; ++i) records.push_back(r.read_u64());
    return records;
  };
  spec.map_fn = [](const u64& x, mr::Emitter<u64, i64>& emit) {
    emit.emit(x % 3, static_cast<i64>(x));
  };
  if (commutative) {
    spec.combine_fn = [](const i64& a, const i64& b) { return a + b; };
  } else {
    // detsan: intentional-divergence -- the impurity under test.
    spec.combine_fn = [](const i64& a, const i64& b) { return a - b; };
  }
  spec.reduce_fn = [](const u64& k, std::vector<i64>& values)
      -> std::optional<std::pair<u64, i64>> {
    i64 sum = 0;
    for (i64 v : values) sum += v;
    return std::make_pair(k, sum);
  };
  spec.encode_output = [](const std::vector<std::pair<u64, i64>>& out) {
    ByteWriter w;
    w.write_u64(out.size());
    return w.take();
  };
  return spec;
}

TEST(DetSan, MapReduceCombinerHookFlagsNonCommutativeCombine) {
  Context ctx(detsan_on(1.0));
  simfs::SimFS fs(ctx.cluster());
  ByteWriter w;
  w.write_u64(256);
  for (u64 i = 0; i < 256; ++i) w.write_u64(i);
  fs.write("in", w.take());
  mr::JobRunner runner(ctx, fs);
  (void)runner.run(combine_spec(/*commutative=*/false), "in", "out");
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_GT(ctx.detsan().divergences(), 0u);
}

TEST(DetSan, MapReduceCombinerHookCleanOnCommutativeCombine) {
  Context ctx(detsan_on(1.0));
  simfs::SimFS fs(ctx.cluster());
  ByteWriter w;
  w.write_u64(256);
  for (u64 i = 0; i < 256; ++i) w.write_u64(i);
  fs.write("in", w.take());
  mr::JobRunner runner(ctx, fs);
  (void)runner.run(combine_spec(/*commutative=*/true), "in", "out");
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
}

// --- end-to-end: the stock pipelines replay clean ------------------------

TEST(DetSan, StockYafimReplaysClean) {
  const auto db = small_db();
  Context ctx(detsan_on(1.0));
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = 0.2;
  const auto run = fim::yafim_mine(ctx, fs, db, opt);
  ASSERT_GT(run.itemsets.max_k(), 1u) << "need a multi-pass run";
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
  EXPECT_EQ(ctx.linter().count("YL007"), 0u);
}

TEST(DetSan, StockMrAprioriReplaysClean) {
  const auto db = small_db();
  Context ctx(detsan_on(1.0));
  simfs::SimFS fs(ctx.cluster());
  fim::MrAprioriOptions opt;
  opt.min_support = 0.2;
  const auto run = fim::mr_apriori_mine(ctx, fs, db, opt);
  ASSERT_GT(run.itemsets.total(), 0u);
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
}

}  // namespace
}  // namespace yafim::engine
