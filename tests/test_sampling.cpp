// Tests for approximate mining by sampling (fim/sampling.h): the shared
// ceil threshold helper, negative-border construction vs brute force,
// seeded-sample determinism across counting paths, the Toivonen exactness
// truth-table, SON-as-a-special-case bit-identity, and the two-pass
// guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fim/apriori_seq.h"
#include "fim/sampling.h"
#include "fim/son.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
  return opts;
}

TransactionDB random_db(u32 universe, int transactions, double density,
                        u64 seed) {
  Rng rng(seed);
  std::vector<Transaction> tx;
  for (int i = 0; i < transactions; ++i) {
    Transaction t;
    for (u32 item = 0; item < universe; ++item) {
      if (rng.bernoulli(density)) t.push_back(item);
    }
    if (t.empty()) t.push_back(static_cast<Item>(rng.below(universe)));
    tx.push_back(std::move(t));
  }
  return TransactionDB(std::move(tx));
}

FrequentItemsets reference(const TransactionDB& db, double min_support) {
  AprioriOptions opt;
  opt.min_support = min_support;
  return apriori_mine(db, opt).itemsets;
}

SamplingRun mine(const TransactionDB& db, const SamplingOptions& opt) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  return sampling_mine(ctx, fs, db, opt);
}

/// Every output itemset must carry its exact full-data support and clear
/// the global threshold -- precision is 1 even when the run is inexact.
void expect_sound(const SamplingRun& sres, const TransactionDB& db,
                  double min_support) {
  const u64 min_count = min_count_ceil(min_support, db.size());
  for (u32 k = 1; k <= sres.run.itemsets.max_k(); ++k) {
    for (const auto& [itemset, support] : sres.run.itemsets.level(k)) {
      EXPECT_EQ(support, db.support(itemset)) << to_string(itemset);
      EXPECT_GE(support, min_count) << to_string(itemset);
    }
  }
}

// ---------------- min_count_ceil (the pinned rounding rule) -------------

TEST(MinCountCeil, CeilNotFloor) {
  // 0.5 * 5 = 2.5: ceil gives 3; a floor (the classic off-by-one in local
  // SON thresholds) would give 2 and admit spurious local candidates.
  EXPECT_EQ(min_count_ceil(0.5, 5), 3u);
  EXPECT_EQ(min_count_ceil(0.25, 10), 3u);  // 2.5 -> 3
  EXPECT_EQ(min_count_ceil(0.3, 10), 3u);   // exactly 3.0 stays 3
  EXPECT_EQ(min_count_ceil(0.2, 10), 2u);
  EXPECT_EQ(min_count_ceil(1.0, 7), 7u);
}

TEST(MinCountCeil, ExactMultiplesDoNotRoundUp) {
  // 1/3 * 3 = 0.999...: the epsilon guard keeps an exact multiple from
  // drifting one past its true ceiling.
  EXPECT_EQ(min_count_ceil(1.0 / 3.0, 3), 1u);
  EXPECT_EQ(min_count_ceil(0.1, 30), 3u);
  EXPECT_EQ(min_count_ceil(0.7, 10), 7u);
}

TEST(MinCountCeil, FlooredAtOne) {
  EXPECT_EQ(min_count_ceil(0.0001, 100), 1u);
  EXPECT_EQ(min_count_ceil(0.5, 0), 1u);  // empty split: threshold 1
}

// ---------------- negative border vs brute force ------------------------

/// Brute-force Bd^-(F): every subset of `universe` (up to max_k + 1) that
/// is not frequent but all of whose size-(k-1) subsets are.
std::vector<Itemset> brute_border(const FrequentItemsets& frequent,
                                  const std::vector<Item>& universe) {
  std::vector<Itemset> border;
  const u32 n = static_cast<u32>(universe.size());
  const u32 max_size = frequent.max_k() + 1;
  for (u32 mask = 1; mask < (1u << n); ++mask) {
    Itemset s;
    for (u32 bit = 0; bit < n; ++bit) {
      if (mask & (1u << bit)) s.push_back(universe[bit]);
    }
    if (s.size() > max_size || frequent.contains(s)) continue;
    bool minimal = true;
    for (u32 skip = 0; skip < s.size() && minimal; ++skip) {
      Itemset sub;
      for (u32 i = 0; i < s.size(); ++i) {
        if (i != skip) sub.push_back(s[i]);
      }
      if (!sub.empty() && !frequent.contains(sub)) minimal = false;
    }
    if (minimal) border.push_back(std::move(s));
  }
  std::sort(border.begin(), border.end());
  return border;
}

TEST(NegativeBorder, MatchesBruteForce) {
  for (u64 seed : {11u, 12u, 13u}) {
    const auto db = random_db(8, 60, 0.4, seed);
    std::vector<Item> universe;
    for (u32 item = 0; item < 8; ++item) universe.push_back(item);
    const auto frequent = reference(db, 0.25);
    auto got = negative_border(frequent, universe);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_border(frequent, universe)) << "seed " << seed;
  }
}

TEST(NegativeBorder, EmptyFrequentSetBordersEveryItem) {
  FrequentItemsets empty(10, 100);
  const std::vector<Item> universe{2, 5, 9};
  auto border = negative_border(empty, universe);
  std::sort(border.begin(), border.end());
  EXPECT_EQ(border,
            (std::vector<Itemset>{Itemset{2}, Itemset{5}, Itemset{9}}));
}

TEST(NegativeBorder, CoversUniverseItemsTheSampleNeverDrew) {
  // Item 7 is in the full universe but absent from the (sampled) frequent
  // set: it must appear in the border, or a miss could go uncertified.
  FrequentItemsets frequent(1, 10);
  frequent.add({3}, 5);
  const std::vector<Item> universe{3, 7};
  const auto border = negative_border(frequent, universe);
  EXPECT_NE(std::find(border.begin(), border.end(), Itemset{7}),
            border.end());
}

// ---------------- seeded determinism ------------------------------------

TEST(Sampling, SeededDeterminismAcrossCountModesAndBroadcast) {
  const auto db = random_db(16, 300, 0.35, 21);
  SamplingOptions base;
  base.min_support = 0.2;
  base.sample_fraction = 0.3;
  base.num_samples = 4;
  base.relax = 0.5;
  base.seed = 7;

  const SamplingRun first = mine(db, base);
  for (CountMode mode : {CountMode::kItemsetKey, CountMode::kCandidateId}) {
    for (BroadcastMode bmode :
         {BroadcastMode::kAuto, BroadcastMode::kPartitioned}) {
      SamplingOptions opt = base;
      opt.count_mode = mode;
      opt.broadcast_mode = bmode;
      const SamplingRun sres = mine(db, opt);
      EXPECT_TRUE(sres.run.itemsets.same_itemsets(first.run.itemsets));
      EXPECT_EQ(sres.candidate_union, first.candidate_union);
      EXPECT_EQ(sres.border_union, first.border_union);
      EXPECT_EQ(sres.false_candidates, first.false_candidates);
      EXPECT_EQ(sres.border_survivors, first.border_survivors);
      EXPECT_EQ(sres.exact, first.exact);
      EXPECT_DOUBLE_EQ(sres.miss_bound, first.miss_bound);
      EXPECT_EQ(sres.sample_sizes, first.sample_sizes);
    }
  }
  // An uncached lineage recomputes the parse but must not change results.
  SamplingOptions uncached = base;
  uncached.cache_transactions = false;
  const SamplingRun sres = mine(db, uncached);
  EXPECT_TRUE(sres.run.itemsets.same_itemsets(first.run.itemsets));
  EXPECT_EQ(sres.sample_sizes, first.sample_sizes);
}

TEST(Sampling, DifferentSeedsDrawDifferentSamples) {
  const auto db = random_db(16, 300, 0.35, 22);
  SamplingOptions opt;
  opt.min_support = 0.2;
  opt.sample_fraction = 0.3;
  opt.seed = 1;
  const auto a = mine(db, opt);
  opt.seed = 2;
  const auto b = mine(db, opt);
  EXPECT_NE(a.sample_sizes, b.sample_sizes);
}

// ---------------- exactness truth-table ---------------------------------

TEST(Sampling, FullSampleIsAlwaysExact) {
  // p = 1, one sample, no relaxation: the sample IS the dataset, its
  // border cannot survive, so the certificate must fire deterministically.
  const auto db = random_db(14, 200, 0.4, 31);
  const auto ref = reference(db, 0.2);
  SamplingOptions opt;
  opt.min_support = 0.2;
  opt.sample_fraction = 1.0;
  opt.num_samples = 1;
  opt.relax = 1.0;
  const auto sres = mine(db, opt);
  EXPECT_TRUE(sres.exact);
  EXPECT_EQ(sres.border_survivors, 0u);
  EXPECT_DOUBLE_EQ(sres.miss_bound, 0.0);
  EXPECT_EQ(sres.sample_sizes, (std::vector<u64>{db.size()}));
  EXPECT_TRUE(sres.run.itemsets.same_itemsets(ref));
  EXPECT_EQ(sres.false_candidates, 0u);
}

TEST(Sampling, ExactRunMatchesExactMiner) {
  // Default-ish parameters: generous samples at a relaxed threshold. The
  // certificate (seed-pinned) holds, so the verified output must be
  // bit-identical to the exact reference.
  const auto db = random_db(16, 300, 0.35, 32);
  const auto ref = reference(db, 0.2);
  SamplingOptions opt;
  opt.min_support = 0.2;
  opt.sample_fraction = 0.3;
  opt.num_samples = 4;
  opt.relax = 0.5;
  opt.seed = 42;
  const auto sres = mine(db, opt);
  ASSERT_TRUE(sres.exact);
  EXPECT_TRUE(sres.run.itemsets.same_itemsets(ref));
  expect_sound(sres, db, 0.2);
  EXPECT_GE(sres.candidate_union, ref.total());
}

TEST(Sampling, SurvivingBorderForcesInexact) {
  // One tiny sample with no relaxation: it cannot see every frequent
  // itemset, so some border itemset is globally frequent and the run must
  // refuse the exactness certificate -- yet stay sound (exact supports,
  // nothing below MinSup).
  const auto db = random_db(16, 300, 0.35, 33);
  SamplingOptions opt;
  opt.min_support = 0.2;
  opt.sample_fraction = 0.03;
  opt.num_samples = 1;
  opt.relax = 1.0;
  opt.seed = 5;
  const auto sres = mine(db, opt);
  EXPECT_FALSE(sres.exact);
  EXPECT_GT(sres.border_survivors, 0u);
  EXPECT_GT(sres.miss_bound, 0.0);
  EXPECT_LE(sres.miss_bound, 1.0);
  expect_sound(sres, db, 0.2);
  // Recall may be < 1 here; precision never is.
  const auto ref = reference(db, 0.2);
  EXPECT_LE(sres.run.itemsets.total(), ref.total());
}

TEST(Sampling, EmptySampleBordersTheWholeUniverse) {
  // A sample that draws nothing produces no local result; its border is
  // every universe item, so every globally frequent item survives it and
  // the run is inexact (with only singletons verifiable).
  const auto db = random_db(12, 200, 0.5, 34);
  SamplingOptions opt;
  opt.min_support = 0.2;
  opt.sample_fraction = 1e-7;
  opt.num_samples = 1;
  opt.seed = 3;
  const auto sres = mine(db, opt);
  ASSERT_EQ(sres.sample_sizes, (std::vector<u64>{0}));
  EXPECT_FALSE(sres.exact);
  const auto ref = reference(db, 0.2);
  EXPECT_EQ(sres.border_survivors, ref.level(1).size());
  EXPECT_LE(sres.run.itemsets.max_k(), 1u);
  EXPECT_EQ(sres.run.itemsets.level(1), ref.level(1));
}

TEST(Sampling, EmptyDatabase) {
  TransactionDB db{std::vector<Transaction>{}};
  SamplingOptions opt;
  opt.min_support = 0.3;
  const auto sres = mine(db, opt);
  EXPECT_TRUE(sres.exact);
  EXPECT_EQ(sres.run.itemsets.total(), 0u);
  EXPECT_EQ(sres.candidate_union, 0u);
}

// ---------------- SON as a special case ---------------------------------

TEST(Sampling, DisjointSplitsBitIdenticalToSonMine) {
  const auto db = random_db(16, 300, 0.35, 41);
  const auto ref = reference(db, 0.2);

  SamplingOptions opt;
  opt.min_support = 0.2;
  opt.strategy = SplitStrategy::kDisjointSplits;
  opt.num_samples = 3;
  opt.relax = 0.4;  // must be ignored: disjoint splits force r = 1
  const auto sam = mine(db, opt);

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  SonOptions son_opt;
  son_opt.min_support = 0.2;
  son_opt.num_mappers = 3;
  const auto son = son_mine(ctx, fs, db, son_opt);

  EXPECT_TRUE(sam.run.itemsets.same_itemsets(son.run.itemsets));
  EXPECT_TRUE(sam.run.itemsets.same_itemsets(ref));
  EXPECT_TRUE(sam.exact);
  EXPECT_EQ(sam.border_union, 0u);
  EXPECT_EQ(sam.border_survivors, 0u);
  EXPECT_DOUBLE_EQ(sam.miss_bound, 0.0);
  EXPECT_EQ(sam.false_candidates, sam.candidate_union - ref.total());
  u64 covered = 0;
  for (u64 m : sam.sample_sizes) covered += m;
  EXPECT_EQ(covered, db.size());  // splits partition the data
}

TEST(Sampling, SingleDisjointSplitIsSequentialApriori) {
  const auto db = random_db(12, 150, 0.4, 42);
  SamplingOptions opt;
  opt.min_support = 0.25;
  opt.strategy = SplitStrategy::kDisjointSplits;
  opt.num_samples = 1;
  const auto sres = mine(db, opt);
  EXPECT_TRUE(sres.exact);
  EXPECT_TRUE(sres.run.itemsets.same_itemsets(reference(db, 0.25)));
  EXPECT_EQ(sres.false_candidates, 0u);  // the one split is the data
}

// ---------------- two-pass guarantee ------------------------------------

TEST(Sampling, ExactlyTwoPassesIndependentOfLatticeDepth) {
  // Dense data, deep lattice: a per-level miner would need max_k passes;
  // the two-phase driver always reports exactly two.
  const auto db = random_db(12, 200, 0.7, 51);
  SamplingOptions opt;
  opt.min_support = 0.3;
  opt.sample_fraction = 0.5;
  opt.num_samples = 2;
  opt.relax = 0.6;
  const auto sres = mine(db, opt);
  ASSERT_EQ(sres.run.passes.size(), 2u);
  EXPECT_GE(sres.run.itemsets.max_k(), 3u);  // deeper than the pass count
  EXPECT_EQ(sres.run.passes[0].k, 1u);
  EXPECT_EQ(sres.run.passes[1].k, 2u);
  EXPECT_EQ(sres.run.passes[1].candidates,
            sres.candidate_union + sres.border_union);
}

// ---------------- option validation -------------------------------------

using SamplingDeathTest = ::testing::Test;

TEST(SamplingDeathTest, RejectsBadOptions) {
  const auto db = random_db(8, 20, 0.5, 61);
  auto run_with = [&db](SamplingOptions opt) { (void)mine(db, opt); };
  SamplingOptions opt;
  opt.num_samples = 0;
  EXPECT_DEATH(run_with(opt), "num_samples");
  opt = SamplingOptions{};
  opt.num_samples = 65;
  EXPECT_DEATH(run_with(opt), "num_samples");
  opt = SamplingOptions{};
  opt.sample_fraction = 0.0;
  EXPECT_DEATH(run_with(opt), "sample_fraction");
  opt = SamplingOptions{};
  opt.sample_fraction = 1.5;
  EXPECT_DEATH(run_with(opt), "sample_fraction");
  opt = SamplingOptions{};
  opt.relax = 0.0;
  EXPECT_DEATH(run_with(opt), "relax");
  opt = SamplingOptions{};
  opt.min_support = 0.0;
  EXPECT_DEATH(run_with(opt), "support");
}

}  // namespace
}  // namespace yafim::fim
