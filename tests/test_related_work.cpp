// Tests for the related-work algorithms (paper §III): SON/PSON, Dist-Eclat
// and BigFIM. All must be exact (identical itemsets and supports to the
// sequential Apriori reference) across datasets and parameters, and their
// cost profiles must reflect their designs.
#include <gtest/gtest.h>

#include <cmath>

#include "fim/apriori_seq.h"
#include "fim/big_fim.h"
#include "fim/dist_eclat.h"
#include "fim/mr_apriori.h"
#include "fim/pfp.h"
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

// ---------------- SON ---------------------------------------------------

// Out-of-range supports abort in min_count_ceil (see test_mr_apriori.cpp).
TEST(SonDeathTest, RejectsOutOfRangeSupport) {
  const auto db = random_db(8, 20, 0.5, 3);
  for (const double sup : {std::nan(""), 0.0, 1.5}) {
    EXPECT_DEATH(
        {
          engine::Context ctx(small_cluster());
          simfs::SimFS fs(ctx.cluster());
          SonOptions opt;
          opt.min_support = sup;
          (void)son_mine(ctx, fs, db, opt);
        },
        "relative support")
        << "min_support " << sup;
  }
}

TEST(Son, ExactOnRandomData) {
  const auto db = random_db(16, 300, 0.35, 1);
  const auto ref = reference(db, 0.2);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  SonOptions opt;
  opt.min_support = 0.2;
  const auto son = son_mine(ctx, fs, db, opt);
  EXPECT_TRUE(son.run.itemsets.same_itemsets(ref));
  EXPECT_GE(son.candidate_union, ref.total());
  EXPECT_EQ(son.false_candidates, son.candidate_union - ref.total());
}

TEST(Son, ExactlyTwoJobs) {
  const auto db = random_db(14, 200, 0.65, 2);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  SonOptions opt;
  opt.min_support = 0.25;
  const auto son = son_mine(ctx, fs, db, opt);

  u32 startups = 0;
  for (const auto& stage : ctx.report().stages()) {
    if (stage.fixed_overhead_s > 0) ++startups;
  }
  EXPECT_EQ(startups, 2u);  // independent of lattice depth
  EXPECT_EQ(son.run.passes.size(), 2u);
  EXPECT_GE(son.run.itemsets.max_k(), 3u);  // deeper than the job count
}

TEST(Son, SkewedSplitsStillExact) {
  // Heavy skew: the first half of the data carries a pattern the second
  // half lacks; locally-frequent-only candidates must be filtered by the
  // counting job.
  std::vector<Transaction> tx;
  for (int i = 0; i < 100; ++i) tx.push_back({1, 2, 3});
  for (int i = 0; i < 100; ++i) tx.push_back({4, 5});
  TransactionDB db(std::move(tx));
  const auto ref = reference(db, 0.6);

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  SonOptions opt;
  opt.min_support = 0.6;
  opt.num_mappers = 2;  // exactly the two halves
  const auto son = son_mine(ctx, fs, db, opt);
  EXPECT_TRUE(son.run.itemsets.same_itemsets(ref));
  EXPECT_GT(son.false_candidates, 0u);  // {1,2,3} et al. die globally
}

TEST(Son, EmptyDatabase) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  const auto son = son_mine(ctx, fs, TransactionDB(), SonOptions{});
  EXPECT_EQ(son.run.itemsets.total(), 0u);
}

TEST(Son, LocalThresholdRoundsUpNotDown) {
  // Each of the two contiguous splits holds 5 transactions: 2 x {1,2} and
  // 3 x {1}. At MinSup 0.5 the local threshold is ceil(0.5 * 5) = 3
  // (min_count_ceil, fim/dataset.h); a floor would be 2 and admit {2} and
  // {1,2} (local count 2) into the candidate union. The result stays
  // correct either way -- Job 2 filters them -- but the pinned ceil keeps
  // the union minimal: exactly the one true itemset {1}.
  std::vector<Transaction> tx;
  for (int half = 0; half < 2; ++half) {
    tx.push_back({1, 2});
    tx.push_back({1, 2});
    tx.push_back({1});
    tx.push_back({1});
    tx.push_back({1});
  }
  TransactionDB db(std::move(tx));
  const auto ref = reference(db, 0.5);  // just {1}: sup 10

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  SonOptions opt;
  opt.min_support = 0.5;
  opt.num_mappers = 2;  // exactly the two 5-transaction splits
  const auto son = son_mine(ctx, fs, db, opt);
  EXPECT_TRUE(son.run.itemsets.same_itemsets(ref));
  EXPECT_EQ(son.candidate_union, 1u);
  EXPECT_EQ(son.false_candidates, 0u);
}

// ---------------- Dist-Eclat --------------------------------------------

TEST(DistEclat, ExactOnRandomData) {
  const auto db = random_db(16, 300, 0.6, 3);
  const auto ref = reference(db, 0.2);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  DistEclatOptions opt;
  opt.min_support = 0.2;
  const auto de = dist_eclat_mine(ctx, fs, db, opt);
  EXPECT_TRUE(de.run.itemsets.same_itemsets(ref));
  EXPECT_GT(de.seed_prefixes, 0u);
  EXPECT_GT(de.vertical_bytes, 0u);
}

TEST(DistEclat, PrefixDepthSweepAllExact) {
  const auto db = random_db(12, 250, 0.45, 4);
  const auto ref = reference(db, 0.25);
  for (u32 depth : {1u, 2u, 3u, 4u}) {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    DistEclatOptions opt;
    opt.min_support = 0.25;
    opt.prefix_depth = depth;
    const auto de = dist_eclat_mine(ctx, fs, db, opt);
    EXPECT_TRUE(de.run.itemsets.same_itemsets(ref)) << "depth " << depth;
  }
}

TEST(DistEclat, NoMapReduceJobOverheads) {
  const auto db = random_db(14, 200, 0.4, 5);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  DistEclatOptions opt;
  opt.min_support = 0.25;
  (void)dist_eclat_mine(ctx, fs, db, opt);
  for (const auto& stage : ctx.report().stages()) {
    EXPECT_NE(stage.kind, sim::StageKind::kMapPhase);
    EXPECT_NE(stage.kind, sim::StageKind::kReducePhase);
    EXPECT_DOUBLE_EQ(stage.fixed_overhead_s, 0.0);
  }
}

TEST(DistEclat, EmptyAndNothingFrequent) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  EXPECT_EQ(
      dist_eclat_mine(ctx, fs, TransactionDB(), DistEclatOptions{})
          .run.itemsets.total(),
      0u);

  TransactionDB db(std::vector<Transaction>{{1}, {2}, {3}, {4}});
  DistEclatOptions opt;
  opt.min_support = 0.9;
  const auto de = dist_eclat_mine(ctx, fs, db, opt);
  EXPECT_EQ(de.run.itemsets.total(), 0u);
  EXPECT_EQ(de.seed_prefixes, 0u);
}

// ---------------- BigFIM -------------------------------------------------

TEST(BigFim, ExactOnRandomData) {
  const auto db = random_db(16, 300, 0.6, 6);
  const auto ref = reference(db, 0.2);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  BigFimOptions opt;
  opt.min_support = 0.2;
  const auto bf = big_fim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(bf.run.itemsets.same_itemsets(ref));
  EXPECT_GT(bf.prefixes, 0u);
  EXPECT_GT(bf.tidlist_shuffle_bytes, 0u);
}

TEST(BigFim, SwitchLevelSweepAllExact) {
  const auto db = random_db(12, 250, 0.45, 7);
  const auto ref = reference(db, 0.25);
  for (u32 level : {1u, 2u, 3u, 4u}) {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    BigFimOptions opt;
    opt.min_support = 0.25;
    opt.switch_level = level;
    const auto bf = big_fim_mine(ctx, fs, db, opt);
    EXPECT_TRUE(bf.run.itemsets.same_itemsets(ref)) << "switch " << level;
  }
}

TEST(BigFim, JobCountIsSwitchLevelPlusOne) {
  const auto db = random_db(14, 250, 0.75, 8);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  BigFimOptions opt;
  opt.min_support = 0.25;
  opt.switch_level = 2;
  const auto bf = big_fim_mine(ctx, fs, db, opt);
  ASSERT_GE(bf.run.itemsets.max_k(), 4u);  // lattice deeper than the switch

  u32 startups = 0;
  for (const auto& stage : ctx.report().stages()) {
    if (stage.fixed_overhead_s > 0) ++startups;
  }
  EXPECT_EQ(startups, 3u);  // 2 Apriori levels + 1 depth-first job
}

TEST(BigFim, LatticeEndingBeforeSwitchIsHandled) {
  // Only singletons are frequent; switch_level 3 never gets prefixes.
  TransactionDB db(std::vector<Transaction>{
      {1, 2}, {1, 3}, {2, 4}, {3, 4}, {1, 4}, {2, 3}});
  const auto ref = reference(db, 0.5);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  BigFimOptions opt;
  opt.min_support = 0.5;
  opt.switch_level = 3;
  const auto bf = big_fim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(bf.run.itemsets.same_itemsets(ref));
  EXPECT_EQ(bf.prefixes, 0u);
}

TEST(MrApriori, MaxLevelsStopsEarly) {
  const auto db = random_db(14, 250, 0.45, 9);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  opt.min_support = 0.25;
  opt.max_levels = 2;
  const auto run = mr_apriori_mine(ctx, fs, db, opt);
  EXPECT_EQ(run.itemsets.max_k(), 2u);
  EXPECT_LE(run.passes.size(), 2u);
  // The truncated result must equal the reference truncated to 2 levels.
  const auto ref = reference(db, 0.25);
  for (u32 k = 1; k <= 2; ++k) {
    EXPECT_EQ(run.itemsets.level(k), ref.level(k));
  }
}

// ---------------- PFP ----------------------------------------------------

TEST(Pfp, ExactOnRandomData) {
  const auto db = random_db(16, 300, 0.6, 10);
  const auto ref = reference(db, 0.2);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  PfpOptions opt;
  opt.min_support = 0.2;
  const auto pfp = pfp_mine(ctx, fs, db, opt);
  EXPECT_TRUE(pfp.run.itemsets.same_itemsets(ref));
  EXPECT_GT(pfp.conditional_transactions, 0u);
}

TEST(Pfp, GroupCountSweepAllExact) {
  const auto db = random_db(12, 250, 0.5, 11);
  const auto ref = reference(db, 0.25);
  for (u32 groups : {1u, 2u, 5u, 32u, 100u}) {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    PfpOptions opt;
    opt.min_support = 0.25;
    opt.num_groups = groups;
    const auto pfp = pfp_mine(ctx, fs, db, opt);
    EXPECT_TRUE(pfp.run.itemsets.same_itemsets(ref)) << "groups=" << groups;
  }
}

TEST(Pfp, ConditionalTransactionsBoundedByGroupsTimesData) {
  const auto db = random_db(12, 200, 0.5, 12);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  PfpOptions opt;
  opt.min_support = 0.25;
  opt.num_groups = 4;
  const auto pfp = pfp_mine(ctx, fs, db, opt);
  EXPECT_LE(pfp.conditional_transactions, db.size() * 4);
  EXPECT_GE(pfp.conditional_transactions, db.size());  // >=1 group per tx
}

TEST(Pfp, NoCandidateGenerationNoJobStartups) {
  const auto db = random_db(14, 200, 0.7, 13);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  PfpOptions opt;
  opt.min_support = 0.25;
  const auto pfp = pfp_mine(ctx, fs, db, opt);
  EXPECT_EQ(pfp.run.passes.size(), 2u);  // count + mine, regardless of depth
  EXPECT_GE(pfp.run.itemsets.max_k(), 3u);
  for (const auto& stage : ctx.report().stages()) {
    EXPECT_DOUBLE_EQ(stage.fixed_overhead_s, 0.0);
  }
}

TEST(Pfp, EmptyAndNothingFrequent) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  EXPECT_EQ(pfp_mine(ctx, fs, TransactionDB(), PfpOptions{})
                .run.itemsets.total(),
            0u);
  TransactionDB db(std::vector<Transaction>{{1}, {2}, {3}, {4}});
  PfpOptions opt;
  opt.min_support = 0.9;
  EXPECT_EQ(pfp_mine(ctx, fs, db, opt).run.itemsets.total(), 0u);
}

// ---------------- cross-algorithm sweep ----------------------------------

class RelatedWorkSweep
    : public ::testing::TestWithParam<std::tuple<double, double, u32>> {};

TEST_P(RelatedWorkSweep, AllThreeMatchReference) {
  const auto [density, min_support, seed] = GetParam();
  const auto db = random_db(15, 150, density, 100 + seed);
  const auto ref = reference(db, min_support);

  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    SonOptions opt;
    opt.min_support = min_support;
    EXPECT_TRUE(son_mine(ctx, fs, db, opt).run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    DistEclatOptions opt;
    opt.min_support = min_support;
    EXPECT_TRUE(
        dist_eclat_mine(ctx, fs, db, opt).run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    BigFimOptions opt;
    opt.min_support = min_support;
    EXPECT_TRUE(
        big_fim_mine(ctx, fs, db, opt).run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    PfpOptions opt;
    opt.min_support = min_support;
    EXPECT_TRUE(pfp_mine(ctx, fs, db, opt).run.itemsets.same_itemsets(ref));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RelatedWorkSweep,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.7),
                       ::testing::Values(0.15, 0.35),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace yafim::fim
