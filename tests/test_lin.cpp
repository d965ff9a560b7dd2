// Tests for the SPC / FPC / DPC combining strategies (Lin et al.): all
// three must stay exact while trading job count against speculative
// candidate counting.
#include <gtest/gtest.h>

#include <cmath>

#include "fim/apriori_seq.h"
#include "fim/spc_fpc_dpc.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
  return opts;
}

TransactionDB deep_db(u64 seed) {
  // Two overlapping planted lattices: items 0-5 at 60% and items 4-9 at
  // 45%. Cross-lattice pairs land below the 40% threshold, so combined
  // jobs that generate candidates-from-candidates count speculative sets a
  // per-level run would have pruned.
  Rng rng(seed);
  std::vector<Transaction> tx;
  for (int i = 0; i < 300; ++i) {
    Transaction t;
    if (rng.bernoulli(0.6)) {
      for (u32 item = 0; item < 6; ++item) t.push_back(item);
    }
    if (rng.bernoulli(0.45)) {
      for (u32 item = 4; item < 10; ++item) t.push_back(item);
    }
    for (u32 item = 10; item < 18; ++item) {
      if (rng.bernoulli(0.2)) t.push_back(item);
    }
    if (t.empty()) t.push_back(10);
    fim::canonicalize(t);
    tx.push_back(std::move(t));
  }
  return TransactionDB(std::move(tx));
}

LinRun run_strategy(const TransactionDB& db, CombineStrategy strategy,
                    double min_support) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  LinOptions opt;
  opt.min_support = min_support;
  opt.strategy = strategy;
  return lin_mine(ctx, fs, db, opt);
}

// Out-of-range supports abort in min_count_ceil (see test_mr_apriori.cpp).
TEST(LinDeathTest, RejectsOutOfRangeSupport) {
  const auto db = deep_db(3);
  for (const double sup : {std::nan(""), 0.0, 1.5}) {
    EXPECT_DEATH((void)run_strategy(db, CombineStrategy::kSinglePass, sup),
                 "relative support")
        << "min_support " << sup;
  }
}

TEST(Lin, AllStrategiesExact) {
  const auto db = deep_db(1);
  AprioriOptions sopt;
  sopt.min_support = 0.4;
  const auto seq = apriori_mine(db, sopt);
  ASSERT_GE(seq.itemsets.max_k(), 5u);

  for (const auto strategy :
       {CombineStrategy::kSinglePass, CombineStrategy::kFixedPasses,
        CombineStrategy::kDynamic}) {
    const auto lin = run_strategy(db, strategy, 0.4);
    EXPECT_TRUE(lin.run.itemsets.same_itemsets(seq.itemsets))
        << "strategy=" << static_cast<int>(strategy)
        << " got=" << lin.run.itemsets.total()
        << " want=" << seq.itemsets.total();
  }
}

TEST(Lin, SpcRunsOneJobPerLevel) {
  const auto db = deep_db(2);
  const auto spc = run_strategy(db, CombineStrategy::kSinglePass, 0.4);
  EXPECT_EQ(spc.num_jobs, spc.run.itemsets.max_k());
  EXPECT_EQ(spc.speculative_candidates, 0u);
}

TEST(Lin, CombiningReducesJobCount) {
  const auto db = deep_db(3);
  const auto spc = run_strategy(db, CombineStrategy::kSinglePass, 0.4);
  const auto fpc = run_strategy(db, CombineStrategy::kFixedPasses, 0.4);
  const auto dpc = run_strategy(db, CombineStrategy::kDynamic, 0.4);
  EXPECT_LT(fpc.num_jobs, spc.num_jobs);
  EXPECT_LT(dpc.num_jobs, spc.num_jobs);
}

TEST(Lin, CombiningCountsSpeculativeCandidates) {
  const auto db = deep_db(4);
  const auto dpc = run_strategy(db, CombineStrategy::kDynamic, 0.4);
  // Candidates generated from unverified candidates include infrequent
  // ones that a per-level run would have pruned.
  EXPECT_GT(dpc.speculative_candidates, 0u);
}

TEST(Lin, CombiningSavesSimTimeWhenStartupDominates) {
  const auto db = deep_db(5);
  const auto spc = run_strategy(db, CombineStrategy::kSinglePass, 0.4);
  const auto dpc = run_strategy(db, CombineStrategy::kDynamic, 0.4);
  // Small dataset, deep lattice: job startup dominates, so fewer jobs win.
  EXPECT_LT(dpc.run.total_seconds(), spc.run.total_seconds());
}

TEST(Lin, DynamicBudgetLimitsBatch) {
  const auto db = deep_db(6);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  LinOptions opt;
  opt.min_support = 0.4;
  opt.strategy = CombineStrategy::kDynamic;
  opt.dynamic_candidate_budget = 1;  // degenerate: one level per batch
  const auto lin = lin_mine(ctx, fs, db, opt);
  EXPECT_EQ(lin.num_jobs, lin.run.itemsets.max_k());
}

TEST(Lin, PassStatsCoverEveryLevel) {
  const auto db = deep_db(7);
  const auto fpc = run_strategy(db, CombineStrategy::kFixedPasses, 0.4);
  ASSERT_EQ(fpc.run.passes.size(), fpc.run.itemsets.max_k());
  for (size_t i = 0; i < fpc.run.passes.size(); ++i) {
    EXPECT_EQ(fpc.run.passes[i].k, i + 1);
    EXPECT_EQ(fpc.run.passes[i].frequent,
              fpc.run.itemsets.level(static_cast<u32>(i + 1)).size());
  }
}

TEST(Lin, EmptyDatabase) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  LinOptions opt;
  const auto lin = lin_mine(ctx, fs, TransactionDB(), opt);
  EXPECT_EQ(lin.run.itemsets.total(), 0u);
  EXPECT_EQ(lin.num_jobs, 0u);
}

/// Exactness sweep across strategies and thresholds.
class LinSweep : public ::testing::TestWithParam<
                     std::tuple<CombineStrategy, double, u32>> {};

TEST_P(LinSweep, MatchesReference) {
  const auto [strategy, min_support, seed] = GetParam();
  const auto db = deep_db(100 + seed);
  AprioriOptions sopt;
  sopt.min_support = min_support;
  const auto seq = apriori_mine(db, sopt);
  const auto lin = run_strategy(db, strategy, min_support);
  EXPECT_TRUE(lin.run.itemsets.same_itemsets(seq.itemsets));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinSweep,
    ::testing::Combine(::testing::Values(CombineStrategy::kSinglePass,
                                         CombineStrategy::kFixedPasses,
                                         CombineStrategy::kDynamic),
                       ::testing::Values(0.3, 0.5),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace yafim::fim
