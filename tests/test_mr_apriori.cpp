// Tests for the MRApriori baseline: exactness and the per-iteration cost
// structure (job startup + repeated DFS reads) the paper attributes the
// MapReduce slowdown to.
#include <gtest/gtest.h>

#include <cmath>

#include "fim/apriori_seq.h"
#include "fim/mr_apriori.h"
#include "fim/mr_encode.h"
#include "fim/yafim.h"
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

// A relative support outside (0, 1] aborts in min_count_ceil for every
// miner. NaN and negative supports used to cast to a threshold no itemset
// reaches (0 itemsets), and 0 to one every itemset reaches.
TEST(MrAprioriDeathTest, RejectsOutOfRangeSupport) {
  const auto db = random_db(8, 20, 0.5, 3);
  for (const double sup : {std::nan(""), 0.0, 1.5}) {
    EXPECT_DEATH(
        {
          engine::Context ctx(small_cluster());
          simfs::SimFS fs(ctx.cluster());
          MrAprioriOptions opt;
          opt.min_support = sup;
          (void)mr_apriori_mine(ctx, fs, db, opt);
        },
        "relative support")
        << "min_support " << sup;
  }
}

TEST(MrApriori, MatchesSequentialApriori) {
  const auto db = random_db(16, 200, 0.35, 100);
  AprioriOptions sopt;
  sopt.min_support = 0.2;
  const auto seq = apriori_mine(db, sopt);

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  opt.min_support = 0.2;
  const auto run = mr_apriori_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(seq.itemsets));
}

TEST(MrApriori, EmptyDatabase) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  const auto run = mr_apriori_mine(ctx, fs, TransactionDB(), opt);
  EXPECT_EQ(run.itemsets.total(), 0u);
}

TEST(MrApriori, OneJobPerPass) {
  const auto db = random_db(14, 150, 0.4, 7);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  opt.min_support = 0.25;
  const auto run = mr_apriori_mine(ctx, fs, db, opt);

  // Count job startups in the report: one per completed pass.
  u32 startups = 0;
  for (const auto& stage : ctx.report().stages()) {
    if (stage.fixed_overhead_s > 0) ++startups;
  }
  EXPECT_EQ(startups, run.passes.size());
  // Each pass pays at least the job-startup overhead.
  for (const auto& pass : run.passes) {
    EXPECT_GE(pass.sim_seconds, ctx.cluster().mr_job_startup_s);
  }
}

TEST(MrApriori, ReReadsInputEveryJob) {
  const auto db = random_db(14, 150, 0.4, 7);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  opt.min_support = 0.25;
  const auto run = mr_apriori_mine(ctx, fs, db, opt);

  const u64 input_bytes = db.serialize().size();
  // Every pass reads the transaction input afresh (plus small L(k-1)
  // read-backs), unlike YAFIM's single load.
  EXPECT_GE(ctx.report().total_dfs_read_bytes(),
            input_bytes * run.passes.size());
}

TEST(MrApriori, WritesFrequentItemsetsToDfs) {
  const auto db = random_db(14, 150, 0.4, 7);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  opt.min_support = 0.25;
  const auto run = mr_apriori_mine(ctx, fs, db, opt);

  const auto outputs = fs.list(opt.work_dir + "/");
  EXPECT_EQ(outputs.size(), run.passes.size());
  // The L1 file round-trips to the frequent 1-itemsets.
  const auto l1 = decode_counts(fs.read(opt.work_dir + "/L1"));
  EXPECT_EQ(l1.size(), run.itemsets.level(1).size());
  for (const auto& [itemset, support] : l1) {
    EXPECT_EQ(run.itemsets.support_of(itemset), support);
  }
}

TEST(MrApriori, SlowerThanYafimOnSameWorkload) {
  const auto db = random_db(14, 300, 0.4, 21);
  double yafim_s = 0, mr_s = 0;
  FrequentItemsets yafim_sets, mr_sets;
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.25;
    const auto run = yafim_mine(ctx, fs, db, opt);
    yafim_s = run.total_seconds();
    yafim_sets = run.itemsets;
  }
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    MrAprioriOptions opt;
    opt.min_support = 0.25;
    const auto run = mr_apriori_mine(ctx, fs, db, opt);
    mr_s = run.total_seconds();
    mr_sets = run.itemsets;
  }
  // "All the experimental results of YAFIM are exactly same as MRApriori."
  EXPECT_TRUE(yafim_sets.same_itemsets(mr_sets));
  // And the headline: an order of magnitude apart on iteration overheads.
  EXPECT_GT(mr_s, 5.0 * yafim_s);
}

TEST(MrApriori, ExplicitTaskCounts) {
  const auto db = random_db(12, 100, 0.5, 23);
  // Exact stage shapes: pin injection off (speculative copies add task
  // records), so this holds under the CI fault matrix too.
  auto opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  opt.min_support = 0.3;
  opt.num_mappers = 5;
  opt.num_reducers = 2;
  const auto run = mr_apriori_mine(ctx, fs, db, opt);
  EXPECT_GT(run.itemsets.total(), 0u);
  for (const auto& stage : ctx.report().stages()) {
    if (stage.kind == sim::StageKind::kMapPhase) {
      EXPECT_EQ(stage.tasks.size(), 5u);
    }
    if (stage.kind == sim::StageKind::kReducePhase) {
      EXPECT_EQ(stage.tasks.size(), 2u);
    }
  }
}

/// Parameterised exactness sweep (mirrors YafimSweep).
class MrAprioriSweep
    : public ::testing::TestWithParam<std::tuple<double, double, u32>> {};

TEST_P(MrAprioriSweep, AlwaysMatchesReference) {
  const auto [density, min_support, seed] = GetParam();
  const auto db = random_db(15, 120, density, seed);
  AprioriOptions sopt;
  sopt.min_support = min_support;
  const auto seq = apriori_mine(db, sopt);

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  opt.min_support = min_support;
  const auto run = mr_apriori_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(seq.itemsets));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MrAprioriSweep,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.75),
                       ::testing::Values(0.1, 0.3, 0.55),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace yafim::fim
