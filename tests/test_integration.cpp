// End-to-end integration tests across the whole stack: generate a dataset,
// stage it on the simulated HDFS, mine it with every engine, compare, replay
// costs across cluster sizes, recover from faults, and produce rules --
// i.e. the paper's full pipeline in miniature.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "datagen/benchmarks.h"
#include "engine/rdd.h"
#include "fim/apriori_seq.h"
#include "fim/big_fim.h"
#include "fim/dist_eclat.h"
#include "fim/pfp.h"
#include "fim/son.h"
#include "fim/eclat.h"
#include "fim/fp_growth.h"
#include "fim/mr_apriori.h"
#include "fim/rules.h"
#include "fim/sampling.h"
#include "fim/spc_fpc_dpc.h"
#include "fim/yafim.h"

namespace yafim {
namespace {

engine::Context::Options paper_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::paper();
  opts.host_threads = 4;
  return opts;
}

TEST(Integration, FiveEnginesAgreeOnMushroom) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.25);
  const double sup = bench.paper_min_support;

  fim::AprioriOptions aopt;
  aopt.min_support = sup;
  const auto apriori = fim::apriori_mine(bench.db, aopt);
  const auto fp = fim::fp_growth_mine(bench.db, sup);
  const auto eclat = fim::eclat_mine(bench.db, sup);

  engine::Context ctx1(paper_cluster()), ctx2(paper_cluster());
  simfs::SimFS fs1(ctx1.cluster()), fs2(ctx2.cluster());
  fim::YafimOptions yopt;
  yopt.min_support = sup;
  const auto yafim_run = fim::yafim_mine(ctx1, fs1, bench.db, yopt);
  fim::MrAprioriOptions mopt;
  mopt.min_support = sup;
  const auto mr_run = fim::mr_apriori_mine(ctx2, fs2, bench.db, mopt);

  EXPECT_GT(apriori.itemsets.total(), 100u);
  EXPECT_TRUE(apriori.itemsets.same_itemsets(fp.itemsets));
  EXPECT_TRUE(apriori.itemsets.same_itemsets(eclat.itemsets));
  EXPECT_TRUE(apriori.itemsets.same_itemsets(yafim_run.itemsets));
  EXPECT_TRUE(apriori.itemsets.same_itemsets(mr_run.itemsets));
}

TEST(Integration, YafimBeatsMrByPaperMagnitude) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.25);
  // A calibrated performance ratio: pin injection off so retry backoffs
  // (which tax the many-small-task Spark side hardest) don't skew it when
  // the suite runs under the CI fault matrix.
  auto opts = paper_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx1(opts), ctx2(opts);
  simfs::SimFS fs1(ctx1.cluster()), fs2(ctx2.cluster());

  fim::YafimOptions yopt;
  yopt.min_support = bench.paper_min_support;
  const double yafim_s =
      fim::yafim_mine(ctx1, fs1, bench.db, yopt).total_seconds();
  fim::MrAprioriOptions mopt;
  mopt.min_support = bench.paper_min_support;
  const double mr_s =
      fim::mr_apriori_mine(ctx2, fs2, bench.db, mopt).total_seconds();

  const double speedup = mr_s / yafim_s;
  // Paper: ~18x average, ~21x on MushRoom. Allow a generous band around
  // the reproduction.
  EXPECT_GT(speedup, 8.0);
  EXPECT_LT(speedup, 80.0);
}

TEST(Integration, ReplayAcrossClusterSizesIsMonotone) {
  // The Fig. 5 methodology: record once, price under 4..12 nodes.
  const auto bench = datagen::make_mushroom(/*scale=*/0.25);
  engine::Context ctx(paper_cluster());
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = bench.paper_min_support;
  fim::yafim_mine(ctx, fs, bench.db, opt);

  double prev = 1e100;
  for (u32 nodes : {4u, 6u, 8u, 10u, 12u}) {
    const sim::CostModel model{sim::ClusterConfig::with_nodes(nodes)};
    const double t = ctx.report().total_seconds(model);
    EXPECT_LT(t, prev) << nodes << " nodes";
    prev = t;
  }
}

TEST(Integration, SizeupKeepsResultsAndGrowsTime) {
  // The Fig. 4 methodology: replicated data, fixed cluster.
  const auto bench = datagen::make_mushroom(/*scale=*/0.1);
  fim::YafimOptions opt;
  opt.min_support = bench.paper_min_support;

  double prev_seconds = 0.0;
  fim::FrequentItemsets first_sets;
  for (u32 times : {1u, 2u, 4u}) {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    const auto run =
        fim::yafim_mine(ctx, fs, bench.db.replicate(times), opt);
    if (times == 1) {
      first_sets = run.itemsets;
    } else {
      // Replication preserves relative supports: the same itemsets are
      // frequent, with absolute supports scaled by `times`.
      ASSERT_EQ(run.itemsets.total(), first_sets.total());
      for (const auto& [itemset, support] : first_sets.sorted()) {
        EXPECT_EQ(run.itemsets.support_of(itemset), support * times);
      }
    }
    EXPECT_GE(run.total_seconds(), prev_seconds);
    prev_seconds = run.total_seconds();
  }
}

TEST(Integration, FaultDuringMiningDoesNotChangeResults) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.1);
  // Baseline without faults.
  fim::FrequentItemsets clean;
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::YafimOptions opt;
    opt.min_support = bench.paper_min_support;
    clean = fim::yafim_mine(ctx, fs, bench.db, opt).itemsets;
  }
  // Mine the same data through a cached RDD, killing executors between
  // actions.
  engine::Context ctx(paper_cluster());
  auto transactions =
      ctx.parallelize(std::vector<fim::Transaction>(
                          bench.db.transactions().begin(),
                          bench.db.transactions().end()),
                      24)
          .map([](const fim::Transaction& t) { return t; });
  transactions.persist();
  (void)transactions.count();  // populate the cache

  ctx.fault_injector().kill_executor(3);
  ctx.fault_injector().kill_executor(7);

  // Recount item frequencies post-fault and compare with clean L1.
  auto counts =
      transactions
          .flat_map([](const fim::Transaction& t) { return t; })
          .map([](const fim::Item& i) {
            return std::pair<fim::Itemset, u64>(fim::Itemset{i}, 1);
          })
          .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0,
                         fim::ItemsetHash{})
          .collect_as_map<fim::ItemsetHash>();
  EXPECT_GT(ctx.fault_injector().recomputations(), 0u);
  for (const auto& [itemset, support] : clean.level(1)) {
    EXPECT_EQ(counts.at(itemset), support);
  }
}

TEST(Integration, MedicalPipelineProducesComorbidityRules) {
  datagen::MedicalParams params;
  params.num_cases = 4000;
  const auto data = datagen::generate_medical(params);

  engine::Context ctx(paper_cluster());
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = 0.03;
  const auto run = fim::yafim_mine(ctx, fs, data.db, opt);

  fim::RuleOptions ropt;
  ropt.min_confidence = 0.6;
  const auto rules = fim::generate_rules(run.itemsets, ropt);
  ASSERT_FALSE(rules.empty());

  // At least one high-confidence rule must relate codes of the most
  // prevalent comorbidity cluster.
  const auto& cluster = data.clusters[0];
  bool found = false;
  for (const auto& rule : rules) {
    if (rule.antecedent.size() == 1 && rule.consequent.size() == 1 &&
        fim::contains_all(cluster, rule.antecedent) &&
        fim::contains_all(cluster, rule.consequent)) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no intra-cluster rule among " << rules.size();
}

TEST(Integration, AllNineEnginesAgreeOnBenchmark) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.15);
  const double sup = bench.paper_min_support;
  fim::AprioriOptions ref_opt;
  ref_opt.min_support = sup;
  const auto ref = fim::apriori_mine(bench.db, ref_opt).itemsets;

  EXPECT_TRUE(fim::fp_growth_mine(bench.db, sup).itemsets.same_itemsets(ref));
  EXPECT_TRUE(fim::eclat_mine(bench.db, sup).itemsets.same_itemsets(ref));
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::YafimOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(
        fim::yafim_mine(ctx, fs, bench.db, opt).itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::MrAprioriOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(fim::mr_apriori_mine(ctx, fs, bench.db, opt)
                    .itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::SonOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(
        fim::son_mine(ctx, fs, bench.db, opt).run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::DistEclatOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(fim::dist_eclat_mine(ctx, fs, bench.db, opt)
                    .run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::BigFimOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(fim::big_fim_mine(ctx, fs, bench.db, opt)
                    .run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::PfpOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(
        fim::pfp_mine(ctx, fs, bench.db, opt).run.itemsets.same_itemsets(ref));
  }
}

TEST(Integration, CombiningStrategiesAgreeOnBenchmark) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.1);
  fim::FrequentItemsets reference;
  {
    fim::AprioriOptions opt;
    opt.min_support = bench.paper_min_support;
    reference = fim::apriori_mine(bench.db, opt).itemsets;
  }
  for (const auto strategy :
       {fim::CombineStrategy::kSinglePass, fim::CombineStrategy::kFixedPasses,
        fim::CombineStrategy::kDynamic}) {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::LinOptions opt;
    opt.min_support = bench.paper_min_support;
    opt.strategy = strategy;
    const auto lin = fim::lin_mine(ctx, fs, bench.db, opt);
    EXPECT_TRUE(lin.run.itemsets.same_itemsets(reference));
  }
}


// ---- Pricing pin -----------------------------------------------------
// Every parallel entry point prices its passes through fim::price_passes.
// These rows pin what each one reports on the same input -- setup seconds,
// every pass's (k, candidates, frequent, sim seconds) and the ordered
// stage labels -- so a change to the shared pricing, tree building or job
// layout that moves any miner's simulated clock fails here by name. The
// expected values were captured from the per-miner implementations the
// shared steps replaced; the three dense yafim rows were re-captured when
// pass 2 moved to the pair kernel and sum_arrays to sparse count blocks.

struct PinnedPass {
  u32 k;
  u64 candidates;
  u64 frequent;
  double sim_seconds;
};

struct PricingCase {
  const char* name;
  std::function<fim::MiningRun(engine::Context&, simfs::SimFS&,
                               const fim::TransactionDB&, double)>
      mine;
  double setup_seconds;
  std::vector<PinnedPass> passes;
  std::vector<std::string> stages;
};

template <typename Options>
Options with_support(double sup) {
  Options opt;
  opt.min_support = sup;
  return opt;
}

auto yafim_case(fim::CountMode mode, fim::BroadcastMode broadcast =
                                          fim::BroadcastMode::kAuto) {
  return [mode, broadcast](engine::Context& ctx, simfs::SimFS& fs,
                           const fim::TransactionDB& db, double sup) {
    auto opt = with_support<fim::YafimOptions>(sup);
    opt.count_mode = mode;
    opt.broadcast_mode = broadcast;
    return fim::yafim_mine(ctx, fs, db, opt);
  };
}

auto mr_apriori_case(fim::CountMode mode, fim::BroadcastMode broadcast =
                                          fim::BroadcastMode::kAuto) {
  return [mode, broadcast](engine::Context& ctx, simfs::SimFS& fs,
                           const fim::TransactionDB& db, double sup) {
    auto opt = with_support<fim::MrAprioriOptions>(sup);
    opt.count_mode = mode;
    opt.broadcast_mode = broadcast;
    return fim::mr_apriori_mine(ctx, fs, db, opt);
  };
}

auto lin_case(fim::CombineStrategy strategy) {
  return [strategy](engine::Context& ctx, simfs::SimFS& fs,
                    const fim::TransactionDB& db, double sup) {
    auto opt = with_support<fim::LinOptions>(sup);
    opt.strategy = strategy;
    return fim::lin_mine(ctx, fs, db, opt).run;
  };
}

fim::MiningRun sampling_run(engine::Context& ctx, simfs::SimFS& fs,
                            const fim::TransactionDB& db, double sup) {
  return fim::sampling_mine(ctx, fs, db,
                            with_support<fim::SamplingOptions>(sup))
      .run;
}

fim::MiningRun son_run(engine::Context& ctx, simfs::SimFS& fs,
                       const fim::TransactionDB& db, double sup) {
  return fim::son_mine(ctx, fs, db, with_support<fim::SonOptions>(sup)).run;
}

fim::MiningRun pfp_run(engine::Context& ctx, simfs::SimFS& fs,
                       const fim::TransactionDB& db, double sup) {
  return fim::pfp_mine(ctx, fs, db, with_support<fim::PfpOptions>(sup)).run;
}

fim::MiningRun dist_eclat_run(engine::Context& ctx, simfs::SimFS& fs,
                              const fim::TransactionDB& db, double sup) {
  return fim::dist_eclat_mine(ctx, fs, db,
                              with_support<fim::DistEclatOptions>(sup))
      .run;
}

fim::MiningRun big_fim_run(engine::Context& ctx, simfs::SimFS& fs,
                           const fim::TransactionDB& db, double sup) {
  return fim::big_fim_mine(ctx, fs, db, with_support<fim::BigFimOptions>(sup))
      .run;
}

class PricingPin : public ::testing::TestWithParam<PricingCase> {};

TEST_P(PricingPin, PassesAndStagesUnchanged) {
  const PricingCase& c = GetParam();
  const auto bench = datagen::make_mushroom(/*scale=*/0.1);
  auto opts = paper_cluster();
  opts.fault = engine::FaultProfile{};  // pricing must not see injection
  engine::Context ctx(opts);
  simfs::SimFS fs(ctx.cluster(), sim::CorruptionProfile{});
  const fim::MiningRun run =
      c.mine(ctx, fs, bench.db, bench.paper_min_support);

  EXPECT_DOUBLE_EQ(run.setup_seconds, c.setup_seconds);
  ASSERT_EQ(run.passes.size(), c.passes.size());
  for (size_t i = 0; i < c.passes.size(); ++i) {
    SCOPED_TRACE("pass row " + std::to_string(i));
    EXPECT_EQ(run.passes[i].k, c.passes[i].k);
    EXPECT_EQ(run.passes[i].candidates, c.passes[i].candidates);
    EXPECT_EQ(run.passes[i].frequent, c.passes[i].frequent);
    EXPECT_DOUBLE_EQ(run.passes[i].sim_seconds, c.passes[i].sim_seconds);
  }
  std::vector<std::string> labels;
  for (const sim::StageRecord& stage : ctx.report().stages()) {
    labels.push_back(stage.label);
  }
  EXPECT_EQ(labels, c.stages);
}

// clang-format off
INSTANTIATE_TEST_SUITE_P(
    Integration, PricingPin,
    ::testing::Values(
        PricingCase{
            "YafimItemsetKey",
            yafim_case(fim::CountMode::kItemsetKey),
            0.3341285384533401,
            {{1, 23, 23, 0.9522806044509293},
             {2, 253, 118, 0.957597888087293},
             {3, 313, 179, 0.9612382817236566},
             {4, 243, 227, 0.9610474317236565},
             {5, 254, 241, 0.9609701480872929},
             {6, 168, 164, 0.9579011589963838},
             {7, 59, 55, 0.9539974244509294},
             {8, 9, 9, 0.9518377353600203},
             {9, 1, 1, 0.9514645726327475}},
            {"load:textFile+parse", "phase1:count:map-combine",
             "phase1:count:reduce", "phase1:collect",
             "pass2:ap_gen+buildHashTree", "pass2:count:map-combine",
             "pass2:count:reduce", "pass2:collect",
             "pass3:ap_gen+buildHashTree", "pass3:count:map-combine",
             "pass3:count:reduce", "pass3:collect",
             "pass4:ap_gen+buildHashTree", "pass4:count:map-combine",
             "pass4:count:reduce", "pass4:collect",
             "pass5:ap_gen+buildHashTree", "pass5:count:map-combine",
             "pass5:count:reduce", "pass5:collect",
             "pass6:ap_gen+buildHashTree", "pass6:count:map-combine",
             "pass6:count:reduce", "pass6:collect",
             "pass7:ap_gen+buildHashTree", "pass7:count:map-combine",
             "pass7:count:reduce", "pass7:collect",
             "pass8:ap_gen+buildHashTree", "pass8:count:map-combine",
             "pass8:count:reduce", "pass8:collect",
             "pass9:ap_gen+buildHashTree", "pass9:count:map-combine",
             "pass9:count:reduce", "pass9:collect"}},
        PricingCase{
            "YafimCandidateId",
            yafim_case(fim::CountMode::kCandidateId),
            0.3341285384533401,
            {{1, 23, 23, 0.9522806044509293},
             {2, 253, 118, 0.6363771925127407},
             {3, 313, 179, 0.6369937552400134},
             {4, 243, 227, 0.6367065438763772},
             {5, 254, 241, 0.6367593175127406},
             {6, 168, 164, 0.6361216334218317},
             {7, 59, 55, 0.5426742905531339},
             {8, 9, 9, 0.542127867825861},
             {9, 1, 1, 0.4624003501582286}},
            {"load:textFile+parse", "phase1:count:map-combine",
             "phase1:count:reduce", "phase1:collect",
             "pass2:ap_gen+buildHashTree", "pass2:count:map-combine",
             "pass2:count:reduce", "pass2:materialize",
             "pass3:ap_gen+buildHashTree", "pass3:count:map-combine",
             "pass3:count:reduce", "pass3:materialize",
             "pass4:ap_gen+buildHashTree", "pass4:count:map-combine",
             "pass4:count:reduce", "pass4:materialize",
             "pass5:ap_gen+buildHashTree", "pass5:count:map-combine",
             "pass5:count:reduce", "pass5:materialize",
             "pass6:ap_gen+buildHashTree", "pass6:count:map-combine",
             "pass6:count:reduce", "pass6:materialize",
             "pass7:ap_gen+buildHashTree", "pass7:count:map-combine",
             "pass7:count:reduce", "pass7:materialize",
             "pass8:ap_gen+buildHashTree", "pass8:count:map-combine",
             "pass8:count:reduce", "pass8:materialize",
             "pass9:ap_gen+buildHashTree", "pass9:count:map-combine",
             "pass9:count:reduce", "pass9:materialize"}},
        PricingCase{
            "YafimPartitioned",
            yafim_case(fim::CountMode::kCandidateId,
                       fim::BroadcastMode::kPartitioned),
            0.3341285384533401,
            {{1, 23, 23, 0.9522806044509293},
             {2, 253, 118, 1.2772823225327161},
             {3, 313, 179, 1.2768513588963524},
             {4, 243, 227, 1.2792354442204454},
             {5, 254, 241, 1.2791096958113544},
             {6, 168, 164, 1.2759212486690799},
             {7, 59, 55, 1.18110549306303},
             {8, 9, 9, 1.1788578692022382},
             {9, 1, 1, 1.099014377443697}},
            {"load:textFile+parse", "phase1:count:map-combine",
             "phase1:count:reduce", "phase1:collect",
             "pass2:ap_gen+buildHashTree", "pass2:shard-trees",
             "pass2:route:map", "pass2:route:reduce",
             "pass2:count:map-combine", "pass2:count:reduce",
             "pass2:materialize", "pass3:ap_gen+buildHashTree",
             "pass3:shard-trees", "pass3:route:map", "pass3:route:reduce",
             "pass3:count:map-combine", "pass3:count:reduce",
             "pass3:materialize", "pass4:ap_gen+buildHashTree",
             "pass4:shard-trees", "pass4:route:map", "pass4:route:reduce",
             "pass4:count:map-combine", "pass4:count:reduce",
             "pass4:materialize", "pass5:ap_gen+buildHashTree",
             "pass5:shard-trees", "pass5:route:map", "pass5:route:reduce",
             "pass5:count:map-combine", "pass5:count:reduce",
             "pass5:materialize", "pass6:ap_gen+buildHashTree",
             "pass6:shard-trees", "pass6:route:map", "pass6:route:reduce",
             "pass6:count:map-combine", "pass6:count:reduce",
             "pass6:materialize", "pass7:ap_gen+buildHashTree",
             "pass7:shard-trees", "pass7:route:map", "pass7:route:reduce",
             "pass7:count:map-combine", "pass7:count:reduce",
             "pass7:materialize", "pass8:ap_gen+buildHashTree",
             "pass8:shard-trees", "pass8:route:map", "pass8:route:reduce",
             "pass8:count:map-combine", "pass8:count:reduce",
             "pass8:materialize", "pass9:ap_gen+buildHashTree",
             "pass9:shard-trees", "pass9:route:map", "pass9:route:reduce",
             "pass9:count:map-combine", "pass9:count:reduce",
             "pass9:materialize"}},
        PricingCase{
            "MrAprioriItemsetKey",
            mr_apriori_case(fim::CountMode::kItemsetKey),
            0.0,
            {{1, 23, 23, 22.240777471920573},
             {2, 253, 118, 22.249247575556936},
             {3, 313, 179, 22.254368495859968},
             {4, 243, 227, 22.252168792526632},
             {5, 254, 241, 22.253675480300416},
             {6, 168, 164, 22.249163513132693},
             {7, 59, 55, 22.243053465253908},
             {8, 9, 9, 22.239991056162996},
             {9, 1, 1, 22.23956108676906}},
            {"mrapriori:job1:startup", "mrapriori:job1:map",
             "mrapriori:job1:reduce", "mrapriori:driver read L1",
             "mrapriori:ap_gen L2", "mrapriori:job2:startup",
             "mrapriori:job2:map", "mrapriori:job2:reduce",
             "mrapriori:driver read L2", "mrapriori:ap_gen L3",
             "mrapriori:job3:startup", "mrapriori:job3:map",
             "mrapriori:job3:reduce", "mrapriori:driver read L3",
             "mrapriori:ap_gen L4", "mrapriori:job4:startup",
             "mrapriori:job4:map", "mrapriori:job4:reduce",
             "mrapriori:driver read L4", "mrapriori:ap_gen L5",
             "mrapriori:job5:startup", "mrapriori:job5:map",
             "mrapriori:job5:reduce", "mrapriori:driver read L5",
             "mrapriori:ap_gen L6", "mrapriori:job6:startup",
             "mrapriori:job6:map", "mrapriori:job6:reduce",
             "mrapriori:driver read L6", "mrapriori:ap_gen L7",
             "mrapriori:job7:startup", "mrapriori:job7:map",
             "mrapriori:job7:reduce", "mrapriori:driver read L7",
             "mrapriori:ap_gen L8", "mrapriori:job8:startup",
             "mrapriori:job8:map", "mrapriori:job8:reduce",
             "mrapriori:driver read L8", "mrapriori:ap_gen L9",
             "mrapriori:job9:startup", "mrapriori:job9:map",
             "mrapriori:job9:reduce", "mrapriori:driver read L9"}},
        PricingCase{
            "MrAprioriCandidateId",
            mr_apriori_case(fim::CountMode::kCandidateId),
            0.0,
            {{1, 23, 23, 22.240777471920573},
             {2, 253, 118, 22.246542584845873},
             {3, 313, 179, 22.248288550405423},
             {4, 243, 227, 22.246846875451933},
             {5, 254, 241, 22.247557269391326},
             {6, 168, 164, 22.245311368587238},
             {7, 59, 55, 22.242193605253906},
             {8, 9, 9, 22.24008803070845},
             {9, 1, 1, 22.23971804131451}},
            {"mrapriori:job1:startup", "mrapriori:job1:map",
             "mrapriori:job1:reduce", "mrapriori:driver read L1",
             "mrapriori:ap_gen L2", "mrapriori:job2:startup",
             "mrapriori:job2:map", "mrapriori:job2:reduce",
             "mrapriori:driver read L2", "mrapriori:ap_gen L3",
             "mrapriori:job3:startup", "mrapriori:job3:map",
             "mrapriori:job3:reduce", "mrapriori:driver read L3",
             "mrapriori:ap_gen L4", "mrapriori:job4:startup",
             "mrapriori:job4:map", "mrapriori:job4:reduce",
             "mrapriori:driver read L4", "mrapriori:ap_gen L5",
             "mrapriori:job5:startup", "mrapriori:job5:map",
             "mrapriori:job5:reduce", "mrapriori:driver read L5",
             "mrapriori:ap_gen L6", "mrapriori:job6:startup",
             "mrapriori:job6:map", "mrapriori:job6:reduce",
             "mrapriori:driver read L6", "mrapriori:ap_gen L7",
             "mrapriori:job7:startup", "mrapriori:job7:map",
             "mrapriori:job7:reduce", "mrapriori:driver read L7",
             "mrapriori:ap_gen L8", "mrapriori:job8:startup",
             "mrapriori:job8:map", "mrapriori:job8:reduce",
             "mrapriori:driver read L8", "mrapriori:ap_gen L9",
             "mrapriori:job9:startup", "mrapriori:job9:map",
             "mrapriori:job9:reduce", "mrapriori:driver read L9"}},
        PricingCase{
            "MrAprioriPartitioned",
            mr_apriori_case(fim::CountMode::kCandidateId,
                            fim::BroadcastMode::kPartitioned),
            0.0,
            {{1, 23, 23, 22.240777471920573},
             {2, 253, 118, 44.48562499656842},
             {3, 313, 179, 44.488190634645235},
             {4, 243, 227, 44.48664967676643},
             {5, 254, 241, 44.48745957070584},
             {6, 168, 164, 44.48507466990175},
             {7, 59, 55, 22.24222311192057},
             {8, 9, 9, 22.240092530708452},
             {9, 1, 1, 22.23971854131451}},
            {"mrapriori:job1:startup", "mrapriori:job1:map",
             "mrapriori:job1:reduce", "mrapriori:driver read L1",
             "mrapriori:ap_gen L2", "mrapriori:job2:shard-candidates",
             "mrapriori:job2:shard0:startup", "mrapriori:job2:shard0:map",
             "mrapriori:job2:shard0:reduce", "mrapriori:job2:shard1:startup",
             "mrapriori:job2:shard1:map", "mrapriori:job2:shard1:reduce",
             "mrapriori:driver read L2", "mrapriori:ap_gen L3",
             "mrapriori:job3:shard-candidates",
             "mrapriori:job3:shard0:startup", "mrapriori:job3:shard0:map",
             "mrapriori:job3:shard0:reduce", "mrapriori:job3:shard1:startup",
             "mrapriori:job3:shard1:map", "mrapriori:job3:shard1:reduce",
             "mrapriori:driver read L3", "mrapriori:ap_gen L4",
             "mrapriori:job4:shard-candidates",
             "mrapriori:job4:shard0:startup", "mrapriori:job4:shard0:map",
             "mrapriori:job4:shard0:reduce", "mrapriori:job4:shard1:startup",
             "mrapriori:job4:shard1:map", "mrapriori:job4:shard1:reduce",
             "mrapriori:driver read L4", "mrapriori:ap_gen L5",
             "mrapriori:job5:shard-candidates",
             "mrapriori:job5:shard0:startup", "mrapriori:job5:shard0:map",
             "mrapriori:job5:shard0:reduce", "mrapriori:job5:shard1:startup",
             "mrapriori:job5:shard1:map", "mrapriori:job5:shard1:reduce",
             "mrapriori:driver read L5", "mrapriori:ap_gen L6",
             "mrapriori:job6:shard-candidates",
             "mrapriori:job6:shard0:startup", "mrapriori:job6:shard0:map",
             "mrapriori:job6:shard0:reduce", "mrapriori:job6:shard1:startup",
             "mrapriori:job6:shard1:map", "mrapriori:job6:shard1:reduce",
             "mrapriori:driver read L6", "mrapriori:ap_gen L7",
             "mrapriori:job7:shard-candidates",
             "mrapriori:job7:shard0:startup", "mrapriori:job7:shard0:map",
             "mrapriori:job7:shard0:reduce", "mrapriori:driver read L7",
             "mrapriori:ap_gen L8", "mrapriori:job8:shard-candidates",
             "mrapriori:job8:shard0:startup", "mrapriori:job8:shard0:map",
             "mrapriori:job8:shard0:reduce", "mrapriori:driver read L8",
             "mrapriori:ap_gen L9", "mrapriori:job9:shard-candidates",
             "mrapriori:job9:shard0:startup", "mrapriori:job9:shard0:map",
             "mrapriori:job9:shard0:reduce", "mrapriori:driver read L9"}},
        PricingCase{
            "Sampling",
            sampling_run,
            0.34346653845334013,
            {{1, 21243, 1017, 1.7225533718107529},
             {2, 23492, 1017, 1.4118358531000785}},
            {"load:textFile+parse", "twophase:universe", "twophase:gather:map",
             "twophase:gather:reduce", "twophase:local-mine",
             "twophase:union+buildHashTree", "verify:count:map-combine",
             "verify:count:reduce", "verify:collect"}},
        PricingCase{
            "Son",
            son_run,
            0.0,
            {{1, 262505, 1017, 22.570278123817065},
             {2, 262505, 1017, 30.618347397530343}},
            {"son:local-mining:startup", "son:local-mining:map",
             "son:local-mining:reduce", "son:driver read candidates",
             "son:build hash trees", "son:global-count:startup",
             "son:global-count:map", "son:global-count:reduce"}},
        PricingCase{
            "LinSpc",
            lin_case(fim::CombineStrategy::kSinglePass),
            0.0,
            {{1, 23, 23, 22.240777471920573},
             {2, 253, 118, 22.249120685556935},
             {3, 313, 179, 22.2533206291933},
             {4, 243, 227, 22.2511826091933},
             {5, 254, 241, 22.252716420300416},
             {6, 168, 164, 22.248370276466026},
             {7, 59, 55, 22.242637991920574},
             {8, 9, 9, 22.239899032829662},
             {9, 1, 1, 22.239551720102394}},
            {"lin:job1:startup", "lin:job1:map", "lin:job1:reduce",
             "lin:ap_gen batch@2", "lin:job@2:startup", "lin:job@2:map",
             "lin:job@2:reduce", "lin:ap_gen batch@3", "lin:job@3:startup",
             "lin:job@3:map", "lin:job@3:reduce", "lin:ap_gen batch@4",
             "lin:job@4:startup", "lin:job@4:map", "lin:job@4:reduce",
             "lin:ap_gen batch@5", "lin:job@5:startup", "lin:job@5:map",
             "lin:job@5:reduce", "lin:ap_gen batch@6", "lin:job@6:startup",
             "lin:job@6:map", "lin:job@6:reduce", "lin:ap_gen batch@7",
             "lin:job@7:startup", "lin:job@7:map", "lin:job@7:reduce",
             "lin:ap_gen batch@8", "lin:job@8:startup", "lin:job@8:map",
             "lin:job@8:reduce", "lin:ap_gen batch@9", "lin:job@9:startup",
             "lin:job@9:map", "lin:job@9:reduce"}},
        PricingCase{
            "LinFpc",
            lin_case(fim::CombineStrategy::kFixedPasses),
            0.0,
            {{1, 23, 23, 22.240777471920573},
             {2, 253, 118, 22.249120685556935},
             {3, 313, 179, 22.2533206291933},
             {4, 243, 227, 22.275723620300415},
             {5, 259, 241, 0.0},
             {6, 210, 164, 0.0},
             {7, 59, 55, 22.24315642101148},
             {8, 10, 9, 0.0},
             {9, 1, 1, 0.0}},
            {"lin:job1:startup", "lin:job1:map", "lin:job1:reduce",
             "lin:ap_gen batch@2", "lin:job@2:startup", "lin:job@2:map",
             "lin:job@2:reduce", "lin:ap_gen batch@3", "lin:job@3:startup",
             "lin:job@3:map", "lin:job@3:reduce", "lin:ap_gen batch@4",
             "lin:job@4:startup", "lin:job@4:map", "lin:job@4:reduce",
             "lin:ap_gen batch@7", "lin:job@7:startup", "lin:job@7:map",
             "lin:job@7:reduce"}},
        PricingCase{
            "LinDpc",
            lin_case(fim::CombineStrategy::kDynamic),
            0.0,
            {{1, 23, 23, 22.240777471920573},
             {2, 253, 118, 22.589021646413027},
             {3, 1771, 179, 0.0},
             {4, 8855, 227, 0.0},
             {5, 254, 241, 22.273168361209507},
             {6, 210, 164, 0.0},
             {7, 120, 55, 0.0},
             {8, 45, 9, 0.0},
             {9, 10, 1, 0.0},
             {10, 1, 0, 0.0}},
            {"lin:job1:startup", "lin:job1:map", "lin:job1:reduce",
             "lin:ap_gen batch@2", "lin:job@2:startup", "lin:job@2:map",
             "lin:job@2:reduce", "lin:ap_gen batch@5", "lin:job@5:startup",
             "lin:job@5:map", "lin:job@5:reduce"}},
        PricingCase{
            "Pfp",
            pfp_run,
            0.3341285384533401,
            {{1, 119, 23, 0.9521939008145657},
             {2, 11233, 994, 0.7706145026602036}},
            {"pfp:load+parse", "pfp:count-items:map-combine",
             "pfp:count-items:reduce", "pfp:count-items:collect",
             "pfp:group-shuffle:map", "pfp:group-shuffle:reduce",
             "pfp:mine:collect"}},
        PricingCase{
            "DistEclat",
            dist_eclat_run,
            0.3341285384533401,
            {{1, 119, 23, 1.2694176550254817},
             {2, 39, 39, 0.3885595},
             {3, 876, 876, 0.2772730052939288}},
            {"disteclat:load+parse", "disteclat:tids:count",
             "disteclat:vertical:map", "disteclat:vertical:reduce",
             "disteclat:vertical:collect", "disteclat:seed-mining",
             "disteclat:subtrees:collect"}},
        PricingCase{
            "BigFim",
            big_fim_run,
            0.0,
            {{1, 23, 23, 22.240777471920573},
             {2, 253, 118, 22.246542584845873},
             {3, 118, 876, 22.338404845556937}},
            {"mrapriori:job1:startup", "mrapriori:job1:map",
             "mrapriori:job1:reduce", "mrapriori:driver read L1",
             "mrapriori:ap_gen L2", "mrapriori:job2:startup",
             "mrapriori:job2:map", "mrapriori:job2:reduce",
             "bigfim:build prefix tree", "bigfim:phase2:startup",
             "bigfim:phase2:map", "bigfim:phase2:reduce"}}),
    [](const ::testing::TestParamInfo<PricingCase>& info) {
      return std::string(info.param.name);
    });
// clang-format on

}  // namespace
}  // namespace yafim
