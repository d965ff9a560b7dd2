#include "fim/spc_fpc_dpc.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "fim/hash_tree.h"
#include "fim/mr_encode.h"
#include "mapreduce/job.h"

namespace yafim::fim {

LinRun lin_mine(engine::Context& ctx, simfs::SimFS& fs,
                const std::string& input_path, const LinOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  mr::JobRunner runner(ctx, fs);
  LinRun lin;
  MiningRun& run = lin.run;

  const u64 num_transactions =
      TransactionDB::deserialize(fs.read(input_path)).size();
  if (num_transactions == 0) {
    run.itemsets = FrequentItemsets(1, 0);
    return lin;
  }
  const u64 min_count = min_count_ceil(options.min_support, num_transactions);
  run.itemsets = FrequentItemsets(min_count, num_transactions);

  // ---- Job 1: frequent items (identical in all three strategies) ------
  ctx.set_pass(1);
  auto result = runner.run(
      frequent_items_job("lin:job1", min_count, options.num_mappers,
                         options.num_reducers),
      input_path, options.work_dir + "/L1");
  lin.num_jobs = 1;

  std::vector<Itemset> frequent;
  for (const auto& [itemset, support] : result.output) {
    run.itemsets.add(itemset, support);
    frequent.push_back(itemset);
  }
  run.passes.push_back(
      PassStats{1, result.output.size(), result.output.size(), 0.0});

  /// How many levels the next job may batch, given the first level of the
  /// batch and the strategy.
  auto batch_limit = [&options](u32 first_level) -> u32 {
    switch (options.strategy) {
      case CombineStrategy::kSinglePass:
        return 1;
      case CombineStrategy::kFixedPasses:
        // Lin et al. run levels 2 (and 3) alone -- candidate counts peak
        // there -- and combine afterwards.
        return first_level <= 3 ? 1 : options.fixed_passes;
      case CombineStrategy::kDynamic:
        return 0xffffffffu;  // bounded by the candidate budget below
    }
    return 1;
  };

  // ---- Combined counting jobs -----------------------------------------
  for (u32 k = 2; !frequent.empty();) {
    // Build the batch of candidate levels [k, k + batch).
    std::vector<std::vector<Itemset>> batch_candidates;
    std::vector<Itemset> base = frequent;
    u64 total_candidates = 0;
    const u32 limit = batch_limit(k);
    for (u32 level = k; level - k < limit; ++level) {
      // Pre-generation guard: joining a large *unverified* level is a
      // combinatorial explosion (e.g. C2 = all pairs of L1 would join to
      // nearly C(|L1|, 3) triples). Generate speculative levels only from
      // bases already within budget.
      if (options.strategy == CombineStrategy::kDynamic &&
          !batch_candidates.empty() &&
          base.size() > options.dynamic_candidate_budget) {
        break;
      }
      std::vector<Itemset> candidates = apriori_gen(base, level);
      if (candidates.empty()) break;
      if (options.strategy == CombineStrategy::kDynamic &&
          !batch_candidates.empty() &&
          total_candidates + candidates.size() >
              options.dynamic_candidate_budget) {
        break;
      }
      total_candidates += candidates.size();
      base = candidates;  // next level generates from these candidates
      batch_candidates.push_back(std::move(candidates));
    }
    if (batch_candidates.empty()) break;
    const u32 levels_in_batch = static_cast<u32>(batch_candidates.size());

    ctx.set_pass(k);
    engine::work::Scope driver_scope;
    const CandidateTrees cand = build_candidate_trees(
        std::move(batch_candidates), options.branching, options.leaf_capacity);
    const std::vector<HashTree>& trees = *cand.trees;
    {
      sim::StageRecord gen;
      gen.label = "lin:ap_gen batch@" + std::to_string(k);
      gen.kind = sim::StageKind::kOverhead;
      gen.pass = k;
      gen.driver_work = driver_scope.measured();
      ctx.record(std::move(gen));
    }

    Spec job = counting_job<Spec>("lin:job@" + std::to_string(k), min_count,
                                  options.num_mappers, options.num_reducers);
    job.map_fn = [trees = cand.trees](const Transaction& t,
                                      mr::Emitter<Itemset, u64>& emit) {
      static thread_local HashTree::Probe probe;
      for (const HashTree& tree : *trees) {
        tree.for_each_contained(t, probe, [&](u32 ci) {
          emit.emit(tree.candidate(ci), 1);
        });
      }
    };
    job.distributed_cache_bytes = cand.bytes;

    result = runner.run(job, input_path,
                        options.work_dir + "/L" + std::to_string(k) + "-" +
                            std::to_string(k + levels_in_batch - 1));
    ++lin.num_jobs;

    // Split the mixed-size output back into levels.
    std::vector<std::vector<CountPair>> by_level(levels_in_batch);
    for (auto& [itemset, support] : result.output) {
      const u32 level = static_cast<u32>(itemset.size());
      YAFIM_CHECK(level >= k && level < k + levels_in_batch,
                  "reducer emitted an unexpected level");
      by_level[level - k].emplace_back(std::move(itemset), support);
    }
    for (u32 j = 0; j < levels_in_batch; ++j) {
      for (const auto& [itemset, support] : by_level[j]) {
        run.itemsets.add(itemset, support);
      }
      run.passes.push_back(
          PassStats{k + j, trees[j].size(), by_level[j].size(), 0.0});
      if (j > 0) {
        // Levels beyond the first were generated from unverified
        // candidates; count the overshoot.
        lin.speculative_candidates += trees[j].size() - by_level[j].size();
      }
    }

    frequent.clear();
    for (const auto& [itemset, support] : by_level[levels_in_batch - 1]) {
      frequent.push_back(itemset);
    }
    k += levels_in_batch;
  }

  ctx.set_pass(0);
  price_passes(ctx, first_stage, run);
  return lin;
}

LinRun lin_mine(engine::Context& ctx, simfs::SimFS& fs,
                const TransactionDB& db, const LinOptions& options) {
  const std::string path = "hdfs://staging/lin-input";
  fs.write(path, db.serialize());
  return lin_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
