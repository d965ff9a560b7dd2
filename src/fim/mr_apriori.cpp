#include "fim/mr_apriori.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "fim/hash_tree.h"
#include "fim/mr_encode.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/stopwatch.h"

namespace yafim::fim {

MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const std::string& input_path,
                          const MrAprioriOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  // MapReduce shuffles spill through the same path as Spark stages when
  // their buffers exceed the shuffle-buffer budget (mapreduce/job.h).
  ctx.set_spill_fs(&fs);
  mr::JobRunner runner(ctx, fs);

  // Driver-side setup knowledge: |D| for the absolute threshold. (In
  // PApriori the driver knows the dataset size a priori; not charged.)
  const std::vector<u8> raw = fs.read(input_path);
  const u64 num_transactions = TransactionDB::deserialize(raw).size();
  MiningRun run;
  if (num_transactions == 0) {
    run.itemsets = FrequentItemsets(1, 0);
    return run;
  }
  const u64 min_count = min_count_ceil(options.min_support, num_transactions);
  run.itemsets = FrequentItemsets(min_count, num_transactions);

  // Checkpoint/resume (same contract as yafim.cpp): snapshots are bound to
  // this exact dataset + configuration via the fingerprint. MRApriori also
  // persists prev_output_bytes (in aux) -- the driver's L(k-1) read-back
  // cost on the first resumed job must match the uninterrupted run.
  u64 fingerprint = 0;
  std::optional<CheckpointState> restored;
  if (options.checkpoint) {
    // count_mode and broadcast_mode folded in for the same reason as
    // yafim.cpp: the modes price the k >= 2 jobs differently, so
    // snapshots must not mix.
    fingerprint = checkpoint_fingerprint(
        "mrapriori", xxh64(raw.data(), raw.size()), min_count,
        options.max_levels +
            (u64{static_cast<u32>(options.count_mode)} << 32) +
            (u64{static_cast<u32>(options.broadcast_mode)} << 36));
    restored = load_latest_snapshot(*options.checkpoint, fingerprint);
  }
  u64 prev_output_bytes = 0;
  auto maybe_checkpoint = [&](u32 completed_pass,
                              const std::vector<Itemset>& frontier) {
    if (!options.checkpoint) return;
    price_passes(ctx, first_stage, run);
    CheckpointState state;
    state.fingerprint = fingerprint;
    state.pass = completed_pass;
    state.num_transactions = num_transactions;
    state.min_support_count = min_count;
    state.setup_seconds = run.setup_seconds;
    state.aux = prev_output_bytes;
    state.passes = run.passes;
    state.itemsets = run.itemsets;
    state.frontier = frontier;
    save_snapshot(*options.checkpoint, state);
  };

  // ---- Job 1: frequent items ------------------------------------------
  std::vector<Itemset> frequent;
  u32 last_completed = 1;
  if (restored) {
    run.resumed_pass = restored->pass;
    run.passes = std::move(restored->passes);
    run.itemsets = std::move(restored->itemsets);
    frequent = std::move(restored->frontier);
    prev_output_bytes = restored->aux;
    last_completed = restored->pass;
    obs::count(obs::CounterId::kCheckpointPassesSkipped, restored->pass);
  } else {
    ctx.set_pass(1);
    auto result = runner.run(
        frequent_items_job("mrapriori:job1", min_count, options.num_mappers,
                           options.num_reducers),
        input_path, options.work_dir + "/L1");
    frequent.reserve(result.output.size());
    for (const auto& [itemset, support] : result.output) {
      run.itemsets.add(itemset, support);
      frequent.push_back(itemset);
    }
    run.passes.push_back(
        PassStats{1, result.output.size(), result.output.size(), 0.0});
    prev_output_bytes = result.output_bytes;
    maybe_checkpoint(1, frequent);
  }

  // ---- Jobs k >= 2 ------------------------------------------------------
  for (u32 k = last_completed + 1;
       !frequent.empty() && (options.max_levels == 0 || k <= options.max_levels);
       ++k) {
    if (options.stop_after_pass && last_completed >= options.stop_after_pass) {
      break;  // simulated crash: the last snapshot is the recovery point
    }
    ctx.set_pass(k);

    // The driver reads L(k-1) back from HDFS to generate candidates.
    {
      sim::StageRecord read_back;
      read_back.label = "mrapriori:driver read L" + std::to_string(k - 1);
      read_back.kind = sim::StageKind::kOverhead;
      read_back.pass = k;
      read_back.dfs_read_bytes = prev_output_bytes;
      ctx.record(std::move(read_back));
    }

    engine::work::Scope driver_scope;
    std::vector<Itemset> candidates = apriori_gen(frequent, k);
    if (candidates.empty()) break;
    auto tree = std::make_shared<const HashTree>(
        std::move(candidates), options.branching, options.leaf_capacity);
    {
      sim::StageRecord gen;
      gen.label = "mrapriori:ap_gen L" + std::to_string(k);
      gen.kind = sim::StageKind::kOverhead;
      gen.pass = k;
      gen.driver_work = driver_scope.measured();
      ctx.record(std::move(gen));
    }

    const u64 num_candidates = tree->size();
    const std::string job_name = "mrapriori:job" + std::to_string(k);
    const std::string out_path = options.work_dir + "/L" + std::to_string(k);
    const bool use_hash_tree = options.use_hash_tree;

    // One counting job over `t`'s candidates -- the full tree, or one
    // shard of it under the partitioned fallback; `t` travels to the
    // mappers via the distributed cache either way.
    auto run_level_job = [&](std::shared_ptr<const HashTree> t,
                             const std::string& name,
                             const std::string& out) {
      if (options.count_mode == CountMode::kItemsetKey) {
        // Paper-faithful: mappers emit (itemset, 1) for every hit.
        Spec job = counting_job<Spec>(name, min_count, options.num_mappers,
                                      options.num_reducers);
        job.map_fn = [t, use_hash_tree](const Transaction& txn,
                                        mr::Emitter<Itemset, u64>& emit) {
          auto on_hit = [&](u32 ci) { emit.emit(t->candidate(ci), 1); };
          if (use_hash_tree) {
            static thread_local HashTree::Probe probe;
            t->for_each_contained(txn, probe, on_hit);
          } else {
            t->for_each_contained_linear(txn, on_hit);
          }
        };
        // Candidate hash tree travels to every node via the distributed
        // cache.
        job.distributed_cache_bytes = t->serialized_bytes();
        return runner.run(job, input_path, out);
      }
      // Dense: mappers emit candidate ids; reducers sum, threshold, and map
      // survivors back to itemsets through their copy of the tree (already
      // localized via the distributed cache).
      IdSpec job = counting_job<IdSpec>(
          name, min_count, options.num_mappers, options.num_reducers,
          [t](u32 ci) { return t->candidate(ci); });
      // Each map split counts into one candidate-id array through the
      // dense per-split kernel (fim/count_core.h) and emits its nonzero
      // cells; the pair index travels with the tree.
      const std::span<const HashTree> trees(t.get(), 1);
      job.map_partition_fn = [t, trees, use_hash_tree](
                                 std::span<const Transaction> split,
                                 mr::Emitter<u32, u64>& emit) {
        std::vector<u64> cells(t->size(), 0);
        count_split(split, trees, use_hash_tree, cells.data());
        for (u32 ci = 0; ci < cells.size(); ++ci) {
          if (cells[ci] != 0) emit.emit(ci, cells[ci]);
        }
      };
      job.distributed_cache_bytes =
          t->serialized_bytes() + pair_index_bytes(trees, use_hash_tree);
      return runner.run(job, input_path, out);
    };

    // Broadcast ceiling (engine/memory.h): when the tree would not fit
    // next to what the ledger places on the tightest executor, count this
    // level as one sub-job per candidate shard, each localizing only its
    // shard's tree -- at the honest MapReduce price of re-reading the
    // input per sub-job.
    const u64 tree_bytes = tree->serialized_bytes();
    const bool partitioned =
        use_partitioned_store(ctx, options.broadcast_mode, tree_bytes);
    Stopwatch count_clock;
    mr::JobResult<CountPair> result;
    if (partitioned) {
      ctx.linter().note_broadcast_fallback(tree_bytes,
                                           job_name + ":distributed_cache");
      ctx.memory_budget().note_fallback(tree_bytes);
      // Grow the shard count until the largest shard fits the tightest
      // node (sharding keys on the first item, so a perfectly even split
      // is not guaranteed; the cap keeps a degenerate distribution from
      // looping forever -- an oversized shard then lints like any other
      // oversized localization).
      const u64 budget = ctx.memory_budget().min_node_budget();
      engine::work::Scope shard_scope;
      u32 nshards = std::max<u32>(
          2, budget != 0 ? static_cast<u32>(std::min<u64>(
                               1024, 2 * ceil_div(tree_bytes, budget)))
                         : std::max(1u, ctx.cluster().nodes));
      std::vector<TreeShard> shards;
      for (;;) {
        shards = shard_hash_tree(*tree, nshards, options.branching,
                                 options.leaf_capacity);
        if (budget == 0 || nshards >= 1024) break;
        u64 worst = 0;
        for (const TreeShard& s : shards) {
          worst = std::max(worst, s.tree.serialized_bytes());
        }
        if (worst <= budget) break;
        nshards = std::min<u32>(1024, nshards * 2);
      }
      {
        sim::StageRecord shard_stage;
        shard_stage.label = job_name + ":shard-candidates";
        shard_stage.kind = sim::StageKind::kOverhead;
        shard_stage.pass = k;
        shard_stage.driver_work = shard_scope.measured();
        ctx.record(std::move(shard_stage));
      }
      for (u32 s = 0; s < static_cast<u32>(shards.size()); ++s) {
        if (shards[s].tree.size() == 0) continue;
        auto shard_tree =
            std::make_shared<const HashTree>(std::move(shards[s].tree));
        auto r = run_level_job(shard_tree,
                               job_name + ":shard" + std::to_string(s),
                               out_path + "-shard" + std::to_string(s));
        result.map_tasks = r.map_tasks;
        result.reduce_tasks = r.reduce_tasks;
        result.input_bytes += r.input_bytes;
        result.shuffle_bytes += r.shuffle_bytes;
        result.output_bytes += r.output_bytes;
        result.output.insert(result.output.end(),
                             std::make_move_iterator(r.output.begin()),
                             std::make_move_iterator(r.output.end()));
      }
    } else {
      result = run_level_job(tree, job_name, out_path);
    }
    run.count_host_seconds += count_clock.seconds();
    frequent.clear();
    frequent.reserve(result.output.size());
    for (const auto& [itemset, support] : result.output) {
      run.itemsets.add(itemset, support);
      frequent.push_back(itemset);
    }
    run.passes.push_back(
        PassStats{k, num_candidates, result.output.size(), 0.0});
    prev_output_bytes = result.output_bytes;
    last_completed = k;
    maybe_checkpoint(k, frequent);
  }

  ctx.set_pass(0);
  price_passes(ctx, first_stage, run);
  return run;
}

MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const TransactionDB& db,
                          const MrAprioriOptions& options) {
  const std::string path = "hdfs://staging/mrapriori-input";
  fs.write(path, db.serialize());
  return mr_apriori_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
