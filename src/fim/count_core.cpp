#include "fim/count_core.h"

#include <algorithm>

#include "engine/broadcast.h"
#include "obs/metrics.h"
#include "sim/metrics.h"

namespace yafim::fim {

namespace {

/// Identity hash for shard ids, so shard s deterministically lands in
/// reduce partition s of the routing shuffle (shard -> executor placement).
struct ShardIdHash {
  size_t operator()(u32 shard) const { return shard; }
};

}  // namespace

CandidateTrees build_candidate_trees(std::vector<std::vector<Itemset>> levels,
                                     u32 branching, u32 leaf_capacity) {
  CandidateTrees out;
  out.trees = std::make_shared<std::vector<HashTree>>();
  for (auto& level : levels) {
    if (level.empty()) continue;
    out.trees->emplace_back(std::move(level), branching, leaf_capacity);
    out.bytes += out.trees->back().serialized_bytes();
  }
  out.id_space = HashTree::assign_id_offsets(*out.trees);
  return out;
}

bool use_partitioned_store(const engine::Context& ctx, BroadcastMode mode,
                           u64 tree_bytes) {
  return mode == BroadcastMode::kPartitioned ||
         (mode == BroadcastMode::kAuto &&
          !ctx.memory_budget().broadcast_fits(tree_bytes));
}

u64 pair_index_bytes(std::span<const HashTree> trees, bool use_hash_tree) {
  u64 bytes = 0;
  if (use_hash_tree) {
    for (const HashTree& tree : trees) {
      if (tree.pair_index()) bytes += tree.pair_index()->serialized_bytes();
    }
  }
  return bytes;
}

void count_split(std::span<const Transaction> split,
                 std::span<const HashTree> trees, bool use_hash_tree,
                 u64* cells) {
  std::optional<VerticalBitmapIndex> index;  // built on first need
  for (const HashTree& tree : trees) {
    u64* out = cells + tree.id_offset();
    if (!use_hash_tree) {
      for (const Transaction& t : split) {
        tree.for_each_contained_linear(t, [out](u32 ci) { ++out[ci]; });
      }
    } else if (const PairIndex* pairs = tree.pair_index()) {
      static thread_local std::vector<u32> ranks;
      for (const Transaction& t : split) pairs->count(t, ranks, out);
    } else {
      if (!index) index.emplace(split);
      index->count_candidates(tree, out);
    }
  }
}

std::vector<CountPair> count_candidate_trees(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const std::shared_ptr<std::vector<HashTree>>& trees, u64 tree_bytes,
    u64 id_space, std::optional<engine::RDD<VerticalBitmapIndex>>* /*unused*/,
    const CountCoreOptions& opt) {
  const bool use_hash_tree = opt.use_hash_tree;
  const u64 min_count = opt.min_count;
  const std::string& pass_name = opt.pass_name;
  const u32 pass = ctx.pass();

  std::vector<CountPair> level;
  if (!opt.partitioned && opt.count_mode == CountMode::kItemsetKey) {
    // Paper-faithful: every hit copies the itemset out of the tree and
    // the shuffle is keyed on it.
    auto broadcast_trees =
        ctx.broadcast(trees, tree_bytes, pass_name + ":trees");
    level =
        transactions
            .flat_map([broadcast_trees, use_hash_tree](const Transaction& t) {
              std::vector<Itemset> occurrences;
              for (const HashTree& tree : **broadcast_trees) {
                auto on_hit = [&](u32 ci) {
                  occurrences.push_back(tree.candidate(ci));
                };
                if (use_hash_tree) {
                  static thread_local HashTree::Probe probe;
                  tree.for_each_contained(t, probe, on_hit);
                } else {
                  tree.for_each_contained_linear(t, on_hit);
                }
              }
              return occurrences;
            })
            .map([](const Itemset& c) { return CountPair(c, 1); })
            .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0,
                           ItemsetHash{}, pass_name + ":count")
            .named(pass_name + ":counts")
            .filter([min_count](const CountPair& kv) {
              return kv.second >= min_count;
            })
            .named(pass_name + ":frequent")
            .collect(pass_name + ":collect");
    return level;
  }

  // Both dense paths count into one id-indexed array per partition, merge
  // the arrays element-wise across the shuffle, and materialize itemsets
  // from the driver-side trees only for MinSup survivors.
  std::vector<u64> counts;
  if (opt.partitioned) {
    // Partitioned candidate store: the trees are sharded by candidate
    // prefix and each shard is shipped to one executor group; transactions
    // are re-partitioned to the shards their viable prefix items reach.
    // Shard probes write the same batch-global dense cells a broadcast
    // probe would, so the merged counts -- and everything downstream -- are
    // bit-identical to the full path.
    ctx.linter().note_broadcast_fallback(tree_bytes, pass_name + ":trees");
    ctx.memory_budget().note_fallback(tree_bytes);
    const u32 nshards = std::max<u32>(
        1, opt.broadcast_shards ? opt.broadcast_shards
                                : ctx.default_partitions());
    engine::work::Scope shard_scope;
    auto store = std::make_shared<std::vector<std::vector<TreeShard>>>(nshards);
    u64 shard_bytes = 0;
    for (const HashTree& tree : *trees) {
      std::vector<TreeShard> shards =
          shard_hash_tree(tree, nshards, opt.branching, opt.leaf_capacity);
      for (u32 s = 0; s < nshards; ++s) {
        shard_bytes += shards[s].tree.serialized_bytes();
        (*store)[s].push_back(std::move(shards[s]));
      }
    }
    {
      // Each shard travels to one executor group instead of every node:
      // priced as a shuffle of the shard trees, not a broadcast.
      sim::StageRecord dist;
      dist.label = pass_name + ":shard-trees";
      dist.kind = sim::StageKind::kSparkStage;
      dist.pass = pass;
      dist.driver_work = shard_scope.measured();
      dist.shuffle_bytes = shard_bytes;
      ctx.record(std::move(dist));
      obs::count(obs::CounterId::kShardShuffleBytes, shard_bytes);
    }
    const u32 kmin = opt.kmin;  // smallest candidate size in this batch
    counts =
        transactions
            .flat_map([nshards, kmin](const Transaction& t) {
              // Any candidate c contained in t has its first item at some
              // t[i] with at least |c|-1 items after it; route t once to
              // each distinct shard of those prefix items.
              std::vector<std::pair<u32, Transaction>> out;
              if (t.size() >= kmin) {
                std::vector<u8> seen(nshards, 0);
                for (size_t i = 0; i + kmin <= t.size(); ++i) {
                  const u32 s = candidate_shard(t[i], nshards);
                  if (!seen[s]) {
                    seen[s] = 1;
                    out.emplace_back(s, t);
                  }
                }
              }
              return out;
            })
            .named(pass_name + ":route")
            .group_by_key(nshards, ShardIdHash{}, pass_name + ":route")
            .map_partitions(
                [store, use_hash_tree, id_space](
                    const std::vector<
                        std::pair<u32, std::vector<Transaction>>>& part) {
                  std::vector<u64> acc(id_space, 0);
                  for (const auto& [shard, txns] : part) {
                    for (const TreeShard& ts : (*store)[shard]) {
                      const std::vector<u64>& ids = ts.global_ids;
                      auto on_hit = [&acc, &ids](u32 ci) { ++acc[ids[ci]]; };
                      for (const Transaction& t : txns) {
                        if (use_hash_tree) {
                          static thread_local HashTree::Probe probe;
                          ts.tree.for_each_contained(t, probe, on_hit);
                        } else {
                          ts.tree.for_each_contained_linear(t, on_hit);
                        }
                      }
                    }
                  }
                  std::vector<std::vector<u64>> out;
                  out.push_back(std::move(acc));
                  return out;
                })
            .named(pass_name + ":shard-count")
            .sum_arrays(id_space, pass_name + ":count");
  } else {
    // Dense broadcast: each task counts every tree over its own partition
    // through count_split. The pair indexes ship with the trees and are
    // priced with them.
    auto broadcast_trees = ctx.broadcast(
        trees, tree_bytes + pair_index_bytes(*trees, use_hash_tree),
        pass_name + ":trees");
    counts =
        transactions
            .map_partitions([broadcast_trees, use_hash_tree, id_space](
                                const std::vector<Transaction>& part) {
              std::vector<u64> acc(id_space, 0);
              count_split(part, **broadcast_trees, use_hash_tree, acc.data());
              std::vector<std::vector<u64>> out;
              out.push_back(std::move(acc));
              return out;
            })
            .sum_arrays(id_space, pass_name + ":count");
  }

  engine::work::Scope mat_scope;
  level.clear();
  for (const HashTree& tree : *trees) {
    const u64 base = tree.id_offset();
    for (u32 ci = 0; ci < tree.size(); ++ci) {
      engine::work::add(1);
      const u64 support = counts[base + ci];
      if (support >= min_count) {
        level.emplace_back(tree.candidate(ci), support);
      }
    }
  }
  sim::StageRecord mat;
  mat.label = pass_name + ":materialize";
  mat.kind = sim::StageKind::kOverhead;
  mat.pass = pass;
  mat.driver_work = mat_scope.measured();
  ctx.record(std::move(mat));
  return level;
}

}  // namespace yafim::fim
