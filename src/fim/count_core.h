// Shared candidate-counting core for the level-wise miners.
//
// One cluster counting job: given a batch of candidate hash trees (one per
// level) and a transactions RDD, produce the support of every candidate at
// or above a threshold. This is the Phase-II inner loop of yafim_mine,
// extracted verbatim -- stage labels, cost pricing, ledger/linter notes and
// obs counters are unchanged -- so that the batch miner and the streaming
// micro-batch miner (stream/miner.h) count through the exact same code and
// stay bit-identical with each other per batch of transactions. The steps
// around a counting job that the level-wise miners share live here too:
// building the candidate trees (also for the MapReduce miners' distributed
// cache), the broadcast-vs-partitioned decision (also for MRApriori) and
// the per-partition bitmap index.
//
// Four paths, selected by (count_mode, partitioned):
//   * kItemsetKey      -- paper-faithful: per-hit itemset copies keyed into
//                         a reduce_by_key shuffle.
//   * kCandidateId     -- dense per-partition u64 arrays indexed by
//                         batch-global candidate id, merged via sum_arrays
//                         (which ships only nonzero cells). A tree with a
//                         PairIndex (a complete C2) is counted by the
//                         triangular pair kernel instead of its walk; the
//                         index is broadcast and priced with the trees.
//   * kVerticalBitmap  -- cached per-partition VerticalBitmapIndex answers
//                         each candidate with AND + popcount; merged via
//                         sum_arrays.
//   * partitioned      -- any mode degrades here when the trees outgrow the
//                         executor budget: trees sharded by candidate
//                         prefix, transactions routed to their shards.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/context.h"
#include "engine/rdd.h"
#include "fim/bitmap.h"
#include "fim/hash_tree.h"
#include "fim/itemset.h"
#include "fim/result.h"

namespace yafim::fim {

struct CountCoreOptions {
  CountMode count_mode = CountMode::kItemsetKey;
  /// Probe via the hash tree (true) or linear candidate scans (false).
  bool use_hash_tree = true;
  /// Use the partitioned candidate store instead of broadcasting the trees
  /// whole (the caller takes the fits/doesn't-fit decision per pass).
  bool partitioned = false;
  /// Shard count for the partitioned store; 0 = ctx.default_partitions().
  u32 broadcast_shards = 0;
  /// Hash-tree shape, for re-building shard trees.
  u32 branching = 8;
  u32 leaf_capacity = 32;
  /// Smallest candidate size in the batch (routing viability cutoff).
  u32 kmin = 2;
  /// Only candidates with support >= min_count are returned. Pass 1 to get
  /// every candidate with nonzero support (plus zero-support candidates are
  /// always dropped: min_count >= 1 by construction).
  u64 min_count = 1;
  /// Stage-label prefix ("pass3", "batch0007:reverify", ...).
  std::string pass_name;
};

/// One counting job's candidate levels as hash trees: one tree per
/// non-empty level, in the order given, candidates in their given order.
struct CandidateTrees {
  std::shared_ptr<std::vector<HashTree>> trees;
  /// Serialized size of all trees: the broadcast payload.
  u64 bytes = 0;
  /// Batch-global dense id space (HashTree::assign_id_offsets).
  u64 id_space = 0;
};

/// Build the trees for one counting job. Tree builds are driver work and
/// land in the caller's engine::work::Scope.
CandidateTrees build_candidate_trees(std::vector<std::vector<Itemset>> levels,
                                     u32 branching, u32 leaf_capacity);

/// Whether a counting job uses the partitioned candidate store instead of
/// broadcasting its trees whole: always under kPartitioned, and under kAuto
/// when `tree_bytes` would not fit next to what the memory ledger already
/// places on the tightest executor (engine/memory.h). Callers re-take it
/// per job, so a mid-run memory shrink degrades exactly the jobs after it.
bool use_partitioned_store(const engine::Context& ctx, BroadcastMode mode,
                           u64 tree_bytes);

/// One VerticalBitmapIndex per partition of `transactions`, named `name`.
/// Not persisted: whether the index outlives one job is the caller's call.
engine::RDD<VerticalBitmapIndex> vertical_index(
    const engine::RDD<Transaction>& transactions, const std::string& name);

/// Count every candidate in `trees` against `transactions` and return those
/// with support >= opt.min_count. `tree_bytes` is the serialized size of
/// the batch (broadcast pricing + fallback ledger note); `id_space` the
/// batch-global dense id space (HashTree::assign_id_offsets). `vertical`
/// may be null except in non-partitioned kVerticalBitmap mode, where it
/// must point to an engaged optional holding the per-partition index RDD.
std::vector<CountPair> count_candidate_trees(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const std::shared_ptr<std::vector<HashTree>>& trees, u64 tree_bytes,
    u64 id_space, std::optional<engine::RDD<VerticalBitmapIndex>>* vertical,
    const CountCoreOptions& opt);

}  // namespace yafim::fim
