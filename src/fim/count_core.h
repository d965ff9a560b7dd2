// Shared candidate-counting core for the level-wise miners.
//
// One cluster counting job: given a batch of candidate hash trees (one per
// level) and a transactions RDD, produce the support of every candidate at
// or above a threshold. This is the Phase-II inner loop of yafim_mine,
// shared so that the batch miner, the sampling miner and the streaming
// micro-batch miner (stream/miner.h) count through the exact same code and
// stay bit-identical with each other per batch of transactions. The steps
// around a counting job that the level-wise miners share live here too:
// building the candidate trees (also for the MapReduce miners' distributed
// cache), the broadcast-vs-partitioned decision (also for MRApriori) and
// the dense per-split kernel (also for MRApriori's map side).
//
// Two pipelines, selected by count_mode, and the partitioned store:
//   * kItemsetKey      -- paper-faithful: every hash-tree hit copies its
//                         itemset into a reduce_by_key shuffle.
//   * kCandidateId     -- dense: each task counts into one u64 array
//                         indexed by batch-global candidate id, merged via
//                         sum_arrays (which ships only nonzero cells). The
//                         per-split kernel (count_split) picks each tree's
//                         counter from the tree itself: its PairIndex (a
//                         complete C2), else AND+popcount over a bitmap
//                         index the task builds from its own transactions.
//                         MRApriori's dense job counts through the same
//                         kernel, one call per map split.
//   * partitioned      -- either mode degrades here when the trees outgrow
//                         the executor budget: trees sharded by candidate
//                         prefix, transactions routed to their shards and
//                         walked through the shard trees.
#pragma once

#include <memory>
#include <optional>
#include <span>
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
  /// Count via the hash tree or the dense kernels (true), or via linear
  /// candidate scans (false).
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

/// Bytes of the pair indexes the dense path ships next to `trees` (none
/// under the linear-scan ablation, which does not count through them).
u64 pair_index_bytes(std::span<const HashTree> trees, bool use_hash_tree);

/// The dense per-split kernel: adds one to cells[tree.id_offset() + ci] for
/// every candidate ci of every tree contained in a transaction of `split`.
/// A tree with a PairIndex is counted through it; every other tree by
/// AND+popcount over one VerticalBitmapIndex built from `split` on first
/// need and dropped on return. With use_hash_tree = false (the linear-scan
/// ablation) each tree is scanned candidate by candidate instead.
void count_split(std::span<const Transaction> split,
                 std::span<const HashTree> trees, bool use_hash_tree,
                 u64* cells);

/// Count every candidate in `trees` against `transactions` and return those
/// with support >= opt.min_count. `tree_bytes` is the serialized size of
/// the batch (broadcast pricing + fallback ledger note); `id_space` the
/// batch-global dense id space (HashTree::assign_id_offsets). The
/// `vertical` argument is ignored (pass nullptr): the dense path builds its
/// bitmap index inside each task.
std::vector<CountPair> count_candidate_trees(
    engine::Context& ctx, engine::RDD<Transaction>& transactions,
    const std::shared_ptr<std::vector<HashTree>>& trees, u64 tree_bytes,
    u64 id_space, std::optional<engine::RDD<VerticalBitmapIndex>>* vertical,
    const CountCoreOptions& opt);

}  // namespace yafim::fim
