// YAFIM (Yet Another Frequent Itemset Mining): the paper's contribution --
// Apriori expressed on the RDD model so the transaction dataset is loaded
// from (simulated) HDFS once, cached in cluster memory, and re-scanned in
// memory on every level-wise iteration, with the candidate hash tree shared
// through broadcast variables.
//
// Phase I  (Algorithm 2): textFile -> flatMap(items) -> map((item, 1))
//                         -> reduceByKey(+) -> filter(>= MinSup)  => L1
// Phase II (Algorithm 3): Ck = ap_gen(L(k-1)); broadcast hash tree over Ck;
//                         Transactions.flatMap(subset(Ck, t))
//                         -> map((c, 1)) -> reduceByKey(+)
//                         -> filter(>= MinSup)                    => Lk
//
// Phase II as written is CountMode::kItemsetKey. The default,
// kCandidateId, keeps the broadcast and the level-wise loop but counts
// each partition into a dense candidate-id array instead of walking the
// tree: C2 through its triangular pair index, later levels by bitmap
// AND+popcount (fim/count_core.h).
#pragma once

#include <string>

#include "engine/context.h"
#include "fim/checkpoint.h"
#include "fim/dataset.h"
#include "fim/hash_tree.h"
#include "fim/result.h"
#include "simfs/simfs.h"

namespace yafim::fim {

struct YafimOptions {
  /// Relative minimum support threshold in (0, 1].
  double min_support = 0.1;
  /// RDD partitions for the transactions dataset (0 = context default).
  u32 partitions = 0;

  /// Ablations (all default to the paper's design):
  /// cache the transactions RDD in memory across iterations; off models
  /// Spark recomputing from HDFS every pass.
  bool cache_transactions = true;
  /// count through the hash tree (kItemsetKey) or the pair/bitmap kernels
  /// (kCandidateId); off scans candidates linearly.
  bool use_hash_tree = true;

  /// How Phase II counts candidate hits (fim/hash_tree.h). kItemsetKey is
  /// the paper-faithful shuffle keyed on full itemsets; kCandidateId (the
  /// default) counts into dense per-partition arrays indexed by candidate
  /// id and merges them with sum_arrays(). Each task counts C2 through its
  /// pair index and every other level by AND+popcount over a bitmap index
  /// it builds from its own partition (fim/count_core.h). Both modes yield
  /// bit-identical FrequentItemsets; only the data structure and its
  /// pricing differ.
  CountMode count_mode = CountMode::kCandidateId;

  /// How the per-pass candidate trees reach the workers (fim/hash_tree.h):
  /// kAuto broadcasts while the batch fits the executor-memory budget
  /// (engine::MemoryBudget) and degrades to the partitioned candidate
  /// store when it would not; kFull always broadcasts (an over-budget tree
  /// keeps YL002's error semantics); kPartitioned always shards. Every
  /// mode yields bit-identical FrequentItemsets -- a partitioned pass
  /// probes shard trees into the same batch-global dense cells.
  BroadcastMode broadcast_mode = BroadcastMode::kAuto;
  /// Shard count for the partitioned store (0 = context
  /// default_partitions). Tests use 1 (degenerate single shard) and large
  /// values (empty shards) to exercise the boundary cases.
  u32 broadcast_shards = 0;

  /// Hash-tree tuning.
  u32 branching = 0;  // 0 = auto (HashTree::default_branching)
  u32 leaf_capacity = 16;

  /// Extension (ours, transplanting Lin et al.'s pass combining onto the
  /// RDD side): count up to this many candidate levels per cluster pass,
  /// generating level j+1 candidates from level j *candidates*. Results
  /// stay exact; the trade is fewer per-pass floors against speculative
  /// counting work. 1 = the paper's design.
  u32 combine_passes = 1;
  /// Speculative-generation guard for combine_passes > 1 (DPC's lesson):
  /// a batch stops growing once its current level holds more candidates
  /// than this -- candidates-from-candidates joins over a large unverified
  /// level explode combinatorially.
  u64 combine_candidate_budget = 20000;

  /// Crash recovery (fim/checkpoint.h): when set, a snapshot of (Lk, pass
  /// stats, config fingerprint) is persisted after every completed pass,
  /// and mining first probes the store for the newest valid snapshot of
  /// the same dataset + configuration, resuming after it instead of
  /// restarting from pass 1. Not owned.
  CheckpointStore* checkpoint = nullptr;
  /// Abandon the run after snapshotting this pass (0 = run to completion).
  /// Deterministic stand-in for a mid-run crash in tests and examples; the
  /// returned run then holds only the completed passes.
  u32 stop_after_pass = 0;
};

/// Mine the dataset stored at `input_path` on `fs` (a serialized
/// TransactionDB). Cost is charged into ctx's SimReport; the returned run
/// carries per-pass simulated seconds under ctx's cluster.
MiningRun yafim_mine(engine::Context& ctx, simfs::SimFS& fs,
                     const std::string& input_path,
                     const YafimOptions& options);

/// Convenience overload: stages `db` onto `fs` at a scratch path (write not
/// charged to the run -- the dataset pre-exists on HDFS in the paper's
/// setup), then mines it.
MiningRun yafim_mine(engine::Context& ctx, simfs::SimFS& fs,
                     const TransactionDB& db, const YafimOptions& options);

}  // namespace yafim::fim
