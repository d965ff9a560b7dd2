// MRApriori: the paper's baseline -- Li et al.'s PApriori, a k-phase
// parallel Apriori on Hadoop MapReduce. Every level-wise iteration is a
// fresh MapReduce job that pays job startup, re-reads the transaction
// dataset from HDFS, ships the candidate set to mappers through the
// distributed cache, and writes the frequent itemsets back to HDFS, which
// the driver then reads to generate the next candidates.
//
// The paper notes all MapReduce implementations of Apriori share this
// per-iteration I/O structure, so one baseline represents the class.
// Counting inside a job follows YafimOptions' count modes: the paper's
// per-record hash-tree probe under kItemsetKey, one dense per-split kernel
// call (fim/count_core.h) under the default kCandidateId.
#pragma once

#include <string>

#include "engine/context.h"
#include "fim/checkpoint.h"
#include "fim/dataset.h"
#include "fim/hash_tree.h"
#include "fim/result.h"
#include "simfs/simfs.h"

namespace yafim::fim {

struct MrAprioriOptions {
  /// Relative minimum support threshold in (0, 1].
  double min_support = 0.1;
  /// Map / reduce task counts (0 = substrate defaults: one mapper per
  /// simulated core, one reducer per node).
  u32 num_mappers = 0;
  u32 num_reducers = 0;
  /// Candidate probing structure (matches YafimOptions for fair compares).
  bool use_hash_tree = true;
  u32 branching = 0;  // 0 = auto (HashTree::default_branching)
  u32 leaf_capacity = 16;
  /// Counting-shuffle key for jobs k >= 2 (matches YafimOptions so the
  /// YAFIM-vs-MRApriori comparison stays apples-to-apples): kItemsetKey
  /// emits (itemset, 1) per hash-tree hit; kCandidateId counts each map
  /// split through the same per-split kernel as YAFIM (pair index for C2,
  /// bitmap AND+popcount otherwise, fim/count_core.h), emits the nonzero
  /// (candidate_id, count) cells, and maps survivors back through the
  /// mapper-side tree in the reducer. MapReduce has no cross-job cache, so
  /// the split's bitmap index is rebuilt by every job.
  CountMode count_mode = CountMode::kCandidateId;
  /// How the candidate tree reaches the mappers when it outgrows the
  /// executor-memory budget (matches YafimOptions): kAuto localizes the
  /// whole tree through the distributed cache while it fits and falls back
  /// to candidate-set partitioning when it would not -- the level is
  /// counted as one sub-job per candidate shard, each shipping only its
  /// shard's tree (the classic buffer-management answer to an oversized
  /// Ck, at the price of re-reading the input per sub-job); kFull always
  /// ships the whole tree (over budget keeps YL002's error semantics);
  /// kPartitioned always shards. All modes yield identical itemsets.
  BroadcastMode broadcast_mode = BroadcastMode::kAuto;
  /// Scratch directory on the DFS for per-iteration outputs.
  std::string work_dir = "hdfs://mrapriori";
  /// Stop after this many levels (0 = run to completion). BigFIM uses this
  /// to run only the first k Apriori levels before switching to Eclat.
  u32 max_levels = 0;

  /// Crash recovery (fim/checkpoint.h): same contract as YafimOptions --
  /// snapshot after every completed job, resume from the newest valid
  /// snapshot of the same dataset + configuration. Not owned.
  CheckpointStore* checkpoint = nullptr;
  /// Abandon the run after snapshotting this pass (0 = run to completion);
  /// deterministic stand-in for a mid-run crash.
  u32 stop_after_pass = 0;
};

/// Mine the dataset stored at `input_path` on `fs`. Cost is charged into
/// ctx's SimReport (job startup + per-job DFS I/O + JVM-per-task phases).
MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const std::string& input_path,
                          const MrAprioriOptions& options);

/// Convenience overload staging `db` onto `fs` first.
MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const TransactionDB& db,
                          const MrAprioriOptions& options);

}  // namespace yafim::fim
