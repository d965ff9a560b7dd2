#include "obs/metrics.h"

#include <map>
#include <memory>

#include "util/thread_annotations.h"

namespace yafim::obs {

const char* counter_name(CounterId id) {
  switch (id) {
    case CounterId::kShuffleBytes: return "shuffle.bytes";
    case CounterId::kBroadcastBytes: return "broadcast.bytes";
    case CounterId::kNaiveShipBytes: return "naive_ship.bytes";
    case CounterId::kDfsReadBytes: return "dfs.read_bytes";
    case CounterId::kDfsWriteBytes: return "dfs.write_bytes";
    case CounterId::kCacheHits: return "cache.hits";
    case CounterId::kCacheMisses: return "cache.misses";
    case CounterId::kLineageRecomputes: return "lineage.recomputes";
    case CounterId::kFaultPartitionsDropped: return "fault.partitions_dropped";
    case CounterId::kTaskFailuresInjected: return "fault.task_failures";
    case CounterId::kTaskRetries: return "fault.task_retries";
    case CounterId::kStageRetries: return "fault.stage_retries";
    case CounterId::kStragglersInjected: return "fault.stragglers";
    case CounterId::kSpeculativeLaunches: return "speculation.launches";
    case CounterId::kSpeculativeWins: return "speculation.wins";
    case CounterId::kSpeculativeLosses: return "speculation.losses";
    case CounterId::kCacheEvictions: return "cache.evictions";
    case CounterId::kCacheEvictedBytes: return "cache.evicted_bytes";
    case CounterId::kNodesBlacklisted: return "fault.nodes_blacklisted";
    case CounterId::kPoolTasks: return "pool.tasks";
    case CounterId::kPoolQueueWaitUsSum: return "pool.queue_wait_us_sum";
    case CounterId::kPoolQueueWaitUsMax: return "pool.queue_wait_us_max";
    case CounterId::kPoolTaskRunUs: return "pool.task_run_us";
    case CounterId::kHashTreeNodesVisited: return "hash_tree.nodes_visited";
    case CounterId::kHashTreeCandChecks: return "hash_tree.candidate_checks";
    case CounterId::kCandidatesGenerated: return "candidates.generated";
    case CounterId::kCandidatesPruned: return "candidates.pruned";
    case CounterId::kBlocksVerified: return "integrity.blocks_verified";
    case CounterId::kBlocksCorrupt: return "integrity.blocks_corrupt";
    case CounterId::kCorruptRepairedReplica:
      return "integrity.repaired_by_replica";
    case CounterId::kCorruptRepairedLineage:
      return "integrity.repaired_by_lineage";
    case CounterId::kCheckpointsWritten: return "checkpoint.written";
    case CounterId::kCheckpointBytesWritten: return "checkpoint.bytes_written";
    case CounterId::kCheckpointsRejected: return "checkpoint.rejected";
    case CounterId::kCheckpointPassesSkipped:
      return "checkpoint.passes_skipped";
    case CounterId::kArrayReduceBytes: return "array_reduce.bytes";
    case CounterId::kArrayReduceCells: return "array_reduce.cells";
    case CounterId::kLintUncachedReuse: return "lint.uncached_reuse";
    case CounterId::kLintBroadcastOverMem:
      return "lint.broadcast_over_memory";
    case CounterId::kLintDeadCache: return "lint.dead_cache";
    case CounterId::kLintFilterPushdown: return "lint.filter_pushdown";
    case CounterId::kLintDeepLineage: return "lint.deep_lineage";
    case CounterId::kBitmapIndexBytes: return "bitmap.index_bytes";
    case CounterId::kBitmapAndWords: return "bitmap.and_words";
    case CounterId::kBitmapPopcounts: return "bitmap.popcounts";
    case CounterId::kBroadcastFallbacks: return "broadcast.fallbacks";
    case CounterId::kShardShuffleBytes: return "shard.shuffle_bytes";
    case CounterId::kSpillBlocksWritten: return "spill.blocks_written";
    case CounterId::kSpillBytesRaw: return "spill.bytes_raw";
    case CounterId::kSpillBytesStored: return "spill.bytes_stored";
    case CounterId::kSpillBlocksRead: return "spill.blocks_read";
    case CounterId::kMemShrinksApplied: return "fault.mem_shrinks";
    case CounterId::kStreamBatches: return "stream.batches";
    case CounterId::kStreamTransactions: return "stream.transactions";
    case CounterId::kStreamReverifications: return "stream.reverifications";
    case CounterId::kStreamReverifyDeferred:
      return "stream.reverify_deferred";
    case CounterId::kStreamWindowWidenings: return "stream.window_widenings";
    case CounterId::kStreamSlackRaises: return "stream.slack_raises";
    case CounterId::kLintStreamBackpressure:
      return "lint.stream_backpressure";
    case CounterId::kDetsanTasksReplayed: return "detsan.tasks_replayed";
    case CounterId::kDetsanDivergences: return "detsan.divergences";
    case CounterId::kNumCounters: break;
  }
  return "unknown";
}

struct CounterRegistry::Impl {
  Counter well_known[static_cast<u32>(CounterId::kNumCounters)];
  // Guards the map's *shape* only; Counter values are atomics and the
  // unique_ptrs are never reseated, so references escape the lock safely.
  mutable util::Mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> named
      YAFIM_GUARDED_BY(mutex);
};

CounterRegistry::CounterRegistry() : impl_(new Impl) {}

CounterRegistry& CounterRegistry::instance() {
  // Leaked singleton: counter references must outlive every user, including
  // static-destruction-order stragglers.
  static CounterRegistry* registry = new CounterRegistry();
  return *registry;
}

Counter& CounterRegistry::at(CounterId id) {
  YAFIM_DCHECK(id < CounterId::kNumCounters, "bad counter id");
  return impl_->well_known[static_cast<u32>(id)];
}

Counter& CounterRegistry::get(const std::string& name) {
  util::MutexLock lock(impl_->mutex);
  auto& slot = impl_->named[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::vector<std::pair<std::string, u64>> CounterRegistry::snapshot() const {
  std::vector<std::pair<std::string, u64>> out;
  for (u32 i = 0; i < static_cast<u32>(CounterId::kNumCounters); ++i) {
    out.emplace_back(counter_name(static_cast<CounterId>(i)),
                     impl_->well_known[i].value());
  }
  util::MutexLock lock(impl_->mutex);
  for (const auto& [name, counter] : impl_->named) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

void CounterRegistry::reset_all() {
  for (Counter& c : impl_->well_known) c.reset();
  util::MutexLock lock(impl_->mutex);
  for (auto& [name, counter] : impl_->named) counter->reset();
}

}  // namespace yafim::obs
