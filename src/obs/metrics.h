// Named wall-clock observability counters.
//
// The sim layer records *deterministic* work units priced into simulated
// seconds (sim/metrics.h); this module is its wall-clock twin: cheap named
// counters the engine bumps while it actually runs (shuffle bytes, cache
// hits/misses, lineage recomputations, broadcast bytes, hash-tree nodes
// visited, candidates pruned, thread-pool queue wait). Counting is gated on
// the global tracing flag so the disabled path is a single relaxed load and
// a predicted branch; hot loops additionally batch into locals and flush one
// atomic add per transaction/stage.
//
// Where a counter mirrors a SimReport quantity (shuffle/broadcast/DFS
// bytes), it is fed from Context::record() off the same StageRecord, so the
// two accountings agree by construction.
#pragma once

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "util/common.h"

namespace yafim::obs {

/// Global tracing switch shared by counters and the Tracer. Relaxed loads:
/// instrumentation may miss a toggle mid-stage, never corrupts state.
namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Well-known counters, enum-indexed so hot paths skip the name lookup.
enum class CounterId : u32 {
  kShuffleBytes = 0,       ///< bytes crossing reduceByKey/groupByKey/etc.
  kBroadcastBytes,         ///< bytes shipped via Broadcast<T>
  kNaiveShipBytes,         ///< bytes shipped per-task in kNaiveShip mode
  kDfsReadBytes,           ///< simulated-HDFS bytes read (stage-accounted)
  kDfsWriteBytes,          ///< simulated-HDFS bytes written
  kCacheHits,              ///< persisted partitions served from cache
  kCacheMisses,            ///< persisted partitions computed then cached
  kLineageRecomputes,      ///< post-loss recomputations (fault recovery)
  kFaultPartitionsDropped, ///< cached partitions dropped by the injector
  kTaskFailuresInjected,   ///< task attempts killed by the FaultProfile
  kTaskRetries,            ///< task relaunches after an injected failure
  kStageRetries,           ///< stage re-attempts after task budget exhaustion
  kStragglersInjected,     ///< tasks slowed down by the FaultProfile
  kSpeculativeLaunches,    ///< speculative task copies launched
  kSpeculativeWins,        ///< speculative copies that beat the original
  kSpeculativeLosses,      ///< speculative copies the original beat
  kCacheEvictions,         ///< partitions LRU-evicted under memory pressure
  kCacheEvictedBytes,      ///< bytes freed by LRU evictions
  kNodesBlacklisted,       ///< executors blacklisted after repeated failures
  kPoolTasks,              ///< tasks executed by the thread pool
  kPoolQueueWaitUsSum,     ///< task time spent queued, summed over tasks, us
  kPoolQueueWaitUsMax,     ///< longest single-task queue wait, microseconds
  kPoolTaskRunUs,          ///< total task run time, microseconds
  kHashTreeNodesVisited,   ///< hash-tree nodes touched by probes
  kHashTreeCandChecks,     ///< candidate containment checks at leaves
  kCandidatesGenerated,    ///< itemsets emitted by apriori_gen
  kCandidatesPruned,       ///< joins rejected by the subset-presence prune
  kBlocksVerified,         ///< SimFS blocks checksum-verified on read
  kBlocksCorrupt,          ///< SimFS block replicas that failed verification
  kCorruptRepairedReplica, ///< corrupt blocks repaired by a replica re-read
  kCorruptRepairedLineage, ///< corrupt cached partitions recomputed
  kCheckpointsWritten,     ///< per-pass snapshots persisted
  kCheckpointBytesWritten, ///< bytes of snapshot payload persisted
  kCheckpointsRejected,    ///< damaged/mismatched snapshots discarded on probe
  kCheckpointPassesSkipped,///< completed passes restored instead of re-mined
  kArrayReduceBytes,       ///< bytes crossing sum_arrays() shuffles
  kArrayReduceCells,       ///< array cells merged by sum_arrays() reducers
  kLintUncachedReuse,      ///< YL001 diagnostics emitted by the plan linter
  kLintBroadcastOverMem,   ///< YL002 diagnostics emitted by the plan linter
  kLintDeadCache,          ///< YL003 diagnostics emitted by the plan linter
  kLintFilterPushdown,     ///< YL004 diagnostics emitted by the plan linter
  kLintDeepLineage,        ///< YL005 diagnostics emitted by the plan linter
  kBitmapIndexBytes,       ///< vertical bitmap index arena bytes built
  kBitmapAndWords,         ///< 64-bit words ANDed by bitmap support counting
  kBitmapPopcounts,        ///< popcount ops issued by bitmap support counting
  kBroadcastFallbacks,     ///< broadcasts degraded to the partitioned store
  kShardShuffleBytes,      ///< bytes re-partitioning shard trees+transactions
  kSpillBlocksWritten,     ///< shuffle blocks spilled to simfs
  kSpillBytesRaw,          ///< pre-compression bytes of spilled blocks
  kSpillBytesStored,       ///< on-simfs bytes of spilled blocks
  kSpillBlocksRead,        ///< spilled blocks read back by reducers
  kMemShrinksApplied,      ///< YAFIM_FAULT_MEM_* budget shrinks applied
  kStreamBatches,          ///< micro-batches mined by the StreamingMiner
  kStreamTransactions,     ///< transactions ingested across all batches
  kStreamReverifications,  ///< candidates re-verified after a MinSup crossing
  kStreamReverifyDeferred, ///< crossings deferred by the backpressure slack
  kStreamWindowWidenings,  ///< backpressure batch-window widenings applied
  kStreamSlackRaises,      ///< backpressure re-verify slack raises applied
  kLintStreamBackpressure, ///< YL006 diagnostics emitted by the plan linter
  kDetsanTasksReplayed,    ///< tasks re-executed by the determinism sanitizer
  kDetsanDivergences,      ///< YL007 replay divergences observed by DetSan
  kNumCounters,
};

/// Canonical dotted name ("shuffle.bytes", "cache.hits", ...).
const char* counter_name(CounterId id);

class Counter {
 public:
  void add(u64 delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raise the value to `v` if it is lower (a running maximum).
  void raise_to(u64 v) {
    u64 cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Registry exposing the well-known counters plus any counters minted by
/// name at runtime. References returned by at()/get() are stable for the
/// process lifetime; reset_all() zeroes values without invalidating them.
class CounterRegistry {
 public:
  static CounterRegistry& instance();

  Counter& at(CounterId id);
  /// Find-or-create a named counter (for subsystems added later).
  Counter& get(const std::string& name);

  /// (name, value) for every registered counter, well-known ones first.
  std::vector<std::pair<std::string, u64>> snapshot() const;
  void reset_all();

 private:
  CounterRegistry();
  struct Impl;
  Impl* impl_;
};

/// Bump a well-known counter iff tracing is enabled.
inline void count(CounterId id, u64 delta = 1) {
  if (!enabled()) return;
  CounterRegistry::instance().at(id).add(delta);
}

/// Raise a well-known maximum counter to `v` iff tracing is enabled.
inline void count_max(CounterId id, u64 v) {
  if (!enabled()) return;
  CounterRegistry::instance().at(id).raise_to(v);
}

/// Current value of a well-known counter (0 while never traced).
inline u64 counter_value(CounterId id) {
  return CounterRegistry::instance().at(id).value();
}

}  // namespace yafim::obs
