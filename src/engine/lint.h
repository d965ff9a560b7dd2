// Plan linter: pre-execution diagnostics over the lazy RDD lineage DAG.
//
// The paper's Spark-over-MapReduce gap rests on two plan-shape invariants:
// the Transactions RDD stays cached across passes, and the candidate hash
// tree is broadcast once per pass into executor memory. Both rot silently as
// a pipeline is rewired -- the run still produces correct itemsets, it just
// recomputes lineage (or swamps an executor) and the speedup evaporates.
// This module catches those plan bugs *before* the stage executes, instead
// of in benchmark regressions.
//
// Mechanics: lineage nodes are templated (engine/rdd.h) and carry no DAG
// metadata of their own, so the linter keeps a type-erased shadow of the
// plan, keyed by rdd id. Node constructors register their operator kind and
// parent ids; every action or shuffle calls before_execute() with the root
// id, and the linter walks the shadow DAG. The walk mirrors what execution
// will do: it stops at sources (driver-held data, never recomputed) and at
// persisted nodes whose cache a previous consumption already filled, and it
// counts a "consumption" against every node that would actually recompute.
//
// Rules (stable ids; severities note < warn < error):
//   YL001  warn   uncached RDD consumed by >= 2 actions/shuffles -- every
//                 extra consumption replays the lineage (defeats the
//                 paper's Phase-II caching claim).
//   YL002  error  broadcast payload exceeds per-executor memory
//                 (sim::ClusterConfig::executor_memory_bytes) -- workers
//                 cannot hold the value at all.
//   YL003  warn   persisted RDD whose cache is never read back -- dead
//                 cache: the memory (and eviction pressure) buys nothing.
//   YL004  note   a shuffle's upstream lineage filters the output of a map
//                 -- the filter is pushable below the map, shrinking both
//                 map work and what the map-side combine hashes.
//   YL005  warn   lineage deeper than LintOptions::max_lineage_depth at a
//                 consumption -- recomputing one lost partition replays the
//                 whole chain, so recovery cost grows with plan length.
//   YL006  note   streaming backpressure raised the effective re-verification
//                 threshold -- results stay exact (crossings are deferred,
//                 never dropped), but frontier maintenance is lagging the
//                 ingest rate and the deferred work is accumulating.
//   YL007  error  the determinism sanitizer (engine/detsan.h) observed a
//                 runtime divergence: re-executing a sampled task with a
//                 permuted input order produced different output -- the
//                 closure is impure or the reduce fn is non-commutative.
//   YL008  error  statically impure closure, reported by the companion
//                 static pass (scripts/closure_check.sh): a lambda passed
//                 to an RDD combinator captures mutable non-local state by
//                 reference, calls rand/time/std::random_device, or
//                 accumulates floating point without a
//                 `// detsan: tolerate-fp` waiver. YL008 never flows
//                 through PlanLinter at runtime; the id is reserved here so
//                 both layers share one rule vocabulary.
//
// Each emitted diagnostic also bumps an obs counter (lint.* family, gated on
// tracing like every obs counter). Tests assert through the Context hook
// instead: Context::linter().diagnostics().
#pragma once

#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/common.h"
#include "util/thread_annotations.h"

namespace yafim::engine {

/// Operator kind of a lineage node, registered at node construction.
enum class PlanOp : u8 {
  kSource,  ///< driver-held data (parallelize, shuffle outputs)
  kMap,
  kFlatMap,
  kFilter,
  kMapPartitions,
  kSample,
  kZipWithIndex,
};

const char* plan_op_name(PlanOp op);

enum class LintSeverity : u8 { kNote, kWarn, kError };

const char* lint_severity_name(LintSeverity severity);

/// One finding. `rule` is the stable id ("YL001"...); `node_name` is the
/// offending RDD's debug name (RDD::named) or "rdd#<id>" -- the same
/// identifier the trace spans and stage labels use.
struct LintDiagnostic {
  std::string rule;
  LintSeverity severity = LintSeverity::kNote;
  u32 node = 0;
  std::string node_name;
  std::string message;
};

/// Linting configuration (ContextOptions::lint). Disabled by default: the
/// only cost then is one branch per node construction / consumption.
struct LintOptions {
  bool enabled = false;
  /// YL005 threshold: lineage chains deeper than this are flagged.
  u32 max_lineage_depth = 32;
};

/// Type-erased shadow of the lineage DAG plus the rule engine. Owned by
/// Context; thread-safe (note_cache_read arrives from pool threads while
/// the driver builds plan nodes).
class PlanLinter {
 public:
  enum class Consume : u8 { kAction, kShuffle };

  /// Called once from the Context constructor, before any RDD exists.
  void configure(const LintOptions& options, u64 executor_memory_bytes);

  bool enabled() const { return enabled_; }

  // --- plan registration (engine/rdd.h hooks) --------------------------
  void register_node(u32 id, PlanOp op, std::initializer_list<u32> parents);
  void set_node_name(u32 id, std::string name);
  void note_persist(u32 id);
  /// A persisted partition was served from cache (clears YL003 for the rdd).
  void note_cache_read(u32 id);

  // --- rule evaluation --------------------------------------------------
  /// Walk the lineage rooted at `root` before an action/shuffle named
  /// `label` executes; evaluates YL001, YL004 and YL005.
  void before_execute(u32 root, Consume kind, const std::string& label);
  /// Evaluate YL002 for a broadcast of `bytes` named `name`.
  void check_broadcast(u64 bytes, const std::string& name);
  /// YL002's graceful-degradation twin: the payload did not fit, but the
  /// engine engaged the partitioned candidate store instead of shipping it
  /// whole. Emits YL002 as a *note* -- the plan shape is still worth
  /// surfacing, but workers never hold the oversized value, so it is no
  /// longer an error.
  void note_broadcast_fallback(u64 bytes, const std::string& name);
  /// YL006: the streaming backpressure controller raised the effective
  /// re-verification slack to `slack` (deferring `deferred` MinSup
  /// crossings) because batch latency reached `latency_s` against an ingest
  /// interval of `interval_s`. A note, not a warning: output stays exact,
  /// but the plan is running at the edge of its ingest budget.
  void note_stream_backpressure(double slack, u64 deferred, double latency_s,
                                double interval_s, const std::string& name);
  /// YL007: DetSan observed a runtime replay divergence on `node`.
  /// `node_name` is resolved by the caller (DetSan holds it for the error
  /// it may throw); `message` describes the divergence.
  void note_detsan_divergence(u32 node, const std::string& node_name,
                              const std::string& message);
  /// End-of-plan rules (YL003 dead cache). Call after the last action;
  /// idempotent per node.
  void finalize();

  /// Debug label for a node: its RDD::named name, or "rdd#<id>". Used by
  /// DetSan to name the diverging node in YL007 / DetSanError.
  std::string node_label(u32 id) const;

  // --- results ----------------------------------------------------------
  std::vector<LintDiagnostic> diagnostics() const;
  /// Number of diagnostics emitted for one rule id.
  size_t count(const std::string& rule) const;
  /// True if any diagnostic of at least `floor` severity was emitted.
  bool any_at_least(LintSeverity floor) const;
  /// Drop all diagnostics and per-node rule state (plan shadow is kept).
  void clear();

  /// Render one diagnostic as "YL001 warn 'transactions': ...".
  static std::string format(const LintDiagnostic& diag);

 private:
  struct NodeInfo {
    PlanOp op = PlanOp::kSource;
    std::vector<u32> parents;
    std::string name;
    u32 consume_count = 0;
    bool persisted = false;
    /// A consumption already materialized this node's cache; later
    /// consumptions are cache hits, so walks stop here.
    bool cache_materialized = false;
    bool cache_read = false;
    bool yl001_fired = false;
    bool yl003_fired = false;
    bool yl004_fired = false;
  };

  void emit_locked(const char* rule, LintSeverity severity, u32 id,
                   std::string message) YAFIM_REQUIRES(mutex_);
  std::string node_label_locked(u32 id) const YAFIM_REQUIRES(mutex_);
  /// DFS; returns the deepest lineage depth seen below (and including)
  /// `id`. `suppress_yl001` squelches descendants once an ancestor fired in
  /// this walk (the whole chain crosses the 1 -> 2 threshold together).
  u32 walk_locked(u32 id, u32 depth, bool suppress_yl001, Consume kind,
                  const std::string& label) YAFIM_REQUIRES(mutex_);
  bool has_map_below_locked(u32 id, u32 budget) const YAFIM_REQUIRES(mutex_);

  // Set once in configure() before any worker thread exists; read-only
  // afterwards, so unguarded reads are safe.
  bool enabled_ = false;
  u32 max_lineage_depth_ = 32;
  u64 executor_memory_bytes_ = 0;

  mutable util::Mutex mutex_;
  std::unordered_map<u32, NodeInfo> nodes_ YAFIM_GUARDED_BY(mutex_);
  std::vector<LintDiagnostic> diagnostics_ YAFIM_GUARDED_BY(mutex_);
};

}  // namespace yafim::engine
