// DetSan: runtime determinism sanitizer for the RDD engine.
//
// Every guarantee the engine ships -- bit-identical resume after kill -9,
// bit-identity across CountModes, Toivonen exactness certificates -- rests
// on an unchecked assumption: closures passed to map/filter/reduce are pure,
// and reduce functions are commutative/associative. DetSan checks it.
//
// Mechanics: for a deterministic sample of (node, partition) tasks, the
// operator re-executes its own work with the input elements visited in a
// permuted order and canonically hashes both outputs (util/canon_hash.h).
// Permuting the task-visible element stream is exactly what a rotated
// thread-pool schedule can change in this engine -- tasks own whole
// partitions, so scheduling only perturbs the order state-sharing closures
// observe work in; a pure closure cannot tell the difference, an impure or
// non-commutative one diverges. Which hash shape a replay compares under is
// the operator's determinism contract (see DESIGN.md "Determinism model"):
//
//   map / flat_map / filter     permuted input, multiset-equal output
//   reduce (partition fold)     permuted fold order, equal result
//   map-side combine            permuted combine order, multiset-equal map
//     (one hook, detail::combine_values: reduce_by_key and the
//     MapReduce combiner)
//   sum_arrays                  permuted accumulation order, equal arrays
//   map_partitions              same-order re-run, identical output
//                               (partition functions may legitimately
//                               depend on element order; replay only checks
//                               they are a *function* of it)
//   shuffle spill               serialize twice, identical bytes
//                               (catches uninitialized bytes in blocks)
//
// A divergence is reported as PlanLinter rule YL007 (severity error) naming
// the node, the executing stage, and the first diverging element; with
// fail_fast (mine_cli --detsan=error) it also throws DetSanError. Replays
// run inside the task's work::Scope, so their cost is priced in the sim
// like any other work; obs counters detsan.tasks_replayed /
// detsan.divergences surface the volume.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/common.h"

namespace yafim::engine {

class PlanLinter;

/// Sanitizer configuration (ContextOptions::detsan). Disabled by default:
/// the only cost then is one branch per hook.
struct DetSanOptions {
  bool enabled = false;
  /// Fraction of (node, partition) tasks replayed. Sampling is a
  /// deterministic function of (seed, node id, partition), so two runs of
  /// the same plan replay the same tasks. Replayed work is roughly one
  /// extra pass over the sampled task's input, so expected overhead is
  /// about sample_rate of total sim seconds (gated at 10% in perf_gate.py).
  double sample_rate = 1.0 / 16.0;
  u64 seed = 0xDE75A11;
  /// Throw DetSanError at the first divergence (mine_cli --detsan=error).
  /// Off: divergences are recorded as YL007 diagnostics and counted, and
  /// the run continues.
  bool fail_fast = false;
};

/// A replay diverged and DetSanOptions::fail_fast is set. Carries the
/// offending node's debug name, the stage label that was executing, and a
/// description of the first diverging element.
class DetSanError : public std::runtime_error {
 public:
  DetSanError(std::string node_name, std::string stage, std::string element,
              const std::string& what);

  const std::string& node_name() const { return node_name_; }
  const std::string& stage() const { return stage_; }
  /// First diverging element, e.g. "element index 3 of 40".
  const std::string& element() const { return element_; }

 private:
  std::string node_name_;
  std::string stage_;
  std::string element_;
};

/// The sanitizer. Owned by Context (Context::detsan()); hooks in
/// engine/rdd.h consult it from pool threads, so everything here is
/// thread-safe. When enabled, Context forces the plan linter on so YL007
/// diagnostics can resolve node names through the linter's plan shadow.
class DetSan {
 public:
  /// Called once from the Context constructor. `linter` may be null (then
  /// divergences are only counted / thrown, not emitted as YL007).
  void configure(const DetSanOptions& options, PlanLinter* linter);

  bool enabled() const { return enabled_; }

  /// Deterministic sampling decision for one (node, partition) task.
  bool should_replay(u32 node_id, u32 pid) const;

  /// Seed for the replay permutation of one (node, partition) task.
  u64 replay_seed(u32 node_id, u32 pid) const;

  /// Deterministic permutation of [0, n). Never the identity for n >= 2 --
  /// a replay that happens to visit elements in the original order would
  /// silently test nothing.
  static std::vector<u32> permutation(size_t n, u64 seed);

  /// Record one completed replay (divergent or not).
  void note_replayed();

  /// Record a divergence on node `node_id` during operator `op` ("map",
  /// "reduce", ...); `element` names the first diverging element. Emits
  /// YL007 through the linter, bumps counters, and throws DetSanError when
  /// fail_fast is set.
  void report_divergence(u32 node_id, const char* op,
                         const std::string& element);
  /// As above for checks that run outside the plan shadow (shuffle spill
  /// blocks have no rdd id); `what` names the checked object instead.
  void report_divergence_raw(const std::string& what, const char* op,
                             const std::string& element);

  u64 tasks_replayed() const {
    return replayed_.load(std::memory_order_relaxed);
  }
  u64 divergences() const {
    return divergences_.load(std::memory_order_relaxed);
  }

  /// Stage label currently executing on this thread ("" outside any task).
  /// Set by Context::measure_tasks around every task body so divergence
  /// reports can name the stage without threading a label through every
  /// compute() signature.
  static const std::string& current_stage();

  /// RAII thread-local stage label (one per task body).
  class StageScope {
   public:
    explicit StageScope(const std::string* label);
    ~StageScope();
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

   private:
    const std::string* prev_;
  };

 private:
  void diverged(const std::string& node_name, const char* op,
                const std::string& element);

  // Set once in configure() before any worker thread exists; read-only
  // afterwards.
  bool enabled_ = false;
  double sample_rate_ = 1.0 / 16.0;
  u64 seed_ = 0;
  bool fail_fast_ = false;
  PlanLinter* linter_ = nullptr;

  // Always-on (unlike obs counters, which are gated on tracing): the
  // mine_cli `# detsan:` summary line needs them unconditionally.
  std::atomic<u64> replayed_{0};
  std::atomic<u64> divergences_{0};
};

}  // namespace yafim::engine
