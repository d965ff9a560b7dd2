#include "engine/lint.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"

namespace yafim::engine {

namespace {

/// Guard for the YL004 upstream scan: lineage chains are short in practice,
/// but a cyclic registration bug must not hang the linter.
constexpr u32 kScanBudget = 4096;

obs::CounterId rule_counter(const char* rule) {
  if (std::strcmp(rule, "YL001") == 0) {
    return obs::CounterId::kLintUncachedReuse;
  }
  if (std::strcmp(rule, "YL002") == 0) {
    return obs::CounterId::kLintBroadcastOverMem;
  }
  if (std::strcmp(rule, "YL003") == 0) return obs::CounterId::kLintDeadCache;
  if (std::strcmp(rule, "YL004") == 0) {
    return obs::CounterId::kLintFilterPushdown;
  }
  if (std::strcmp(rule, "YL006") == 0) {
    return obs::CounterId::kLintStreamBackpressure;
  }
  if (std::strcmp(rule, "YL007") == 0) {
    return obs::CounterId::kDetsanDivergences;
  }
  return obs::CounterId::kLintDeepLineage;
}

std::string human_bytes(u64 bytes) {
  std::ostringstream os;
  if (bytes >= (1ull << 30)) {
    os << (bytes >> 20) / 1024.0 << " GiB";
  } else if (bytes >= (1ull << 20)) {
    os << (bytes >> 10) / 1024.0 << " MiB";
  } else {
    os << bytes << " B";
  }
  return os.str();
}

}  // namespace

const char* plan_op_name(PlanOp op) {
  switch (op) {
    case PlanOp::kSource: return "source";
    case PlanOp::kMap: return "map";
    case PlanOp::kFlatMap: return "flat_map";
    case PlanOp::kFilter: return "filter";
    case PlanOp::kMapPartitions: return "map_partitions";
    case PlanOp::kSample: return "sample";
    case PlanOp::kZipWithIndex: return "zip_with_index";
  }
  return "unknown";
}

const char* lint_severity_name(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kNote: return "note";
    case LintSeverity::kWarn: return "warn";
    case LintSeverity::kError: return "error";
  }
  return "unknown";
}

void PlanLinter::configure(const LintOptions& options,
                           u64 executor_memory_bytes) {
  enabled_ = options.enabled;
  max_lineage_depth_ = options.max_lineage_depth;
  executor_memory_bytes_ = executor_memory_bytes;
}

void PlanLinter::register_node(u32 id, PlanOp op,
                               std::initializer_list<u32> parents) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  NodeInfo& info = nodes_[id];
  info.op = op;
  info.parents.assign(parents.begin(), parents.end());
}

void PlanLinter::set_node_name(u32 id, std::string name) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  nodes_[id].name = std::move(name);
}

void PlanLinter::note_persist(u32 id) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  nodes_[id].persisted = true;
}

void PlanLinter::note_cache_read(u32 id) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  auto it = nodes_.find(id);
  if (it != nodes_.end()) it->second.cache_read = true;
}

void PlanLinter::before_execute(u32 root, Consume kind,
                                const std::string& label) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  u32 deepest = walk_locked(root, 1, /*suppress_yl001=*/false, kind, label);
  if (deepest > max_lineage_depth_) {
    std::ostringstream os;
    os << "lineage behind '" << label << "' is " << deepest
       << " nodes deep (threshold " << max_lineage_depth_
       << "); losing one partition replays the whole chain -- persist() or "
          "checkpoint an intermediate RDD";
    emit_locked("YL005", LintSeverity::kWarn, root, os.str());
  }
}

void PlanLinter::check_broadcast(u64 bytes, const std::string& name) {
  if (!enabled_) return;
  if (executor_memory_bytes_ == 0 || bytes <= executor_memory_bytes_) return;
  util::MutexLock lock(mutex_);
  std::ostringstream os;
  os << "broadcast payload of " << human_bytes(bytes)
     << " exceeds executor memory of " << human_bytes(executor_memory_bytes_)
     << "; workers cannot hold the value -- shrink the candidate structure "
        "or raise executor_memory_bytes";
  LintDiagnostic diag;
  diag.rule = "YL002";
  diag.severity = LintSeverity::kError;
  diag.node = 0;
  diag.node_name = name;
  diag.message = os.str();
  obs::count(rule_counter("YL002"));
  diagnostics_.push_back(std::move(diag));
}

void PlanLinter::note_broadcast_fallback(u64 bytes, const std::string& name) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  std::ostringstream os;
  os << "broadcast payload of " << human_bytes(bytes)
     << " exceeds executor memory of " << human_bytes(executor_memory_bytes_)
     << "; partitioned candidate broadcast engaged -- the tree is sharded "
        "across executors and transactions are re-partitioned to it";
  LintDiagnostic diag;
  diag.rule = "YL002";
  diag.severity = LintSeverity::kNote;
  diag.node = 0;
  diag.node_name = name;
  diag.message = os.str();
  obs::count(rule_counter("YL002"));
  diagnostics_.push_back(std::move(diag));
}

void PlanLinter::note_stream_backpressure(double slack, u64 deferred,
                                          double latency_s, double interval_s,
                                          const std::string& name) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  std::ostringstream os;
  os << "backpressure raised re-verification slack to " << slack
     << " (deferring " << deferred << " MinSup crossing(s)): batch latency "
     << latency_s << "s vs ingest interval " << interval_s
     << "s -- results stay exact, but frontier maintenance is lagging the "
        "ingest rate";
  LintDiagnostic diag;
  diag.rule = "YL006";
  diag.severity = LintSeverity::kNote;
  diag.node = 0;
  diag.node_name = name;
  diag.message = os.str();
  obs::count(rule_counter("YL006"));
  diagnostics_.push_back(std::move(diag));
}

void PlanLinter::note_detsan_divergence(u32 node, const std::string& node_name,
                                        const std::string& message) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  LintDiagnostic diag;
  diag.rule = "YL007";
  diag.severity = LintSeverity::kError;
  diag.node = node;
  diag.node_name = node_name;
  diag.message = message;
  // No obs::count here: DetSan::report_divergence bumps
  // kDetsanDivergences itself (it must count even with no linter attached),
  // so bumping per diagnostic too would double-count.
  diagnostics_.push_back(std::move(diag));
}

std::string PlanLinter::node_label(u32 id) const {
  util::MutexLock lock(mutex_);
  return node_label_locked(id);
}

void PlanLinter::finalize() {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  // Deterministic emission order for tests: ascending rdd id.
  std::vector<u32> persisted_ids;
  for (auto& [id, info] : nodes_) {
    if (info.persisted && !info.cache_read && !info.yl003_fired) {
      persisted_ids.push_back(id);
    }
  }
  std::sort(persisted_ids.begin(), persisted_ids.end());
  for (u32 id : persisted_ids) {
    NodeInfo& info = nodes_[id];
    info.yl003_fired = true;
    std::ostringstream os;
    if (info.cache_materialized) {
      os << "cache was materialized but never read back; the memory (and "
            "eviction pressure) buys nothing -- drop the persist()";
    } else {
      os << "persist() was requested but the RDD was never consumed; the "
            "persist is dead code";
    }
    emit_locked("YL003", LintSeverity::kWarn, id, os.str());
  }
}

std::vector<LintDiagnostic> PlanLinter::diagnostics() const {
  util::MutexLock lock(mutex_);
  return diagnostics_;
}

size_t PlanLinter::count(const std::string& rule) const {
  util::MutexLock lock(mutex_);
  size_t n = 0;
  for (const LintDiagnostic& diag : diagnostics_) {
    if (diag.rule == rule) ++n;
  }
  return n;
}

bool PlanLinter::any_at_least(LintSeverity floor) const {
  util::MutexLock lock(mutex_);
  for (const LintDiagnostic& diag : diagnostics_) {
    if (diag.severity >= floor) return true;
  }
  return false;
}

void PlanLinter::clear() {
  util::MutexLock lock(mutex_);
  diagnostics_.clear();
  for (auto& [id, info] : nodes_) {
    (void)id;
    info.consume_count = 0;
    info.cache_materialized = false;
    info.cache_read = false;
    info.yl001_fired = false;
    info.yl003_fired = false;
    info.yl004_fired = false;
  }
}

std::string PlanLinter::format(const LintDiagnostic& diag) {
  std::ostringstream os;
  os << diag.rule << ' ' << lint_severity_name(diag.severity) << " '"
     << diag.node_name << "': " << diag.message;
  return os.str();
}

void PlanLinter::emit_locked(const char* rule, LintSeverity severity, u32 id,
                             std::string message) {
  LintDiagnostic diag;
  diag.rule = rule;
  diag.severity = severity;
  diag.node = id;
  diag.node_name = node_label_locked(id);
  diag.message = std::move(message);
  obs::count(rule_counter(rule));
  diagnostics_.push_back(std::move(diag));
}

std::string PlanLinter::node_label_locked(u32 id) const {
  auto it = nodes_.find(id);
  if (it != nodes_.end() && !it->second.name.empty()) return it->second.name;
  return "rdd#" + std::to_string(id);
}

u32 PlanLinter::walk_locked(u32 id, u32 depth, bool suppress_yl001,
                            Consume kind, const std::string& label) {
  auto it = nodes_.find(id);
  // Unknown ids (pre-linter nodes, foreign contexts) behave like sources.
  if (it == nodes_.end()) return depth;
  NodeInfo& info = it->second;

  // Sources hold driver-side data; execution never recomputes below them.
  if (info.op == PlanOp::kSource) return depth;

  if (info.persisted) {
    if (info.cache_materialized) return depth;  // served from cache
    // First consumption computes the lineage once and fills the cache; the
    // subtree below is charged this one consumption and never again.
    info.cache_materialized = true;
  } else {
    info.consume_count += 1;
    bool fired = false;
    if (info.consume_count >= 2 && !info.yl001_fired && !suppress_yl001) {
      std::ostringstream os;
      os << "not persisted but consumed again by "
         << (kind == Consume::kAction ? "action" : "shuffle") << " '" << label
         << "' (consumption #" << info.consume_count
         << "); the lineage below it will be recomputed -- persist() it";
      emit_locked("YL001", LintSeverity::kWarn, id, os.str());
      info.yl001_fired = true;
      fired = true;
    }
    // Once the topmost node of a chain fires, every descendant crossed the
    // threshold in the same plan shape; flagging them too is noise.
    suppress_yl001 = suppress_yl001 || fired;
  }

  if (kind == Consume::kShuffle && info.op == PlanOp::kFilter &&
      !info.yl004_fired) {
    bool pushable = false;
    for (u32 parent : info.parents) {
      if (has_map_below_locked(parent, kScanBudget)) pushable = true;
    }
    if (pushable) {
      info.yl004_fired = true;
      std::ostringstream os;
      os << "filter feeding shuffle '" << label
         << "' runs above a map; pushing the filter below the map shrinks "
            "both the map work and the shuffle input";
      emit_locked("YL004", LintSeverity::kNote, id, os.str());
    }
  }

  u32 deepest = depth;
  for (u32 parent : info.parents) {
    deepest = std::max(
        deepest, walk_locked(parent, depth + 1, suppress_yl001, kind, label));
  }
  return deepest;
}

bool PlanLinter::has_map_below_locked(u32 id, u32 budget) const {
  if (budget == 0) return false;
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return false;
  const NodeInfo& info = it->second;
  if (info.op == PlanOp::kSource) return false;
  // A cached boundary pins the data layout: pushing a filter below it would
  // change what the cache holds, so stop the pushdown scan there.
  if (info.persisted) return false;
  if (info.op == PlanOp::kMap || info.op == PlanOp::kFlatMap ||
      info.op == PlanOp::kMapPartitions) {
    return true;
  }
  for (u32 parent : info.parents) {
    if (has_map_below_locked(parent, budget - 1)) return true;
  }
  return false;
}

}  // namespace yafim::engine
