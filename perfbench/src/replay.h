// Traced replays for the per-layer metrics.
//
// replay_yafim() mines one staged input through the same public calls
// fim::yafim_mine makes with default options, in the same order, and wraps
// a span around each call into a layer. Because the calls and their order
// are the same, the replay records the same SimReport stage by stage and
// returns the same itemsets; the benchmark checks both against a real
// yafim_mine job and marks the per-layer numbers stale when they differ.
//
// replay_levels() re-runs the driver-side calls MRApriori makes per level
// (apriori_gen over L(k-1), then the candidate hash tree) from a finished
// run's itemsets, so candidate generation and tree building get host spans
// on the MapReduce workload too.
#pragma once

#include <string>
#include <vector>

#include "engine/context.h"
#include "fim/result.h"
#include "simfs/simfs.h"
#include "spans.h"

namespace perfbench {

struct LayerWork {
  /// Candidates generated over all passes k >= 2.
  u64 candidates = 0;
  /// Serialized bytes of every pass's hash tree (the broadcast payload).
  u64 tree_bytes = 0;
  /// Per pass k >= 2: (k, candidates).
  std::vector<std::pair<u32, u64>> per_pass;
};

struct YafimReplay {
  yafim::fim::FrequentItemsets itemsets;
  LayerWork work;
};

/// Mine `path` on `fs` like fim::yafim_mine(ctx, fs, path, {min_support})
/// and record spans into `log` under a "job" root span.
YafimReplay replay_yafim(yafim::engine::Context& ctx, yafim::simfs::SimFS& fs,
                         const std::string& path, double min_support,
                         SpanLog& log);

/// Re-run apriori_gen + HashTree for every level k >= 2 of `itemsets`
/// (spans "candidate_gen" and "hash_tree.build" under the current span).
LayerWork replay_levels(const yafim::fim::FrequentItemsets& itemsets,
                        SpanLog& log);

}  // namespace perfbench
