// Mining results. Every miner in the repository -- sequential Apriori,
// YAFIM, MRApriori, the SPC/FPC/DPC variants, FP-Growth and Eclat --
// returns the same FrequentItemsets type, which is how the test suite
// asserts the paper's correctness claim ("all the experimental results of
// YAFIM are exactly same as MRApriori").
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fim/itemset.h"
#include "util/common.h"

namespace yafim::engine {
class Context;
}

namespace yafim::fim {

using SupportMap = std::unordered_map<Itemset, u64, ItemsetHash, ItemsetEq>;

/// (itemset, support) -- the currency of every counting path.
using CountPair = std::pair<Itemset, u64>;

/// All frequent itemsets of a mining run, organised by level: level(k) maps
/// each frequent k-itemset to its exact support count.
class FrequentItemsets {
 public:
  FrequentItemsets() = default;
  FrequentItemsets(u64 min_support_count, u64 num_transactions)
      : min_support_count_(min_support_count),
        num_transactions_(num_transactions) {}

  u64 min_support_count() const { return min_support_count_; }
  u64 num_transactions() const { return num_transactions_; }

  /// Largest k with any frequent k-itemset (0 when empty).
  u32 max_k() const { return static_cast<u32>(levels_.size()); }

  /// Frequent k-itemsets (k is 1-based). Returns an empty map for k out of
  /// range.
  const SupportMap& level(u32 k) const;

  /// Add one frequent itemset with its support. The itemset must be
  /// canonical; duplicates must carry the same support (CHECKed).
  void add(Itemset itemset, u64 support);

  /// Support lookup; 0 if not frequent.
  u64 support_of(const Itemset& itemset) const;
  bool contains(const Itemset& itemset) const {
    return support_of(itemset) > 0;
  }

  /// Total number of frequent itemsets across all levels.
  u64 total() const;

  /// Deterministic flattening: (itemset, support) sorted by (size, lex).
  std::vector<std::pair<Itemset, u64>> sorted() const;

  /// Exact equality of contents (levels, itemsets and supports).
  bool same_itemsets(const FrequentItemsets& other) const;

 private:
  u64 min_support_count_ = 0;
  u64 num_transactions_ = 0;
  std::vector<SupportMap> levels_;
};

/// Per-iteration statistics, one entry per Apriori pass (Fig. 3/6 rows).
struct PassStats {
  u32 k = 0;
  u64 candidates = 0;
  u64 frequent = 0;
  /// Simulated cluster seconds attributed to this pass.
  double sim_seconds = 0.0;
};

/// A complete run of one parallel miner.
struct MiningRun {
  FrequentItemsets itemsets;
  std::vector<PassStats> passes;
  /// Simulated seconds outside any pass (initial HDFS load for YAFIM).
  double setup_seconds = 0.0;
  /// Passes k <= resumed_pass were restored from a checkpoint snapshot
  /// rather than mined (their PassStats carry the original run's numbers);
  /// 0 means the run started from scratch.
  u32 resumed_pass = 0;
  /// Host wall-clock seconds spent in pass >= 2 counting stages (probe +
  /// shuffle + support filter), the axis the count-mode ablation measures.
  /// Not part of PassStats so checkpoint snapshots stay format-stable.
  double count_host_seconds = 0.0;

  double total_seconds() const {
    double total = setup_seconds;
    for (const PassStats& p : passes) total += p.sim_seconds;
    return total;
  }
};

/// Fill run.setup_seconds and every PassStats::sim_seconds by pricing the
/// stages `ctx` recorded from index `first_stage` on, grouped by their pass
/// tag (pass 0 is setup). Passes k <= run.resumed_pass were restored from a
/// checkpoint, not executed here, and keep the snapshot's numbers. A level
/// counted inside a combined batch has no stages tagged with its own k, so
/// it prices at 0 and the batch's time lands on its first level.
void price_passes(const engine::Context& ctx, size_t first_stage,
                  MiningRun& run);

/// Record the load stage of a Spark-side miner: read `read_bytes` from the
/// DFS and parse `records` records through the input format at
/// cluster.record_parse_work each, split over `tasks` tasks so the stage
/// total is exact. Tagged with ctx's current pass. Miners that recompute
/// an uncached input lineage record the same stage again under a new label.
void record_parse_stage(engine::Context& ctx, const std::string& label,
                        u64 records, u64 read_bytes, u32 tasks);

}  // namespace yafim::fim
