#include "fim/result.h"

#include <algorithm>

#include "engine/context.h"

namespace yafim::fim {

const SupportMap& FrequentItemsets::level(u32 k) const {
  static const SupportMap kEmpty;
  if (k == 0 || k > levels_.size()) return kEmpty;
  return levels_[k - 1];
}

void FrequentItemsets::add(Itemset itemset, u64 support) {
  YAFIM_CHECK(!itemset.empty(), "cannot add the empty itemset");
  YAFIM_DCHECK(is_canonical(itemset), "itemset must be canonical");
  const u32 k = static_cast<u32>(itemset.size());
  if (levels_.size() < k) levels_.resize(k);
  auto [it, inserted] = levels_[k - 1].emplace(std::move(itemset), support);
  YAFIM_CHECK(inserted || it->second == support,
              "conflicting supports for the same itemset");
}

u64 FrequentItemsets::support_of(const Itemset& itemset) const {
  if (itemset.empty() || itemset.size() > levels_.size()) return 0;
  const SupportMap& lvl = levels_[itemset.size() - 1];
  auto it = lvl.find(itemset);
  return it == lvl.end() ? 0 : it->second;
}

u64 FrequentItemsets::total() const {
  u64 total = 0;
  for (const SupportMap& lvl : levels_) total += lvl.size();
  return total;
}

std::vector<std::pair<Itemset, u64>> FrequentItemsets::sorted() const {
  std::vector<std::pair<Itemset, u64>> out;
  out.reserve(total());
  for (const SupportMap& lvl : levels_) {
    for (const auto& [itemset, support] : lvl) {
      out.emplace_back(itemset, support);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.first.size() != b.first.size()) {
      return a.first.size() < b.first.size();
    }
    return a.first < b.first;
  });
  return out;
}

bool FrequentItemsets::same_itemsets(const FrequentItemsets& other) const {
  // Trailing empty levels are not a semantic difference.
  auto effective_levels = [](const std::vector<SupportMap>& levels) {
    size_t n = levels.size();
    while (n > 0 && levels[n - 1].empty()) --n;
    return n;
  };
  const size_t n = effective_levels(levels_);
  if (n != effective_levels(other.levels_)) return false;
  for (size_t i = 0; i < n; ++i) {
    if (levels_[i] != other.levels_[i]) return false;
  }
  return true;
}

void price_passes(const engine::Context& ctx, size_t first_stage,
                  MiningRun& run) {
  sim::SimReport slice;
  const auto& stages = ctx.report().stages();
  for (size_t i = first_stage; i < stages.size(); ++i) slice.add(stages[i]);
  const std::vector<double> by_pass = slice.pass_seconds(ctx.cost_model());
  run.setup_seconds = by_pass.empty() ? 0.0 : by_pass[0];
  for (PassStats& pass : run.passes) {
    if (pass.k <= run.resumed_pass) continue;
    pass.sim_seconds = pass.k < by_pass.size() ? by_pass[pass.k] : 0.0;
  }
}

void record_parse_stage(engine::Context& ctx, const std::string& label,
                        u64 records, u64 read_bytes, u32 tasks) {
  sim::StageRecord stage;
  stage.label = label;
  stage.kind = sim::StageKind::kSparkStage;
  stage.pass = ctx.pass();
  stage.tasks =
      sim::split_work(records * (1 + ctx.cluster().record_parse_work), tasks);
  stage.dfs_read_bytes = read_bytes;
  ctx.record(std::move(stage));
}

}  // namespace yafim::fim
