#include "replay.h"

#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "engine/rdd.h"
#include "engine/work.h"
#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "fim/dataset.h"
#include "fim/hash_tree.h"
#include "fim/mr_apriori.h"
#include "fim/yafim.h"

namespace perfbench {

namespace fim = yafim::fim;
namespace engine = yafim::engine;
namespace sim = yafim::sim;
using fim::CountPair;
using fim::Itemset;
using fim::Transaction;

namespace {

// First materialization of the cached transactions RDD runs inside the
// Phase-I tasks: a task pulls its partition through the persisted identity
// map (the only time that map's closure runs) and then feeds the Phase-I
// flat_map. A burst of identity-map calls on one pool thread, closed by the
// next flat_map call on that thread, is therefore one partition's
// materialization. Two clock reads per partition.
thread_local u64 t_burst_start = 0;
thread_local u32 t_tid = 0;
std::atomic<u32> g_next_tid{1};

u32 pool_tid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

struct MaterializeProbe {
  SpanLog* log = nullptr;
  u32 parent = 0;  // the engine.phase1 span
};

}  // namespace

YafimReplay replay_yafim(engine::Context& ctx, yafim::simfs::SimFS& fs,
                         const std::string& path, double min_support,
                         SpanLog& log) {
  YafimReplay out;
  SpanLog::Scoped job(log, "job");
  ctx.set_spill_fs(&fs);

  // ---- load -----------------------------------------------------------
  ctx.set_pass(0);
  std::vector<yafim::u8> raw;
  {
    SpanLog::Scoped s(log, "simfs.read");
    raw = fs.read(path);
  }
  fim::TransactionDB db;
  {
    SpanLog::Scoped s(log, "dataset.parse");
    db = fim::TransactionDB::deserialize(raw);
  }
  const u32 load_tasks = ctx.default_partitions();
  const u64 num_transactions = db.size();
  {
    sim::StageRecord stage;
    stage.label = "load:textFile+parse";
    stage.kind = sim::StageKind::kSparkStage;
    stage.pass = ctx.pass();
    stage.tasks = sim::split_work(
        num_transactions * (1 + ctx.cluster().record_parse_work), load_tasks);
    stage.dfs_read_bytes = raw.size();
    ctx.record(std::move(stage));
  }
  const u64 min_count = db.min_support_count(min_support);
  out.itemsets = fim::FrequentItemsets(min_count, num_transactions);
  if (num_transactions == 0) return out;

  auto probe = std::make_shared<MaterializeProbe>();
  probe->log = &log;
  std::optional<engine::RDD<Transaction>> transactions;
  {
    SpanLog::Scoped s(log, "engine.load");
    transactions.emplace(ctx.parallelize(db.release(), 0)
                             .map([](const Transaction& t) {
                               if (t_burst_start == 0) t_burst_start = now_ns();
                               return t;
                             })
                             .named("transactions"));
    transactions->persist();
    ctx.memory_budget().note_cached(raw.size());
  }

  // ---- Phase I --------------------------------------------------------
  std::vector<CountPair> level;
  std::vector<Itemset> frequent;
  {
    ctx.set_pass(1);
    SpanLog::Scoped s(log, "engine.phase1");
    probe->parent = s.id();
    level = transactions
                ->flat_map([probe](const Transaction& t) {
                  if (t_burst_start != 0) {
                    probe->log->add("engine.materialize", probe->parent,
                                    t_burst_start, now_ns(), pool_tid());
                    t_burst_start = 0;
                  }
                  return t;
                })
                .named("phase1:items")
                .map([](const fim::Item& i) { return CountPair(Itemset{i}, 1); })
                .reduce_by_key([](yafim::u64 a, yafim::u64 b) { return a + b; },
                               0, fim::ItemsetHash{}, "phase1:count")
                .named("phase1:counts")
                .filter([min_count](const CountPair& kv) {
                  return kv.second >= min_count;
                })
                .named("phase1:frequent")
                .collect("phase1:collect");
  }
  frequent.reserve(level.size());
  for (const auto& [itemset, support] : level) {
    out.itemsets.add(itemset, support);
    frequent.push_back(itemset);
  }

  // ---- Phase II: default options (one level per pass, hash tree,
  // dense candidate ids, broadcast while it fits) -----------------------
  const fim::YafimOptions defaults;
  for (u32 k = 2; !frequent.empty(); ++k) {
    ctx.set_pass(k);
    SpanLog::Scoped pass(log, "pass");
    const std::string pass_name = "pass" + std::to_string(k);

    engine::work::Scope driver_scope;
    std::vector<Itemset> candidates;
    {
      SpanLog::Scoped s(log, "candidate_gen");
      candidates = fim::apriori_gen(frequent, k);
    }
    if (candidates.empty()) break;
    const u64 num_candidates = candidates.size();

    auto trees = std::make_shared<std::vector<fim::HashTree>>();
    u64 tree_bytes = 0;
    u64 id_space = 0;
    {
      SpanLog::Scoped s(log, "hash_tree.build");
      trees->emplace_back(std::move(candidates), defaults.branching,
                          defaults.leaf_capacity);
      tree_bytes = trees->back().serialized_bytes();
    }
    {
      sim::StageRecord gen;
      gen.label = pass_name + ":ap_gen+buildHashTree";
      gen.kind = sim::StageKind::kOverhead;
      gen.pass = k;
      gen.driver_work = driver_scope.measured();
      ctx.record(std::move(gen));
    }
    const bool partitioned =
        !ctx.memory_budget().broadcast_fits(tree_bytes);
    {
      SpanLog::Scoped s(log, "hash_tree.build");
      id_space = fim::HashTree::assign_id_offsets(*trees);
    }

    fim::CountCoreOptions opt;
    opt.count_mode = defaults.count_mode;
    opt.use_hash_tree = defaults.use_hash_tree;
    opt.partitioned = partitioned;
    opt.broadcast_shards = defaults.broadcast_shards;
    opt.branching = defaults.branching;
    opt.leaf_capacity = defaults.leaf_capacity;
    opt.kmin = k;
    opt.min_count = min_count;
    opt.pass_name = pass_name;
    {
      SpanLog::Scoped s(log, k == 2 ? "count_core.pass2" : "count_core.late");
      level = fim::count_candidate_trees(ctx, *transactions, trees, tree_bytes,
                                         id_space, nullptr, opt);
    }

    out.work.candidates += num_candidates;
    out.work.tree_bytes += tree_bytes;
    out.work.per_pass.emplace_back(k, num_candidates);
    frequent.clear();
    for (auto& [itemset, support] : level) {
      out.itemsets.add(itemset, support);
      frequent.push_back(std::move(itemset));
    }
  }
  ctx.set_pass(0);
  return out;
}

LayerWork replay_levels(const fim::FrequentItemsets& itemsets, SpanLog& log) {
  LayerWork out;
  const fim::MrAprioriOptions defaults;
  for (u32 k = 2; k <= itemsets.max_k() + 1; ++k) {
    std::vector<Itemset> prev;
    prev.reserve(itemsets.level(k - 1).size());
    for (const auto& [itemset, support] : itemsets.level(k - 1)) {
      prev.push_back(itemset);
    }
    if (prev.empty()) break;
    std::vector<Itemset> candidates;
    {
      SpanLog::Scoped s(log, "candidate_gen");
      candidates = fim::apriori_gen(prev, k);
    }
    if (candidates.empty()) break;
    const u64 n = candidates.size();
    SpanLog::Scoped s(log, "hash_tree.build");
    std::vector<fim::HashTree> trees;
    trees.emplace_back(std::move(candidates), defaults.branching,
                       defaults.leaf_capacity);
    out.tree_bytes += trees.back().serialized_bytes();
    fim::HashTree::assign_id_offsets(trees);
    out.candidates += n;
    out.per_pass.emplace_back(k, n);
  }
  return out;
}

}  // namespace perfbench
