// Ablation bench: quantifies the design choices DESIGN.md calls out.
//
//   1. Broadcast variables vs naive per-task shipping (paper §IV-C).
//   2. Cached transactions RDD vs re-reading from HDFS each pass (§IV-B).
//   3. Hash tree vs linear candidate scan (§IV-A, Fig. 2).
//   4. SPC vs FPC vs DPC job-combining strategies on the MR substrate
//      (related work, Lin et al.).
#include <tuple>

#include "common.h"
#include "fim/sampling.h"
#include "fim/spc_fpc_dpc.h"
#include "stream/miner.h"

using namespace yafim;
using namespace yafim::benchharness;

namespace {

double yafim_variant(const datagen::BenchmarkDataset& bench,
                     engine::ShareMode share, bool cache, bool hash_tree,
                     u64* probe_work = nullptr) {
  engine::Context ctx(engine::Context::Options{
      .cluster = sim::ClusterConfig::paper(), .share_mode = share});
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = bench.paper_min_support;
  // The paper's tree walk, so "no hash tree" compares it with the scan.
  opt.count_mode = fim::CountMode::kItemsetKey;
  opt.cache_transactions = cache;
  opt.use_hash_tree = hash_tree;
  const auto run = fim::yafim_mine(ctx, fs, bench.db, opt);
  if (probe_work) *probe_work = ctx.report().total_work();
  return run.total_seconds();
}

/// One count-mode run; returns the pass>=2 counting-stage numbers the
/// count-mode ablation compares (sim seconds of the count/collect/
/// materialize stages, host wall-clock of the counting pipeline, shuffle
/// bytes of the whole run).
struct CountModeResult {
  double count_sim_s = 0.0;
  double count_host_s = 0.0;
  u64 shuffle_bytes = 0;
  u64 itemsets = 0;
};

CountModeResult yafim_count_mode(const datagen::BenchmarkDataset& bench,
                                 fim::CountMode mode) {
  engine::Context ctx(
      engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = bench.paper_min_support;
  opt.count_mode = mode;
  const auto run = fim::yafim_mine(ctx, fs, bench.db, opt);

  CountModeResult res;
  res.count_host_s = run.count_host_seconds;
  res.shuffle_bytes = ctx.report().total_shuffle_bytes();
  res.itemsets = run.itemsets.total();
  for (const auto& stage : ctx.report().stages()) {
    if (stage.pass < 2) continue;
    const bool counting =
        stage.label.find(":count") != std::string::npos ||
        stage.label.find(":collect") != std::string::npos ||
        stage.label.find(":materialize") != std::string::npos;
    if (counting) {
      res.count_sim_s += sim::stage_seconds(stage, ctx.cost_model());
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv, /*default_scale=*/1.0);
  BenchJson json;
  json.note("bench", "ablation");

  std::printf("== Ablations (MushRoom Sup=35%% and T10I4D100K Sup=0.25%%, "
              "scale=%.2f) ==\n\n",
              args.scale);

  std::vector<datagen::BenchmarkDataset> benches;
  benches.push_back(datagen::make_mushroom(args.scale));
  benches.push_back(datagen::make_t10i4d100k(args.scale));

  std::printf("-- YAFIM design ablations (total simulated seconds) --\n");
  Table table({"dataset", "paper design", "naive ship", "no cache",
               "no hash tree"});
  for (const auto& bench : benches) {
    u64 work_tree = 0, work_linear = 0;
    const double base = yafim_variant(bench, engine::ShareMode::kBroadcast,
                                      true, true, &work_tree);
    const double naive =
        yafim_variant(bench, engine::ShareMode::kNaiveShip, true, true);
    const double nocache =
        yafim_variant(bench, engine::ShareMode::kBroadcast, false, true);
    const double linear = yafim_variant(bench, engine::ShareMode::kBroadcast,
                                        true, false, &work_linear);
    table.add_row({bench.name, Table::num(base),
                   Table::num(naive) + " (" + Table::num(naive / base, 2) +
                       "x)",
                   Table::num(nocache) + " (" +
                       Table::num(nocache / base, 2) + "x)",
                   Table::num(linear) + " (" + Table::num(linear / base, 2) +
                       "x)"});
    std::printf("  %s probe work: hash tree %llu units vs linear %llu units "
                "(%.1fx saved)\n",
                bench.name.c_str(), (unsigned long long)work_tree,
                (unsigned long long)work_linear,
                static_cast<double>(work_linear) /
                    static_cast<double>(work_tree));
  }
  print_table(table, args);

  std::printf("\n-- YAFIM combined passes (our extension; Lin-style "
              "batching on the RDD side) --\n");
  Table combine_table({"dataset", "combine", "cluster passes", "total(s)"});
  for (const auto& bench : benches) {
    for (u32 combine : {1u, 2u, 3u}) {
      engine::Context ctx(
          engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
      simfs::SimFS fs(ctx.cluster());
      fim::YafimOptions opt;
      opt.min_support = bench.paper_min_support;
      opt.combine_passes = combine;
      const auto run = fim::yafim_mine(ctx, fs, bench.db, opt);
      u64 cluster_passes = 1;  // phase I
      for (const auto& stage : ctx.report().stages()) {
        if (stage.label.find(":ap_gen") != std::string::npos) {
          ++cluster_passes;
        }
      }
      combine_table.add_row({bench.name, Table::num(u64{combine}),
                             Table::num(cluster_passes),
                             Table::num(run.total_seconds())});
    }
  }
  print_table(combine_table, args);

  std::printf("\n-- Counting data structure: itemset-keyed shuffle vs dense "
              "candidate-id arrays (pass>=2 counting stages) --\n");
  Table countmode_table({"dataset", "mode", "count sim(s)", "count host(s)",
                         "shuffle MB", "itemsets"});
  for (const auto& bench : benches) {
    const CountModeResult faithful =
        yafim_count_mode(bench, fim::CountMode::kItemsetKey);
    const CountModeResult dense =
        yafim_count_mode(bench, fim::CountMode::kCandidateId);
    YAFIM_CHECK(faithful.itemsets == dense.itemsets,
                "count modes disagree on frequent itemsets");
    for (const auto& [label, res, x] :
         {std::tuple{"itemset_key", &faithful, 0.0},
          std::tuple{"candidate_id", &dense, 1.0}}) {
      countmode_table.add_row(
          {bench.name, label, Table::num(res->count_sim_s),
           Table::num(res->count_host_s, 3),
           Table::num(static_cast<double>(res->shuffle_bytes) / 1e6, 2),
           Table::num(res->itemsets)});
      json.add("countmode_sim_s:" + bench.name, x, res->count_sim_s);
      json.add("countmode_host_s:" + bench.name, x, res->count_host_s);
      json.add("countmode_shuffle_mb:" + bench.name, x,
               static_cast<double>(res->shuffle_bytes) / 1e6);
    }
    std::printf("  %s: host wall-clock faithful/dense %.2fx; counting sim "
                "faithful/dense %.2fx\n",
                bench.name.c_str(),
                faithful.count_host_s / dense.count_host_s,
                faithful.count_sim_s / dense.count_sim_s);
  }
  print_table(countmode_table, args);

  std::printf("\n-- Determinism sanitizer (engine/detsan.h): replay "
              "overhead at the default sample rate vs off --\n");
  Table detsan_table({"dataset", "detsan", "total(s)", "overhead",
                      "replayed", "divergences"});
  for (const auto& bench : benches) {
    double base_s = 0.0;
    for (const auto& [label, enabled, x] :
         {std::tuple{"off", false, 0.0}, std::tuple{"on", true, 1.0}}) {
      engine::Context::Options ctx_opt{.cluster = sim::ClusterConfig::paper()};
      ctx_opt.detsan.enabled = enabled;
      engine::Context ctx(ctx_opt);
      simfs::SimFS fs(ctx.cluster());
      fim::YafimOptions opt;
      opt.min_support = bench.paper_min_support;
      const auto run = fim::yafim_mine(ctx, fs, bench.db, opt);
      const double total = run.total_seconds();
      if (!enabled) base_s = total;
      YAFIM_CHECK(ctx.detsan().divergences() == 0,
                  "stock YAFIM must replay clean");
      detsan_table.add_row(
          {bench.name, label, Table::num(total),
           Table::num(total / base_s, 3) + "x",
           Table::num(ctx.detsan().tasks_replayed()),
           Table::num(ctx.detsan().divergences())});
      // perf_gate.py: series x=0 detsan off, x=1 on; on <= off * 1.10.
      json.add("detsan_sim_s:" + bench.name, x, total);
    }
  }
  print_table(detsan_table, args);

  std::printf("\n-- Streaming micro-batches: per-batch simulated latency vs "
              "ingest interval (stream/miner.h) --\n");
  Table stream_table({"dataset", "batches", "interval(s)", "steady batch(s)",
                      "widenings", "slack", "itemsets"});
  for (const auto& bench : benches) {
    engine::Context ctx(
        engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
    simfs::SimFS fs(ctx.cluster());
    stream::StreamOptions opt;
    opt.min_support = bench.paper_min_support;
    opt.num_batches = 12;
    opt.source.window_s = 5.0;
    // Stream the whole dataset exactly once across the run so the final
    // frontier reflects the full-dataset supports the other sections mine.
    opt.source.ingest_rate = static_cast<double>(bench.db.size()) /
                             (static_cast<double>(opt.num_batches) *
                              opt.source.window_s);
    const auto res = stream::stream_mine(ctx, fs, bench.db, opt);
    stream_table.add_row(
        {bench.name, Table::num(u64{res.batches.size()}),
         Table::num(res.ingest_interval_s, 2),
         Table::num(res.steady_batch_seconds(), 3),
         Table::num(res.widenings), Table::num(res.reverify_slack, 2),
         Table::num(res.itemsets.total())});
    for (const auto& batch : res.batches) {
      json.add("stream_batch_sim_s:" + bench.name,
               static_cast<double>(batch.batch), batch.sim_seconds);
    }
    json.add("stream_interval_s:" + bench.name, 0.0, res.ingest_interval_s);
  }
  print_table(stream_table, args);

  std::printf("\n-- Approximate mining (Toivonen sampling, fim/sampling.h): "
              "recall vs speed against exact YAFIM; precision is always 1 "
              "(verified supports) --\n");
  Table approx_table({"dataset", "p", "relax", "total(s)", "speedup",
                      "recall", "exact", "candidates", "border"});
  for (const auto& bench : benches) {
    engine::Context xctx(
        engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
    simfs::SimFS xfs(xctx.cluster());
    fim::YafimOptions xopt;
    xopt.min_support = bench.paper_min_support;
    const auto exact_run = fim::yafim_mine(xctx, xfs, bench.db, xopt);
    const double exact_s = exact_run.total_seconds();
    json.add("approx_exact_sim_s:" + bench.name, 0.0, exact_s);

    double x = 0.0;
    for (const auto& [p, r] :
         {std::pair{0.1, 0.5}, std::pair{0.2, 0.5}, std::pair{0.2, 0.8},
          std::pair{0.5, 1.0}}) {
      engine::Context ctx(
          engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
      simfs::SimFS fs(ctx.cluster());
      fim::SamplingOptions opt;
      opt.min_support = bench.paper_min_support;
      opt.sample_fraction = p;
      opt.relax = r;
      const auto sres = fim::sampling_mine(ctx, fs, bench.db, opt);
      // Soundness invariant, not a tolerance: every verified itemset must
      // be in the exact answer with the exact support.
      for (u32 k = 1; k <= sres.run.itemsets.max_k(); ++k) {
        for (const auto& [itemset, support] : sres.run.itemsets.level(k)) {
          YAFIM_CHECK(exact_run.itemsets.support_of(itemset) == support,
                      "approximate output disagrees with the exact miner");
        }
      }
      const double total = sres.run.total_seconds();
      const double recall =
          exact_run.itemsets.total() == 0
              ? 1.0
              : static_cast<double>(sres.run.itemsets.total()) /
                    static_cast<double>(exact_run.itemsets.total());
      approx_table.add_row(
          {bench.name, Table::num(p, 2), Table::num(r, 2), Table::num(total),
           Table::num(exact_s / total, 2) + "x", Table::num(recall, 4),
           sres.exact ? "yes" : "no", Table::num(sres.candidate_union),
           Table::num(sres.border_union)});
      json.add("approx_sim_s:" + bench.name, x, total);
      json.add("approx_recall:" + bench.name, x, recall);
      json.add("approx_exact:" + bench.name, x, sres.exact ? 1.0 : 0.0);
      x += 1.0;
    }
  }
  print_table(approx_table, args);

  std::printf("\n-- MapReduce job-combining strategies (Lin et al.) --\n");
  Table lin_table({"dataset", "strategy", "jobs", "speculative C",
                   "total(s)"});
  for (const auto& bench : benches) {
    for (const auto& [name, strategy] :
         {std::pair{"SPC", fim::CombineStrategy::kSinglePass},
          std::pair{"FPC", fim::CombineStrategy::kFixedPasses},
          std::pair{"DPC", fim::CombineStrategy::kDynamic}}) {
      engine::Context ctx(
          engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
      simfs::SimFS fs(ctx.cluster());
      fim::LinOptions opt;
      opt.min_support = bench.paper_min_support;
      opt.strategy = strategy;
      const auto lin = fim::lin_mine(ctx, fs, bench.db, opt);
      lin_table.add_row({bench.name, name, Table::num(u64{lin.num_jobs}),
                         Table::num(lin.speculative_candidates),
                         Table::num(lin.run.total_seconds())});
    }
  }
  print_table(lin_table, args);
  finish(args, &json);
  return 0;
}
