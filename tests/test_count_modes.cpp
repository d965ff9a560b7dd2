// Count-mode equivalence and pricing tests.
//
// The dense candidate-id path (CountMode::kCandidateId: pair kernel for a
// complete C2, task-local bitmap AND+popcount for every other tree) must be
// an exact drop-in for the paper-faithful itemset-keyed path: bit-identical
// FrequentItemsets across pass batching, fault/corruption injection,
// checkpoint resume and both engines, with mode-invariant observability
// counters (candidate generation, broadcast/DFS traffic) agreeing as well.
// Also covers both dense kernels against the hash-tree probe, the
// sum_arrays RDD action the dense path is built on and its sparse wire
// format, the adversarial-hash reduce bucket case, and the stage-pricing
// exactness fixes (split_work).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "datagen/benchmarks.h"
#include "engine/error.h"
#include "engine/rdd.h"
#include "fim/apriori_seq.h"
#include "fim/candidate_gen.h"
#include "fim/checkpoint.h"
#include "fim/count_core.h"
#include "fim/dist_eclat.h"
#include "fim/fp_growth.h"
#include "fim/mr_apriori.h"
#include "fim/pfp.h"
#include "fim/sampling.h"
#include "fim/yafim.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

constexpr CountMode kAllModes[] = {CountMode::kItemsetKey,
                                   CountMode::kCandidateId};

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
  // Pin injection off so exact counter assertions hold even when the whole
  // binary runs under the CI fault matrix; faulty cases opt in explicitly.
  opts.fault = engine::FaultProfile{};
  return opts;
}

TransactionDB random_db(u32 universe, int transactions, double density,
                        u64 seed) {
  Rng rng(seed);
  std::vector<Transaction> tx;
  for (int i = 0; i < transactions; ++i) {
    Transaction t;
    for (u32 item = 0; item < universe; ++item) {
      if (rng.bernoulli(density)) t.push_back(item);
    }
    if (t.empty()) t.push_back(static_cast<Item>(rng.below(universe)));
    tx.push_back(std::move(t));
  }
  return TransactionDB(std::move(tx));
}

MiningRun run_yafim(const TransactionDB& db, CountMode mode, u32 combine,
                    engine::Context::Options copts = small_cluster()) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster(), copts.fault.corrupt);
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.count_mode = mode;
  opt.combine_passes = combine;
  return yafim_mine(ctx, fs, db, opt);
}

// ---- bit-identity matrix ------------------------------------------------

TEST(CountModes, YafimBitIdenticalAcrossModesAndBatching) {
  const auto db = random_db(16, 250, 0.35, 42);
  AprioriOptions sopt;
  sopt.min_support = 0.2;
  const auto seq = apriori_mine(db, sopt);
  ASSERT_GT(seq.itemsets.total(), 0u);

  for (u32 combine : {1u, 3u}) {
    const auto faithful = run_yafim(db, CountMode::kItemsetKey, combine);
    EXPECT_TRUE(faithful.itemsets.same_itemsets(seq.itemsets))
        << "combine=" << combine;
    const auto run = run_yafim(db, CountMode::kCandidateId, combine);
    EXPECT_TRUE(run.itemsets.same_itemsets(faithful.itemsets))
        << "combine=" << combine;
    // Same candidate levels were generated and verified in both modes.
    ASSERT_EQ(run.passes.size(), faithful.passes.size());
    for (size_t i = 0; i < run.passes.size(); ++i) {
      EXPECT_EQ(run.passes[i].k, faithful.passes[i].k);
      EXPECT_EQ(run.passes[i].candidates, faithful.passes[i].candidates);
      EXPECT_EQ(run.passes[i].frequent, faithful.passes[i].frequent);
    }
  }
}

TEST(CountModes, YafimBitIdenticalUnderFaultInjection) {
  const auto db = random_db(14, 200, 0.4, 7);
  const auto reference = run_yafim(db, CountMode::kItemsetKey, 1);

  for (CountMode mode : kAllModes) {
    for (u32 combine : {1u, 3u}) {
      auto copts = small_cluster();
      copts.fault.seed = 99;
      copts.fault.task_failure_p = 0.05;
      copts.fault.straggler_p = 0.05;
      const auto run = run_yafim(db, mode, combine, copts);
      EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
          << count_mode_name(mode) << " combine=" << combine;
    }
  }
}

TEST(CountModes, YafimBitIdenticalUnderCorruptionInjection) {
  const auto db = random_db(14, 200, 0.4, 8);
  const auto reference = run_yafim(db, CountMode::kItemsetKey, 1);

  for (CountMode mode : kAllModes) {
    auto copts = small_cluster();
    copts.cluster.hdfs_block_bytes = 1024;
    copts.fault.corrupt.seed = 11;
    copts.fault.corrupt.block_p = 0.05;
    copts.fault.corrupt.cached_p = 0.1;
    const auto run = run_yafim(db, mode, 1, copts);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << count_mode_name(mode);
  }
}

TEST(CountModes, DenseResumeFromCheckpointIsBitIdentical) {
  // Crash mid-mine after the pair-kernel pass, resume from the snapshot:
  // the post-resume passes count through freshly built task-local bitmap
  // indexes and must not perturb the mined output.
  const auto db = random_db(16, 200, 0.45, 100);
  const auto reference = run_yafim(db, CountMode::kCandidateId, 1);
  ASSERT_GE(reference.passes.size(), 3u) << "need k >= 3 to test resume";

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ck_bitmap_resume";
  std::filesystem::remove_all(dir);
  DirCheckpointStore store(dir.string());
  engine::Context::Options copts = small_cluster();
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.count_mode = CountMode::kCandidateId;
  opt.checkpoint = &store;
  opt.stop_after_pass = 2;
  {
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    const auto partial = yafim_mine(ctx, fs, db, opt);
    EXPECT_EQ(partial.passes.back().k, 2u);
  }
  opt.stop_after_pass = 0;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const auto resumed = yafim_mine(ctx, fs, db, opt);
  EXPECT_EQ(resumed.resumed_pass, 2u);
  EXPECT_EQ(resumed.itemsets.sorted(), reference.itemsets.sorted());
}

// ---- observability-counter agreement ------------------------------------

/// Counters that must not depend on how counting is performed at all:
/// candidate generation and broadcast/DFS traffic are identical across
/// both modes -- except that kCandidateId also broadcasts the pass-2 pair
/// index.
const obs::CounterId kModeInvariantCounters[] = {
    obs::CounterId::kCandidatesGenerated,
    obs::CounterId::kCandidatesPruned,
    obs::CounterId::kBroadcastBytes,
    obs::CounterId::kDfsReadBytes,
};

/// The C2 tree yafim builds for `db` at its default tree shape:
/// apriori_gen over the frequent items of a reference run.
HashTree c2_tree(const TransactionDB& db) {
  const MiningRun run = run_yafim(db, CountMode::kItemsetKey, 1);
  std::vector<Itemset> l1;
  for (const auto& [itemset, support] : run.itemsets.level(1)) {
    l1.push_back(itemset);
  }
  const YafimOptions defaults;
  return HashTree(apriori_gen(l1, 2), defaults.branching,
                  defaults.leaf_capacity);
}

TEST(CountModes, MrAprioriBitIdenticalAcrossModes) {
  // The second input's C2 is a complete pair set (pair kernel) and its
  // later levels are not (bitmap), so one dense run reaches both kernels.
  const TransactionDB inputs[] = {random_db(16, 250, 0.35, 42),
                                  random_db(14, 300, 0.5, 43)};
  ASSERT_NE(c2_tree(inputs[1]).pair_index(), nullptr);
  for (const TransactionDB& db : inputs) {
    const auto reference = fp_growth_mine(db, 0.2);
    for (CountMode mode : kAllModes) {
      engine::Context ctx(small_cluster());
      simfs::SimFS fs(ctx.cluster());
      MrAprioriOptions opt;
      opt.min_support = 0.2;
      opt.count_mode = mode;
      const auto run = mr_apriori_mine(ctx, fs, db, opt);
      EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
          << count_mode_name(mode);
      if (&db == &inputs[1]) {
        EXPECT_GE(run.passes.size(), 3u);
      }
    }
  }
}

std::vector<u64> traced_counters(const TransactionDB& db, CountMode mode,
                                 u32 combine, engine::Context::Options copts,
                                 std::span<const obs::CounterId> ids) {
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(db, mode, combine, copts);
  obs::set_enabled(false);
  std::vector<u64> values;
  for (obs::CounterId id : ids) values.push_back(obs::counter_value(id));
  return values;
}

TEST(CountModes, ModeInvariantCountersAgree) {
  const auto db = random_db(15, 220, 0.35, 21);
  const HashTree c2 = c2_tree(db);
  ASSERT_NE(c2.pair_index(), nullptr);
  const u64 pair_bytes = c2.pair_index()->serialized_bytes();
  for (u32 combine : {1u, 3u}) {
    const auto faithful = traced_counters(
        db, CountMode::kItemsetKey, combine, small_cluster(),
        kModeInvariantCounters);
    const auto dense = traced_counters(db, CountMode::kCandidateId, combine,
                                       small_cluster(),
                                       kModeInvariantCounters);
    ASSERT_EQ(faithful.size(), dense.size());
    for (size_t i = 0; i < faithful.size(); ++i) {
      // The dense path also broadcasts the pass-2 pair index.
      const bool shipped_pair_index =
          kModeInvariantCounters[i] == obs::CounterId::kBroadcastBytes;
      EXPECT_EQ(faithful[i] + (shipped_pair_index ? pair_bytes : 0), dense[i])
          << obs::counter_name(kModeInvariantCounters[i])
          << " combine=" << combine;
    }
  }
}

TEST(CountModes, DensePathWalksNoTree) {
  // Dense enough that pass 3 has candidates: a tree without a pair index.
  const auto db = random_db(15, 220, 0.5, 21);
  ASSERT_NE(c2_tree(db).pair_index(), nullptr);
  auto traced = [&](CountMode mode, MiningRun& run) {
    obs::CounterRegistry::instance().reset_all();
    obs::set_enabled(true);
    run = run_yafim(db, mode, 1);
    obs::set_enabled(false);
    return std::vector<u64>{
        obs::counter_value(obs::CounterId::kHashTreeNodesVisited),
        obs::counter_value(obs::CounterId::kHashTreeCandChecks),
        obs::counter_value(obs::CounterId::kBitmapAndWords)};
  };
  MiningRun faithful, dense;
  const auto faithful_counters = traced(CountMode::kItemsetKey, faithful);
  const auto dense_counters = traced(CountMode::kCandidateId, dense);
  ASSERT_GE(dense.passes.size(), 3u);
  EXPECT_EQ(dense.itemsets.sorted(), faithful.itemsets.sorted());
  // The faithful path walks every tree and never touches a bitmap...
  EXPECT_GT(faithful_counters[0], 0u);
  EXPECT_GT(faithful_counters[1], 0u);
  EXPECT_EQ(faithful_counters[2], 0u);
  // ...the dense path walks none: C2 goes through the pair kernel, the
  // later trees through bitmap AND+popcount.
  EXPECT_EQ(dense_counters[0], 0u);
  EXPECT_EQ(dense_counters[1], 0u);
  EXPECT_GT(dense_counters[2], 0u);
  EXPECT_GT(obs::counter_value(obs::CounterId::kBitmapIndexBytes), 0u);
  EXPECT_GT(obs::counter_value(obs::CounterId::kBitmapPopcounts), 0u);
}

TEST(CountModes, CountersReproducibleUnderFaultInjection) {
  // Under injection the retry schedule perturbs probe counters, so the
  // cross-mode comparison no longer applies; what must still hold is exact
  // run-to-run reproducibility for a fixed (mode, seed).
  const auto db = random_db(14, 180, 0.4, 5);
  for (CountMode mode : kAllModes) {
    auto copts = small_cluster();
    copts.fault.seed = 123;
    copts.fault.task_failure_p = 0.08;
    const auto first =
        traced_counters(db, mode, 1, copts, kModeInvariantCounters);
    const auto second =
        traced_counters(db, mode, 1, copts, kModeInvariantCounters);
    EXPECT_EQ(first, second) << count_mode_name(mode);
  }
}

TEST(CountModes, BitIdenticalUnderComposedMemShrinkAndTaskFailures) {
  // Two fault axes in the SAME run: a mid-run executor-memory shrink (which
  // flips later passes to the partitioned candidate store) composed with
  // task-failure injection (which perturbs the retry schedule). Every mode
  // must still produce the clean run's exact itemsets -- the degraded
  // counting path and the retried tasks may not interact destructively.
  const auto db = random_db(14, 200, 0.4, 19);
  const auto clean = run_yafim(db, CountMode::kItemsetKey, 1);
  ASSERT_GT(clean.itemsets.total(), 0u);

  for (u64 seed : {101ull, 211ull}) {
    for (CountMode mode : kAllModes) {
      auto copts = small_cluster();
      copts.fault.seed = seed;
      copts.fault.task_failure_p = 0.08;
      copts.fault.mem_shrink_pass = 2;
      copts.fault.mem_shrink_factor = 1e-9;
      copts.fault.mem_shrink_node = 1;

      engine::Context ctx(copts);
      simfs::SimFS fs(ctx.cluster());
      YafimOptions opt;
      opt.min_support = 0.2;
      opt.count_mode = mode;
      const auto run = yafim_mine(ctx, fs, db, opt);
      EXPECT_TRUE(run.itemsets.same_itemsets(clean.itemsets))
          << count_mode_name(mode) << " seed=" << seed;
      // Both axes actually fired.
      EXPECT_GT(ctx.memory_budget().mem_shrinks_applied(), 0u)
          << count_mode_name(mode) << " seed=" << seed;
      EXPECT_GT(ctx.fault_injector().task_retries(), 0u)
          << count_mode_name(mode) << " seed=" << seed;
      EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u)
          << count_mode_name(mode) << " seed=" << seed;
    }
  }
}

// ---- dense kernels: pass-2 pair index and task-local bitmaps ------------

/// apriori_gen(L1, 2) over the given frequent items.
std::vector<Itemset> all_pairs(const std::vector<Item>& items) {
  std::vector<Itemset> l1;
  for (Item item : items) l1.push_back({item});
  return apriori_gen(l1, 2);
}

/// Every candidate's support over `txns`, in the batch-global id space of
/// `ct`, counted through count_candidate_trees in `mode` (min_count 1, so
/// every nonzero cell comes back).
std::vector<u64> core_counts(const std::vector<Transaction>& txns,
                             const CandidateTrees& ct, CountMode mode) {
  engine::Context ctx(small_cluster());
  auto rdd = ctx.parallelize(txns);
  CountCoreOptions opt;
  opt.count_mode = mode;
  opt.min_count = 1;
  opt.pass_name = "pass2";
  std::map<Itemset, u64> id;
  for (const HashTree& tree : *ct.trees) {
    for (u32 ci = 0; ci < tree.size(); ++ci) {
      id[tree.candidate(ci)] = tree.id_offset() + ci;
    }
  }
  std::vector<u64> out(ct.id_space, 0);
  for (const auto& [itemset, support] : count_candidate_trees(
           ctx, rdd, ct.trees, ct.bytes, ct.id_space, nullptr, opt)) {
    out[id.at(itemset)] = support;
  }
  return out;
}

/// The same counts from a direct hash-tree probe of every transaction.
std::vector<u64> probe_counts(const std::vector<Transaction>& txns,
                              const CandidateTrees& ct) {
  std::vector<u64> out(ct.id_space, 0);
  HashTree::Probe probe;
  for (const Transaction& t : txns) {
    for (const HashTree& tree : *ct.trees) {
      tree.for_each_contained(
          t, probe, [&](u32 ci) { ++out[tree.id_offset() + ci]; });
    }
  }
  return out;
}

/// What the kCandidateId run of expect_counts_agree did: hash-tree nodes
/// it visited and bitmap words it ANDed.
struct DenseWork {
  u64 nodes_visited = 0;
  u64 and_words = 0;
};

/// Dense kernels (kCandidateId), hash-tree probe and kItemsetKey agree
/// cell for cell; returns the work the kCandidateId run did.
DenseWork expect_counts_agree(const std::vector<Transaction>& txns,
                              const CandidateTrees& ct) {
  const auto probed = probe_counts(txns, ct);
  EXPECT_GT(*std::max_element(probed.begin(), probed.end()), 0u);
  EXPECT_EQ(core_counts(txns, ct, CountMode::kItemsetKey), probed);
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  EXPECT_EQ(core_counts(txns, ct, CountMode::kCandidateId), probed);
  obs::set_enabled(false);
  return {obs::counter_value(obs::CounterId::kHashTreeNodesVisited),
          obs::counter_value(obs::CounterId::kBitmapAndWords)};
}

TEST(PairKernel, CompleteC2MatchesTreeProbeAndItemsetKey) {
  const auto db = random_db(20, 300, 0.3, 61);
  std::vector<Item> items(20);
  std::iota(items.begin(), items.end(), 0);
  const auto ct = build_candidate_trees({all_pairs(items)}, 8, 16);
  ASSERT_NE(ct.trees->front().pair_index(), nullptr);
  // Counted by the pair kernel alone: no tree walk, no bitmap.
  const DenseWork work = expect_counts_agree(db.transactions(), ct);
  EXPECT_EQ(work.nodes_visited, 0u);
  EXPECT_EQ(work.and_words, 0u);
}

TEST(PairKernel, IncompleteC2FallsBackToTheBitmap) {
  const auto db = random_db(20, 300, 0.3, 62);
  std::vector<Item> items(20);
  std::iota(items.begin(), items.end(), 0);
  auto pairs = all_pairs(items);
  pairs.erase(pairs.begin() + 7);
  const auto ct = build_candidate_trees({pairs}, 8, 16);
  EXPECT_EQ(ct.trees->front().pair_index(), nullptr);
  const DenseWork work = expect_counts_agree(db.transactions(), ct);
  EXPECT_EQ(work.nodes_visited, 0u);
  EXPECT_GT(work.and_words, 0u);
}

TEST(PairKernel, CombinedLevelsShareOneIdSpace) {
  // combine_passes = 2: a level-2 tree (pair kernel) and a level-3 tree
  // (bitmap) counted into one array, C3's ids after C2's.
  const auto db = random_db(12, 300, 0.45, 63);
  std::vector<Item> items(12);
  std::iota(items.begin(), items.end(), 0);
  auto c2 = all_pairs(items);
  auto c3 = apriori_gen(c2, 3);
  const auto ct = build_candidate_trees({c2, c3}, 8, 16);
  ASSERT_EQ(ct.trees->size(), 2u);
  ASSERT_NE((*ct.trees)[0].pair_index(), nullptr);
  EXPECT_EQ((*ct.trees)[1].pair_index(), nullptr);
  EXPECT_EQ((*ct.trees)[1].id_offset(), (*ct.trees)[0].size());
  const DenseWork work = expect_counts_agree(db.transactions(), ct);
  EXPECT_EQ(work.nodes_visited, 0u);
  EXPECT_GT(work.and_words, 0u);
}

TEST(PairKernel, SparseRanksAndItemsAboveTheLargestRank) {
  // Ranked items are a sparse subset of 0..39, the largest 22; transactions
  // include ones with no or one ranked item and items above 22.
  const std::vector<Item> ranked{1, 4, 6, 9, 13, 17, 22};
  const auto ct = build_candidate_trees({all_pairs(ranked)}, 8, 16);
  ASSERT_NE(ct.trees->front().pair_index(), nullptr);
  std::vector<Transaction> txns{
      {}, {1}, {2, 3}, {4, 30, 35}, {23, 24, 39}, {0, 22},
      {22, 23}, {1, 22, 38}, {5, 7, 8, 10, 11}, {9, 13, 17, 22, 23, 39}};
  Rng rng(64);
  for (int i = 0; i < 200; ++i) {
    Transaction t;
    for (Item item = 0; item < 40; ++item) {
      if (rng.bernoulli(0.3)) t.push_back(item);
    }
    txns.push_back(std::move(t));
  }
  const DenseWork work = expect_counts_agree(txns, ct);
  EXPECT_EQ(work.nodes_visited, 0u);
  EXPECT_EQ(work.and_words, 0u);
}

TEST(PairKernel, YafimOnT10MatchesFpGrowth) {
  const auto bench = datagen::make_t10i4d100k(/*scale=*/0.1);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = bench.paper_min_support;
  opt.count_mode = CountMode::kCandidateId;
  const auto run = yafim_mine(ctx, fs, bench.db, opt);
  const auto reference = fp_growth_mine(bench.db, bench.paper_min_support);
  ASSERT_GT(run.passes.size(), 2u);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));
}

// ---- sum_arrays ---------------------------------------------------------

TEST(SumArrays, ElementwiseSumAcrossPartitions) {
  engine::Context ctx(small_cluster());
  const size_t width = 37;
  std::vector<std::vector<u64>> arrays;
  std::vector<u64> expected(width, 0);
  Rng rng(3);
  for (int i = 0; i < 24; ++i) {
    std::vector<u64> a(width);
    for (size_t j = 0; j < width; ++j) {
      a[j] = rng.below(1000);
      expected[j] += a[j];
    }
    arrays.push_back(std::move(a));
  }
  const auto merged =
      ctx.parallelize(std::move(arrays), 6).sum_arrays(width);
  EXPECT_EQ(merged, expected);
}

/// Length of `v` as a LEB128 varint.
u64 varint_len(u64 v) {
  u64 n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

const sim::StageRecord* find_stage(const engine::Context& ctx,
                                   const std::string& label) {
  for (const auto& s : ctx.report().stages()) {
    if (s.label == label) return &s;
  }
  return nullptr;
}

TEST(SumArrays, ShuffleBytesAreTheEncodedNonzeroCells) {
  engine::Context ctx(small_cluster());
  const size_t width = 1000;
  const u64 big = (u64{1} << 32) + 5;  // does not fit in 32 bits
  // Four arrays over three partitions: {a0, a1}, {a2}, {a3}. Partition 1
  // is all zeros.
  std::vector<std::vector<u64>> arrays(4, std::vector<u64>(width, 0));
  arrays[0][0] = 1;
  arrays[0][1] = 300;
  arrays[1][1] = 7;
  arrays[1][width - 1] = big;
  arrays[3][500] = 3;
  const auto merged =
      ctx.parallelize(std::move(arrays), 3).sum_arrays(width, "sum");

  std::vector<u64> expected(width, 0);
  expected[0] = 1;
  expected[1] = 307;
  expected[width - 1] = big;
  expected[500] = 3;
  EXPECT_EQ(merged, expected);

  // Each nonzero cell costs varint(gap) + varint(count), the gap measured
  // from the previous cell's successor within its reduce slice (from the
  // slice start for the first). The all-zero partition ships nothing but
  // its empty segments.
  const size_t slices = std::min<size_t>(ctx.default_partitions(), width);
  ASSERT_GT(slices, 1u);
  auto slice_start = [&](size_t i) {
    size_t r = 0;
    while (width * (r + 1) / slices <= i) ++r;
    return width * r / slices;
  };
  auto encoded = [&](const std::vector<std::pair<size_t, u64>>& cells) {
    u64 bytes = 0;
    size_t next = 0;
    for (const auto& [i, v] : cells) {
      next = std::max(next, slice_start(i));
      bytes += varint_len(i - next) + varint_len(v);
      next = i + 1;
    }
    return bytes;
  };
  const u64 part0 = encoded({{0, 1}, {1, 307}, {width - 1, big}});
  const u64 part2 = encoded({{500, 3}});
  // Cell width-1 sits at gap 999 - slice start into the last slice, and
  // the 2^32 + 5 count takes five varint bytes.
  EXPECT_EQ(part0, 1 + 1 + 1 + 2 +
                       varint_len(width - 1 - slice_start(width - 1)) + 5);
  const sim::StageRecord* map = find_stage(ctx, "sum:map-combine");
  const sim::StageRecord* reduce = find_stage(ctx, "sum:reduce");
  ASSERT_NE(map, nullptr);
  ASSERT_NE(reduce, nullptr);
  EXPECT_EQ(map->shuffle_bytes, part0 + part2);
  EXPECT_EQ(ctx.report().total_shuffle_bytes(), part0 + part2);
  // Map side scans every cell of every input array; reduce side merges
  // only the cells that crossed the shuffle.
  u64 map_work = 0, reduce_work = 0;
  for (const auto& t : map->tasks) map_work += t.work;
  for (const auto& t : reduce->tasks) reduce_work += t.work;
  EXPECT_EQ(map_work, 4 * width);
  EXPECT_EQ(reduce_work, 4u);
}

TEST(SumArrays, AllZeroInputShipsNoCells) {
  engine::Context ctx(small_cluster());
  std::vector<std::vector<u64>> arrays(6, std::vector<u64>(64, 0));
  const auto merged =
      ctx.parallelize(std::move(arrays), 3).sum_arrays(64, "sum");
  EXPECT_EQ(merged, std::vector<u64>(64, 0));
  EXPECT_EQ(ctx.report().total_shuffle_bytes(), 0u);
}

TEST(SumArrays, SignedAndFloatingCellsRoundTrip) {
  engine::Context ctx(small_cluster());
  std::vector<std::vector<i64>> ints{{-5, 0, 3}, {2, 0, -1}, {0, 0, -9}};
  EXPECT_EQ(ctx.parallelize(std::move(ints), 2).sum_arrays(3),
            (std::vector<i64>{-3, 0, -7}));
  std::vector<std::vector<double>> reals{{0.5, -2.25}, {0.0, 1.0}};
  EXPECT_EQ(ctx.parallelize(std::move(reals), 2).sum_arrays(2),
            (std::vector<double>{0.5, -1.25}));
}

TEST(SumArrays, WidthMismatchThrows) {
  engine::Context ctx(small_cluster());
  std::vector<std::vector<u64>> arrays{{1, 2, 3}, {4, 5}};
  auto rdd = ctx.parallelize(std::move(arrays), 2);
  try {
    (void)rdd.sum_arrays(3);
    FAIL() << "expected EngineError";
  } catch (const engine::EngineError& e) {
    EXPECT_EQ(e.kind(), engine::EngineErrorKind::kArrayWidthMismatch);
  }
}

TEST(SumArrays, EmptyPartitionsContributeZeros) {
  engine::Context ctx(small_cluster());
  // 2 arrays over 8 partitions: most partitions are empty.
  std::vector<std::vector<u64>> arrays{{1, 2}, {10, 20}};
  const auto merged = ctx.parallelize(std::move(arrays), 8).sum_arrays(2);
  EXPECT_EQ(merged, (std::vector<u64>{11, 22}));
}

// ---- adversarial hashing ------------------------------------------------

/// Deterministic hash sending every key to the same reduce bucket.
struct CollidingHash {
  size_t operator()(int) const { return 7; }
};

TEST(ReduceByKey, AdversarialHashAllKeysOneBucket) {
  engine::Context ctx(small_cluster());
  std::vector<std::pair<int, u64>> pairs;
  std::unordered_map<int, u64> expected;
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const int k = static_cast<int>(rng.below(500));
    pairs.emplace_back(k, 1);
    expected[k] += 1;
  }
  auto result = ctx.parallelize(std::move(pairs), 8)
                    .reduce_by_key([](u64 a, u64 b) { return a + b; },
                                   /*out_partitions=*/6, CollidingHash{})
                    .collect();
  // Correct totals even though all 500 keys land in one reduce bucket.
  ASSERT_EQ(result.size(), expected.size());
  for (const auto& [k, v] : result) EXPECT_EQ(v, expected.at(k)) << k;
}

// ---- stage-pricing exactness --------------------------------------------

TEST(Pricing, SplitWorkDistributesRemainderExactly) {
  for (u64 total : {0ull, 1ull, 999ull, 1000ull, 12345ull}) {
    for (u32 tasks : {1u, 3u, 7u, 16u}) {
      const auto recs = sim::split_work(total, tasks);
      ASSERT_EQ(recs.size(), tasks);
      u64 sum = 0, lo = ~0ull, hi = 0;
      for (const auto& r : recs) {
        sum += r.work;
        lo = std::min(lo, r.work);
        hi = std::max(hi, r.work);
      }
      EXPECT_EQ(sum, total) << total << "/" << tasks;
      EXPECT_LE(hi - lo, 1u) << "split must be even";
    }
  }
}

/// One Spark-side miner's load stage: its label and a run of the miner
/// over `db` at 7 partitions.
struct ParseStageCase {
  const char* name;
  const char* label;
  std::function<void(engine::Context&, simfs::SimFS&, const TransactionDB&)>
      mine;
};

template <typename Options>
Options parse_case_options() {
  Options opt;
  opt.min_support = 0.3;
  opt.partitions = 7;
  return opt;
}

const ParseStageCase kParseStages[] = {
    {"Yafim", "load:textFile+parse",
     [](engine::Context& ctx, simfs::SimFS& fs, const TransactionDB& db) {
       (void)yafim_mine(ctx, fs, db, parse_case_options<YafimOptions>());
     }},
    {"Sampling", "load:textFile+parse",
     [](engine::Context& ctx, simfs::SimFS& fs, const TransactionDB& db) {
       (void)sampling_mine(ctx, fs, db, parse_case_options<SamplingOptions>());
     }},
    {"Pfp", "pfp:load+parse",
     [](engine::Context& ctx, simfs::SimFS& fs, const TransactionDB& db) {
       (void)pfp_mine(ctx, fs, db, parse_case_options<PfpOptions>());
     }},
    {"DistEclat", "disteclat:load+parse",
     [](engine::Context& ctx, simfs::SimFS& fs, const TransactionDB& db) {
       (void)dist_eclat_mine(ctx, fs, db,
                             parse_case_options<DistEclatOptions>());
     }},
};

void PrintTo(const ParseStageCase& c, std::ostream* os) { *os << c.name; }

class ParseStage : public ::testing::TestWithParam<ParseStageCase> {};

TEST_P(ParseStage, TotalIsExact) {
  // 1009 records (prime) over 7 tasks: the stage total is not divisible by
  // the task count, which is what used to truncate up to tasks-1 work
  // units off the stage.
  const auto db = random_db(12, 1009, 0.3, 2);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  GetParam().mine(ctx, fs, db);

  bool found = false;
  for (const auto& s : ctx.report().stages()) {
    if (s.label != GetParam().label) continue;
    found = true;
    EXPECT_EQ(s.tasks.size(), 7u);
    u64 priced = 0;
    for (const auto& t : s.tasks) priced += t.work;
    EXPECT_EQ(priced, 1009u * (1 + ctx.cluster().record_parse_work));
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(
    Pricing, ParseStage, ::testing::ValuesIn(kParseStages),
    [](const ::testing::TestParamInfo<ParseStageCase>& info) {
      return std::string(info.param.name);
    });

// ---- dense-path stage accounting ---------------------------------------

TEST(CountModes, DensePathRecordsArrayReduceCounters) {
  const auto db = random_db(15, 220, 0.35, 21);
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(db, CountMode::kCandidateId, 1);
  obs::set_enabled(false);
  EXPECT_GT(obs::counter_value(obs::CounterId::kArrayReduceBytes), 0u);
  EXPECT_GT(obs::counter_value(obs::CounterId::kArrayReduceCells), 0u);
}

TEST(CountModes, DenseShuffleSmallerThanFaithful) {
  // The headline accounting claim: candidate-id counting prices its
  // shuffle by the candidate-array width, the faithful path by hits.
  const auto db = random_db(16, 400, 0.35, 33);
  engine::Context ctx_f(small_cluster());
  simfs::SimFS fs_f(ctx_f.cluster());
  YafimOptions faithful;
  faithful.min_support = 0.2;
  faithful.count_mode = CountMode::kItemsetKey;
  (void)yafim_mine(ctx_f, fs_f, db, faithful);

  engine::Context ctx_d(small_cluster());
  simfs::SimFS fs_d(ctx_d.cluster());
  YafimOptions dense = faithful;
  dense.count_mode = CountMode::kCandidateId;
  (void)yafim_mine(ctx_d, fs_d, db, dense);

  EXPECT_LT(ctx_d.report().total_shuffle_bytes(),
            ctx_f.report().total_shuffle_bytes());
}

}  // namespace
}  // namespace yafim::fim
