// Memory-pressure-aware execution tests.
//
// The broadcast ceiling must bend, not break: when a pass's candidate trees
// outgrow the executor-memory budget (engine::MemoryBudget), the miners
// degrade to the partitioned candidate store; when shuffle buffers outgrow
// theirs, map outputs spill to simfs (optionally yz-compressed). Every
// degradation must be invisible in the mined output -- bit-identical
// FrequentItemsets across full / partitioned / spilling runs, including a
// checkpoint resume that lands mid-degradation -- and visible in the
// always-on counters and the linter (YL002 downgraded error -> note when
// the fallback engages). Also pins the Context::broadcast live-fraction
// pricing round-up under executor blacklisting.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine/broadcast.h"
#include "engine/context.h"
#include "engine/lint.h"
#include "engine/rdd.h"
#include "fim/apriori_seq.h"
#include "fim/checkpoint.h"
#include "fim/hash_tree.h"
#include "fim/mr_apriori.h"
#include "fim/yafim.h"
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

MiningRun run_yafim(const TransactionDB& db, const YafimOptions& opt,
                    engine::Context::Options copts = small_cluster()) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster(), copts.fault.corrupt);
  return yafim_mine(ctx, fs, db, opt);
}

// ---- candidate sharding primitives --------------------------------------

TEST(CandidateShard, DeterministicAndInRange) {
  for (u32 nshards : {1u, 2u, 7u, 64u}) {
    for (Item item = 0; item < 100; ++item) {
      const u32 s = candidate_shard(item, nshards);
      EXPECT_LT(s, nshards);
      EXPECT_EQ(s, candidate_shard(item, nshards));
    }
  }
}

TEST(ShardHashTree, PartitionsCandidatesByFirstItemWithGlobalIds) {
  std::vector<Itemset> cands = {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}};
  HashTree tree(cands, /*branching=*/4, /*leaf_capacity=*/2);
  tree.set_id_offset(100);
  const u32 nshards = 4;
  const auto shards = shard_hash_tree(tree, nshards, 4, 2);
  ASSERT_EQ(shards.size(), nshards);

  u32 total = 0;
  std::vector<bool> seen_id(cands.size(), false);
  for (u32 s = 0; s < nshards; ++s) {
    ASSERT_EQ(shards[s].tree.size(), shards[s].global_ids.size());
    for (u32 ci = 0; ci < shards[s].tree.size(); ++ci) {
      const auto items = shards[s].tree.candidate_items(ci);
      // Every candidate landed on the shard its first item hashes to...
      EXPECT_EQ(candidate_shard(items[0], nshards), s);
      // ...and carries its original batch-global dense id.
      const u64 gid = shards[s].global_ids[ci];
      ASSERT_GE(gid, 100u);
      ASSERT_LT(gid, 100u + cands.size());
      EXPECT_FALSE(seen_id[gid - 100]) << "duplicate global id " << gid;
      seen_id[gid - 100] = true;
      EXPECT_EQ(tree.candidate(static_cast<u32>(gid - 100)),
                shards[s].tree.candidate(ci));
      ++total;
    }
  }
  EXPECT_EQ(total, cands.size());
}

TEST(ShardHashTree, SingleShardIsTheWholeTree) {
  std::vector<Itemset> cands = {{0, 1}, {5, 6}, {9, 11}};
  HashTree tree(cands, 4, 2);
  const auto shards = shard_hash_tree(tree, 1, 4, 2);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].tree.size(), cands.size());
}

// ---- bit-identity: partitioned broadcast --------------------------------

TEST(MemoryPressure, PartitionedBroadcastBitIdenticalAcrossCountModes) {
  const auto db = random_db(16, 250, 0.35, 42);
  AprioriOptions sopt;
  sopt.min_support = 0.2;
  const auto seq = apriori_mine(db, sopt);
  ASSERT_GT(seq.itemsets.total(), 0u);

  YafimOptions base;
  base.min_support = 0.2;
  base.count_mode = CountMode::kItemsetKey;
  base.broadcast_mode = BroadcastMode::kFull;

  for (u32 combine : {1u, 2u}) {
    // Speculative levels from combined passes add zero-frequent pass
    // entries, so the per-pass comparison must hold `combine` fixed.
    YafimOptions full_opt = base;
    full_opt.combine_passes = combine;
    const auto full = run_yafim(db, full_opt);
    EXPECT_TRUE(full.itemsets.same_itemsets(seq.itemsets))
        << "combine=" << combine;
    for (CountMode mode : kAllModes) {
      YafimOptions opt = full_opt;
      opt.count_mode = mode;
      opt.broadcast_mode = BroadcastMode::kPartitioned;
      const auto part = run_yafim(db, opt);
      EXPECT_TRUE(part.itemsets.same_itemsets(full.itemsets))
          << count_mode_name(mode) << " combine=" << combine;
      // Same candidate levels generated and verified in every mode.
      ASSERT_EQ(part.passes.size(), full.passes.size());
      for (size_t i = 0; i < part.passes.size(); ++i) {
        EXPECT_EQ(part.passes[i].candidates, full.passes[i].candidates);
        EXPECT_EQ(part.passes[i].frequent, full.passes[i].frequent);
      }
    }
  }
}

/// Shard-count boundary cases for the partitioned store: a single shard
/// (degenerate -- the "partitioned" plan with the whole tree in one place)
/// and far more shards than distinct first items (most shards hold no
/// candidates and receive no transactions). Both must merge per-shard dense
/// arrays via sum_arrays into exactly the counts the itemset-keyed shuffle
/// produces.
TEST(MemoryPressure, ShardCountBoundaryCasesMatchItemsetKeyCounts) {
  const auto db = random_db(16, 220, 0.35, 9);
  YafimOptions faithful;
  faithful.min_support = 0.2;
  faithful.count_mode = CountMode::kItemsetKey;
  faithful.broadcast_mode = BroadcastMode::kFull;
  const auto reference = run_yafim(db, faithful);

  for (u32 shards : {1u, 3u, 257u}) {
    YafimOptions opt = faithful;
    opt.count_mode = CountMode::kCandidateId;
    opt.broadcast_mode = BroadcastMode::kPartitioned;
    opt.broadcast_shards = shards;
    const auto run = run_yafim(db, opt);
    // same_itemsets compares support counts cell by cell, so agreement here
    // means every shard-boundary merge produced the exact reference count.
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << "shards=" << shards;
  }
}

TEST(MemoryPressure, AutoModeFallsBackUnderTinyBudgetAndStaysExact) {
  const auto db = random_db(16, 250, 0.35, 42);
  YafimOptions ref_opt;
  ref_opt.min_support = 0.2;
  const auto reference = run_yafim(db, ref_opt);

  auto copts = small_cluster();
  copts.cluster.executor_memory_bytes = 1024;  // smaller than any real tree
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt = ref_opt;
  opt.broadcast_mode = BroadcastMode::kAuto;
  const auto run = yafim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));
  EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u);
}

TEST(MemoryPressure, MrAprioriPartitionedSubJobsBitIdentical) {
  const auto db = random_db(16, 250, 0.35, 42);
  YafimOptions ref_opt;
  ref_opt.min_support = 0.2;
  const auto reference = run_yafim(db, ref_opt);

  for (CountMode mode : kAllModes) {
    auto copts = small_cluster();
    copts.cluster.executor_memory_bytes = 2048;
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    MrAprioriOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = mode;
    opt.broadcast_mode = BroadcastMode::kAuto;
    const auto run = mr_apriori_mine(ctx, fs, db, opt);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << count_mode_name(mode);
    EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u)
        << count_mode_name(mode);
  }
}

// ---- bit-identity: shuffle spill ----------------------------------------

TEST(MemoryPressure, ShuffleSpillBitIdenticalAndCounted) {
  const auto db = random_db(16, 300, 0.35, 5);
  for (CountMode mode : kAllModes) {
    YafimOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = mode;
    const auto reference = run_yafim(db, opt);

    auto copts = small_cluster();
    copts.cluster.shuffle_buffer_bytes = 512;  // force spill on every shuffle
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    const auto run = yafim_mine(ctx, fs, db, opt);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << count_mode_name(mode);

    const engine::MemoryBudget& mb = ctx.memory_budget();
    EXPECT_GT(mb.spill_blocks_written(), 0u) << count_mode_name(mode);
    // Every spilled block was read back (restore is not optional).
    EXPECT_EQ(mb.spill_blocks_read(), mb.spill_blocks_written())
        << count_mode_name(mode);
    // Keyed blocks carry mostly-zero length prefixes and counts: the yz
    // codec must actually shrink them, and the stored-bytes ledger must see
    // the compressed size. (sum_arrays blocks are already encoded cells,
    // which the spill stores as they are; see the test below.)
    EXPECT_GT(mb.spill_bytes_raw(), 0u) << count_mode_name(mode);
    EXPECT_LT(mb.spill_bytes_stored(), mb.spill_bytes_raw())
        << count_mode_name(mode);
  }
}

TEST(MemoryPressure, UncompressedSpillAlsoExact) {
  const auto db = random_db(16, 300, 0.35, 5);
  for (CountMode mode : kAllModes) {
    YafimOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = mode;
    const auto reference = run_yafim(db, opt);

    auto copts = small_cluster();
    copts.cluster.shuffle_buffer_bytes = 512;
    engine::Context ctx(copts);
    ctx.set_spill_compress(false);
    simfs::SimFS fs(ctx.cluster());
    const auto run = yafim_mine(ctx, fs, db, opt);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << count_mode_name(mode);
    const engine::MemoryBudget& mb = ctx.memory_budget();
    EXPECT_GT(mb.spill_blocks_written(), 0u) << count_mode_name(mode);
    EXPECT_EQ(mb.spill_blocks_read(), mb.spill_blocks_written())
        << count_mode_name(mode);
    EXPECT_EQ(mb.spill_bytes_stored(), mb.spill_bytes_raw())
        << count_mode_name(mode);
  }
}

/// sum_arrays spills its encoded blocks as they are: per map task, a u64
/// length and the encoded cells of every reduce slice, then a u64 count and
/// one u64 end offset per slice. Uncompressed, the spill stage therefore
/// writes exactly the map stage's shuffle bytes plus that framing;
/// compressed, never more.
TEST(MemoryPressure, SumArraysSpillsEncodedBlocks) {
  const auto db = random_db(16, 300, 0.35, 5);
  {
    YafimOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = CountMode::kCandidateId;
    const auto reference = run_yafim(db, opt);
    for (bool compress : {false, true}) {
      SCOPED_TRACE(compress ? "compressed" : "uncompressed");
      auto copts = small_cluster();
      copts.cluster.shuffle_buffer_bytes = 1;
      engine::Context ctx(copts);
      ctx.set_spill_compress(compress);
      simfs::SimFS fs(ctx.cluster());
      const auto run = yafim_mine(ctx, fs, db, opt);
      EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));

      std::map<std::string, const sim::StageRecord*> stages;
      for (const auto& st : ctx.report().stages()) stages[st.label] = &st;
      u32 spilled_passes = 0;
      for (const PassStats& pass : run.passes) {
        if (pass.k < 2) continue;
        const std::string count = "pass" + std::to_string(pass.k) + ":count";
        const auto spill = stages.find(count + ":spill");
        ASSERT_NE(spill, stages.end()) << count;
        const sim::StageRecord& map = *stages.at(count + ":map-combine");
        const u64 slices = stages.at(count + ":reduce")->tasks.size();
        const u64 framed = map.shuffle_bytes +
                           map.tasks.size() * sizeof(u64) * (2 + slices);
        if (compress) {
          EXPECT_LE(spill->second->dfs_write_bytes, framed) << count;
        } else {
          EXPECT_EQ(spill->second->dfs_write_bytes, framed) << count;
        }
        ++spilled_passes;
      }
      EXPECT_GT(spilled_passes, 0u);
    }
  }
}

TEST(MemoryPressure, MrAprioriSpillsUnderShuffleBudget) {
  const auto db = random_db(16, 250, 0.35, 42);
  MrAprioriOptions opt;
  opt.min_support = 0.2;
  engine::Context ref_ctx(small_cluster());
  simfs::SimFS ref_fs(ref_ctx.cluster());
  const auto reference = mr_apriori_mine(ref_ctx, ref_fs, db, opt);

  auto copts = small_cluster();
  copts.cluster.shuffle_buffer_bytes = 256;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const auto run = mr_apriori_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));
  EXPECT_GT(ctx.memory_budget().spill_blocks_written(), 0u);
}

// ---- deterministic memory fault axis ------------------------------------

TEST(MemoryPressure, MemShrinkAxisDegradesMidRunDeterministically) {
  const auto db = random_db(16, 200, 0.45, 100);
  YafimOptions opt;
  opt.min_support = 0.2;
  const auto reference = run_yafim(db, opt);
  ASSERT_GE(reference.passes.size(), 3u);

  auto run_shrunk = [&](u64* fallbacks, u64* shrinks) {
    auto copts = small_cluster();
    // Generous before the fault, effectively nothing on node 1 after it:
    // passes 1..2 broadcast in full, later passes must fall back.
    copts.cluster.executor_memory_bytes = 64ull << 20;
    copts.fault.mem_shrink_pass = 3;
    copts.fault.mem_shrink_factor = 1e-9;
    copts.fault.mem_shrink_node = 1;
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    const auto run = yafim_mine(ctx, fs, db, opt);
    *fallbacks = ctx.memory_budget().broadcast_fallbacks();
    *shrinks = ctx.memory_budget().mem_shrinks_applied();
    return run;
  };

  u64 fallbacks_a = 0, shrinks_a = 0, fallbacks_b = 0, shrinks_b = 0;
  const auto a = run_shrunk(&fallbacks_a, &shrinks_a);
  EXPECT_TRUE(a.itemsets.same_itemsets(reference.itemsets));
  EXPECT_EQ(shrinks_a, 1u) << "the shrink applies exactly once";
  EXPECT_GT(fallbacks_a, 0u) << "post-shrink passes must fall back";

  // Same seed -> same degradation point -> same counters and output.
  const auto b = run_shrunk(&fallbacks_b, &shrinks_b);
  EXPECT_TRUE(b.itemsets.same_itemsets(a.itemsets));
  EXPECT_EQ(fallbacks_b, fallbacks_a);
  EXPECT_EQ(shrinks_b, shrinks_a);
}

// ---- checkpoint resume mid-degradation ----------------------------------

TEST(MemoryPressure, ResumeMidDegradationIsBitIdentical) {
  // Crash after pass 2; the memory fault lands at pass 3, so the resumed
  // process mines its very first live pass already under pressure. The
  // rebuilt MemoryBudget must re-apply the shrink (begin_pass consults the
  // axis on every boundary) and the partitioned passes must reproduce the
  // uninterrupted run bit for bit.
  const auto db = random_db(16, 200, 0.45, 100);
  auto shrunk_opts = [] {
    auto copts = small_cluster();
    copts.cluster.executor_memory_bytes = 64ull << 20;
    copts.fault.mem_shrink_pass = 3;
    copts.fault.mem_shrink_factor = 1e-9;
    copts.fault.mem_shrink_node = 0;
    return copts;
  };

  YafimOptions opt;
  opt.min_support = 0.2;
  opt.broadcast_mode = BroadcastMode::kAuto;

  // Uninterrupted reference under the same fault profile.
  engine::Context ref_ctx(shrunk_opts());
  simfs::SimFS ref_fs(ref_ctx.cluster());
  const auto reference = yafim_mine(ref_ctx, ref_fs, db, opt);
  ASSERT_GE(reference.passes.size(), 3u) << "need k >= 3 to land mid-fault";
  ASSERT_GT(ref_ctx.memory_budget().broadcast_fallbacks(), 0u);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ck_mem_degrade";
  std::filesystem::remove_all(dir);
  DirCheckpointStore store(dir.string());
  opt.checkpoint = &store;
  opt.stop_after_pass = 2;
  {
    engine::Context ctx(shrunk_opts());
    simfs::SimFS fs(ctx.cluster());
    const auto partial = yafim_mine(ctx, fs, db, opt);
    EXPECT_EQ(partial.passes.back().k, 2u);
    // The crash happened before the fault's pass: no fallback yet.
    EXPECT_EQ(ctx.memory_budget().broadcast_fallbacks(), 0u);
  }
  opt.stop_after_pass = 0;
  engine::Context ctx(shrunk_opts());
  simfs::SimFS fs(ctx.cluster());
  const auto resumed = yafim_mine(ctx, fs, db, opt);
  EXPECT_EQ(resumed.resumed_pass, 2u);
  EXPECT_EQ(resumed.itemsets.sorted(), reference.itemsets.sorted());
  EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u);
}

TEST(MemoryPressure, BroadcastModeChangesCheckpointFingerprint) {
  // A snapshot mined under one broadcast mode must not be resumed by a run
  // configured with another (the degradation decision is part of the plan).
  const auto db = random_db(16, 200, 0.45, 100);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ck_mode_fingerprint";
  std::filesystem::remove_all(dir);
  DirCheckpointStore store(dir.string());

  YafimOptions opt;
  opt.min_support = 0.2;
  opt.checkpoint = &store;
  opt.broadcast_mode = BroadcastMode::kFull;
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    (void)yafim_mine(ctx, fs, db, opt);
  }
  opt.broadcast_mode = BroadcastMode::kPartitioned;
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  const auto rerun = yafim_mine(ctx, fs, db, opt);
  EXPECT_EQ(rerun.resumed_pass, 0u)
      << "foreign-mode snapshots must not match";
}

// ---- linter: YL002 error vs note ----------------------------------------

TEST(MemoryPressure, FallbackDowngradesYl002ToNote) {
  const auto db = random_db(16, 250, 0.35, 42);
  auto copts = small_cluster();
  copts.cluster.executor_memory_bytes = 1024;
  copts.lint.enabled = true;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.broadcast_mode = BroadcastMode::kAuto;
  (void)yafim_mine(ctx, fs, db, opt);
  ctx.linter().finalize();

  bool saw_note = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule != "YL002") continue;
    EXPECT_EQ(diag.severity, engine::LintSeverity::kNote) << diag.message;
    saw_note = true;
  }
  EXPECT_TRUE(saw_note) << "fallback must still be visible as a YL002 note";
  EXPECT_FALSE(ctx.linter().any_at_least(engine::LintSeverity::kWarn));
}

TEST(MemoryPressure, FullModeKeepsYl002Error) {
  const auto db = random_db(16, 250, 0.35, 42);
  auto copts = small_cluster();
  copts.cluster.executor_memory_bytes = 1024;
  copts.lint.enabled = true;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.broadcast_mode = BroadcastMode::kFull;
  (void)yafim_mine(ctx, fs, db, opt);
  ctx.linter().finalize();

  bool saw_error = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule == "YL002" &&
        diag.severity == engine::LintSeverity::kError) {
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(ctx.linter().any_at_least(engine::LintSeverity::kWarn));
}

// ---- broadcast pricing under blacklisting -------------------------------

TEST(BroadcastPricing, LiveFractionRoundsUpNotDown) {
  // 4 nodes, 1 blacklisted -> 3/4 of the payload is shipped. Truncating
  // division used to undercharge every payload whose bytes don't divide the
  // node count -- to zero for payloads under `nodes` bytes.
  auto opts = small_cluster();
  opts.cluster = sim::ClusterConfig::with_nodes(4);
  opts.fault.blacklist_after = 1;
  engine::Context ctx(opts);
  ctx.fault_injector().note_task_failure(0);
  ASSERT_EQ(ctx.fault_injector().live_nodes(), 3u);

  auto priced = [&](u64 payload_bytes) {
    const u64 before = ctx.report().total_broadcast_bytes();
    auto b = ctx.broadcast(int{7}, payload_bytes, "pricing-probe");
    (void)b;
    // Pending broadcast bytes attach to the next recorded stage.
    (void)ctx.parallelize(std::vector<int>{1, 2, 3}, 2).collect();
    return ctx.report().total_broadcast_bytes() - before;
  };

  EXPECT_EQ(priced(1), 1u);     // was 0 with truncation
  EXPECT_EQ(priced(5), 4u);     // ceil(5 * 3 / 4), was 3
  EXPECT_EQ(priced(100), 75u);  // exact multiples are unchanged
}

TEST(BroadcastPricing, HealthyClusterChargesFullPayload) {
  auto opts = small_cluster();
  opts.cluster = sim::ClusterConfig::with_nodes(4);
  engine::Context ctx(opts);
  auto b = ctx.broadcast(int{7}, 999, "pricing-probe");
  (void)b;
  (void)ctx.parallelize(std::vector<int>{1, 2, 3}, 2).collect();
  EXPECT_EQ(ctx.report().total_broadcast_bytes(), 999u);
}

}  // namespace
}  // namespace yafim::fim
