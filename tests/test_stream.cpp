// Streaming miner tests: source determinism, the snapshot codec's damage
// discipline, the backpressure ladder, and the exactly-once matrix -- a
// kill at every phase of a mid-stream batch, across both CountModes,
// with and without memory-pressure degradation engaged, each resumed run
// required to be bit-identical with the uninterrupted one (and the final
// output exact against sequential Apriori over the ingested history).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "engine/lint.h"
#include "fim/apriori_seq.h"
#include "fim/checkpoint.h"
#include "stream/backpressure.h"
#include "stream/checkpoint.h"
#include "stream/miner.h"
#include "stream/source.h"
#include "util/rng.h"

namespace yafim::stream {
namespace {

namespace stdfs = std::filesystem;

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
  return opts;
}

fim::TransactionDB random_db(u32 universe, int transactions, double density,
                             u64 seed) {
  Rng rng(seed);
  std::vector<fim::Transaction> tx;
  for (int i = 0; i < transactions; ++i) {
    fim::Transaction t;
    for (u32 item = 0; item < universe; ++item) {
      if (rng.bernoulli(density)) t.push_back(item);
    }
    if (t.empty()) t.push_back(static_cast<fim::Item>(rng.below(universe)));
    tx.push_back(std::move(t));
  }
  return fim::TransactionDB(std::move(tx));
}

std::string fresh_dir(const std::string& name) {
  const stdfs::path dir = stdfs::path(::testing::TempDir()) / name;
  stdfs::remove_all(dir);
  return dir.string();
}

StreamOptions small_stream() {
  StreamOptions opt;
  opt.min_support = 0.25;
  opt.num_batches = 6;
  opt.source.window_s = 1.0;
  opt.source.ingest_rate = 120.0;
  return opt;
}

StreamResult run_stream(const fim::TransactionDB& db,
                        const StreamOptions& opt,
                        engine::Context::Options copts = small_cluster(),
                        engine::Context** ctx_out = nullptr) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster(), copts.fault.corrupt);
  (void)ctx_out;
  return stream_mine(ctx, fs, db, opt);
}

/// The exact transaction sequence the stream ingested, reconstructed from
/// the per-batch stats (the source is a deterministic replay).
fim::TransactionDB ingested_history(const fim::TransactionDB& db,
                                    const StreamOptions& opt,
                                    const StreamResult& result) {
  TransactionSource src(db, opt.source);
  std::vector<fim::Transaction> tx;
  for (const StreamBatchStats& b : result.batches) {
    const auto arrived = src.take(b.transactions);
    tx.insert(tx.end(), arrived.begin(), arrived.end());
  }
  return fim::TransactionDB(std::move(tx));
}

void expect_identical(const StreamResult& a, const StreamResult& b,
                      const std::string& what) {
  EXPECT_TRUE(a.itemsets.same_itemsets(b.itemsets)) << what;
  EXPECT_EQ(a.total_transactions, b.total_transactions) << what;
  EXPECT_EQ(a.min_support_count, b.min_support_count) << what;
  EXPECT_EQ(a.window_factor, b.window_factor) << what;
  EXPECT_EQ(a.reverify_slack, b.reverify_slack) << what;
  EXPECT_EQ(a.widenings, b.widenings) << what;
  EXPECT_EQ(a.slack_raises, b.slack_raises) << what;
  EXPECT_EQ(a.reverifications, b.reverifications) << what;
  ASSERT_EQ(a.batches.size(), b.batches.size()) << what;
  for (size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].transactions, b.batches[i].transactions) << what;
    EXPECT_EQ(a.batches[i].new_candidates, b.batches[i].new_candidates)
        << what << " batch " << i + 1;
    EXPECT_EQ(a.batches[i].window_factor, b.batches[i].window_factor)
        << what;
    EXPECT_DOUBLE_EQ(a.batches[i].sim_seconds, b.batches[i].sim_seconds)
        << what << " batch " << i + 1;
  }
}

// ---- source -------------------------------------------------------------

TEST(StreamSource, ReplayIsDeterministic) {
  const auto db = random_db(12, 80, 0.4, 3);
  SourceOptions sopt;
  sopt.window_s = 2.0;
  sopt.ingest_rate = 50.0;
  TransactionSource a(db, sopt), b(db, sopt);
  for (u64 batch = 1; batch <= 5; ++batch) {
    EXPECT_EQ(a.window_count(batch, 1), b.window_count(batch, 1));
    EXPECT_EQ(a.take(a.window_count(batch, 1)),
              b.take(b.window_count(batch, 1)));
  }
  // seek(0) + take(k) reproduces the prefix exactly.
  const u64 consumed = a.offset();
  b.seek(0);
  a.seek(0);
  EXPECT_EQ(a.take(consumed), b.take(consumed));
}

TEST(StreamSource, WindowCountJittersWithinTenPercentAndScalesWithFactor) {
  const auto db = random_db(8, 40, 0.5, 4);
  SourceOptions sopt;
  sopt.window_s = 1.0;
  sopt.ingest_rate = 1000.0;
  TransactionSource src(db, sopt);
  for (u64 batch = 1; batch <= 20; ++batch) {
    const u64 n = src.window_count(batch, 1);
    EXPECT_GE(n, 900u);
    EXPECT_LT(n, 1100u);
    // Widening multiplies the nominal window before the final floor, with
    // the same jitter draw: 4x the factor-1 count up to truncation.
    const u64 wide = src.window_count(batch, 4);
    EXPECT_GE(wide, n * 4);
    EXPECT_LE(wide, n * 4 + 4);
  }
}

// ---- snapshot codec -----------------------------------------------------

StreamCheckpointState sample_state() {
  StreamCheckpointState s;
  s.fingerprint = 0xFEEDF00Du;
  s.batch = 7;
  s.source_offset = 4321;
  s.total_transactions = 4321;
  s.min_support_count = 87;
  s.window_factor = 2;
  s.reverify_slack = 0.2;
  s.widenings = 1;
  s.slack_raises = 2;
  s.reverifications = 55;
  s.supports = {{{3}, 120}, {{1}, 95}, {{1, 3}, 90}, {{2}, 10}};
  s.frontier = {{1, 3}, {1}, {3}};
  s.batches = {StreamBatchStats{1, 600, 40, 1, 0.8},
               StreamBatchStats{2, 610, 4, 2, 0.9}};
  return s;
}

TEST(StreamCheckpoint, RoundTrip) {
  const auto state = sample_state();
  const auto bytes = encode_stream_snapshot(state);
  const auto back = decode_stream_snapshot(bytes, state.fingerprint);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->batch, state.batch);
  EXPECT_EQ(back->source_offset, state.source_offset);
  EXPECT_EQ(back->min_support_count, state.min_support_count);
  EXPECT_EQ(back->window_factor, state.window_factor);
  EXPECT_DOUBLE_EQ(back->reverify_slack, state.reverify_slack);
  EXPECT_EQ(back->supports.size(), state.supports.size());
  EXPECT_EQ(back->frontier.size(), state.frontier.size());
  ASSERT_EQ(back->batches.size(), 2u);
  EXPECT_DOUBLE_EQ(back->batches[1].sim_seconds, 0.9);
}

TEST(StreamCheckpoint, EncodingIsCanonicalAcrossInputOrder) {
  auto a = sample_state();
  auto b = sample_state();
  std::reverse(b.supports.begin(), b.supports.end());
  std::reverse(b.frontier.begin(), b.frontier.end());
  EXPECT_EQ(encode_stream_snapshot(a), encode_stream_snapshot(b));
}

TEST(StreamCheckpoint, EveryFlippedBitIsRejectedWhole) {
  const auto state = sample_state();
  const auto bytes = encode_stream_snapshot(state);
  for (size_t i = 0; i < bytes.size(); i += 17) {  // stride keeps it fast
    auto damaged = bytes;
    damaged[i] ^= 0x40;
    EXPECT_FALSE(
        decode_stream_snapshot(damaged, state.fingerprint).has_value())
        << "flip at byte " << i;
  }
}

TEST(StreamCheckpoint, EveryTruncationIsRejected) {
  const auto state = sample_state();
  const auto bytes = encode_stream_snapshot(state);
  for (size_t len = 0; len < bytes.size(); len += 13) {
    EXPECT_FALSE(decode_stream_snapshot(
                     std::span<const u8>(bytes.data(), len),
                     state.fingerprint)
                     .has_value())
        << "truncated to " << len;
  }
}

TEST(StreamCheckpoint, ForeignFingerprintRejected) {
  const auto state = sample_state();
  const auto bytes = encode_stream_snapshot(state);
  EXPECT_FALSE(decode_stream_snapshot(bytes, state.fingerprint + 1)
                   .has_value());
}

TEST(StreamCheckpoint, LoadLatestSkipsDamagedSnapshots) {
  fim::DirCheckpointStore store(fresh_dir("stream_ck_damaged"));
  auto early = sample_state();
  early.batch = 3;
  save_stream_snapshot(store, early);
  auto late = sample_state();
  late.batch = 5;
  auto damaged = encode_stream_snapshot(late);
  damaged[damaged.size() / 2] ^= 0xFF;
  store.put(stream_snapshot_name(5), damaged);

  u32 rejected = 0;
  const auto loaded =
      load_latest_stream_snapshot(store, early.fingerprint, &rejected);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->batch, 3u);  // fell back past the damaged batch 5
  EXPECT_EQ(rejected, 1u);
}

// ---- backpressure ladder ------------------------------------------------

TEST(Backpressure, EscalatesWindowThenSlackAndDeescalatesInReverse) {
  BackpressureOptions bopt;
  bopt.max_window_factor = 4;
  BackpressureController ctl(bopt);
  BackpressureState state;

  // Overloaded: widen 1 -> 2 -> 4, then raise slack in 0.1 steps to 0.5.
  ctl.observe(10.0, 1.0, 0, &state, nullptr);
  EXPECT_EQ(state.window_factor, 2u);
  ctl.observe(10.0, 2.0, 0, &state, nullptr);
  EXPECT_EQ(state.window_factor, 4u);
  EXPECT_EQ(state.reverify_slack, 0.0);
  for (int i = 1; i <= 5; ++i) {
    ctl.observe(10.0, 4.0, 0, &state, nullptr);
    EXPECT_EQ(state.window_factor, 4u);
    EXPECT_NEAR(state.reverify_slack, 0.1 * i, 1e-9);
  }
  // Ladder exhausted: bounded, no further change.
  ctl.observe(10.0, 4.0, 0, &state, nullptr);
  EXPECT_NEAR(state.reverify_slack, 0.5, 1e-9);
  EXPECT_EQ(ctl.widenings(), 2u);
  EXPECT_EQ(ctl.slack_raises(), 5u);

  // Recovered: slack drains first, then the window narrows.
  for (int i = 4; i >= 0; --i) {
    ctl.observe(0.1, 4.0, 0, &state, nullptr);
    EXPECT_NEAR(state.reverify_slack, 0.1 * i, 1e-9);
    EXPECT_EQ(state.window_factor, 4u);
  }
  ctl.observe(0.1, 4.0, 0, &state, nullptr);
  EXPECT_EQ(state.window_factor, 2u);
  ctl.observe(0.1, 2.0, 0, &state, nullptr);
  EXPECT_EQ(state.window_factor, 1u);

  // In-band latency: no movement either way.
  ctl.observe(0.7, 1.0, 0, &state, nullptr);
  EXPECT_EQ(state.window_factor, 1u);
  EXPECT_EQ(state.reverify_slack, 0.0);
}

TEST(Backpressure, OverloadedStreamRaisesSlackEmitsYL006AndStaysExact) {
  const auto db = random_db(12, 150, 0.4, 21);
  StreamOptions opt = small_stream();
  // A microscopic window makes every batch miss its deadline, forcing the
  // full ladder: widenings to the cap, then slack raises.
  opt.source.window_s = 1e-4;
  opt.source.ingest_rate = 120.0 / 1e-4;
  opt.backpressure.max_window_factor = 2;

  auto copts = small_cluster();
  copts.lint.enabled = true;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const StreamResult result = stream_mine(ctx, fs, db, opt);

  EXPECT_GT(result.widenings, 0u);
  EXPECT_GT(result.slack_raises, 0u);
  EXPECT_GT(result.reverify_slack, 0.0);
  ctx.linter().finalize();
  u64 yl006 = 0;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule == "YL006") {
      ++yl006;
      EXPECT_EQ(diag.severity, engine::LintSeverity::kNote);
      EXPECT_NE(diag.message.find("backpressure"), std::string::npos);
    }
  }
  EXPECT_EQ(yl006, result.slack_raises);

  // Slack deferred frontier entries mid-stream, but finalize drained every
  // deferral: the output is still exactly batch Apriori on the history.
  const auto history = ingested_history(db, opt, result);
  fim::AprioriOptions sopt;
  sopt.min_support = opt.min_support;
  const auto reference = fim::apriori_mine(history, sopt);
  EXPECT_TRUE(result.itemsets.same_itemsets(reference.itemsets));
}

// ---- incremental == batch ----------------------------------------------

TEST(StreamMiner, MatchesSequentialAprioriOverIngestedHistory) {
  const auto db = random_db(14, 160, 0.4, 11);
  for (fim::CountMode mode :
       {fim::CountMode::kItemsetKey, fim::CountMode::kCandidateId}) {
    StreamOptions opt = small_stream();
    opt.count_mode = mode;
    const StreamResult result = run_stream(db, opt);
    ASSERT_GT(result.itemsets.total(), 0u);

    const auto history = ingested_history(db, opt, result);
    EXPECT_EQ(history.size(), result.total_transactions);
    fim::AprioriOptions sopt;
    sopt.min_support = opt.min_support;
    const auto reference = fim::apriori_mine(history, sopt);
    EXPECT_TRUE(result.itemsets.same_itemsets(reference.itemsets))
        << fim::count_mode_name(mode);
  }
}

TEST(StreamMiner, CountModesBitIdenticalPerBatch) {
  const auto db = random_db(14, 160, 0.4, 12);
  StreamOptions opt = small_stream();
  const StreamResult faithful = run_stream(db, opt);
  StreamOptions dopt = small_stream();
  dopt.count_mode = fim::CountMode::kCandidateId;
  const StreamResult run = run_stream(db, dopt);
  EXPECT_TRUE(run.itemsets.same_itemsets(faithful.itemsets));
  ASSERT_EQ(run.batches.size(), faithful.batches.size());
  for (size_t i = 0; i < run.batches.size(); ++i) {
    EXPECT_EQ(run.batches[i].transactions, faithful.batches[i].transactions);
    EXPECT_EQ(run.batches[i].new_candidates,
              faithful.batches[i].new_candidates)
        << "batch " << i + 1;
  }
}

// ---- exactly-once kill matrix ------------------------------------------

void kill_resume_matrix(engine::Context::Options copts,
                        const std::string& tag) {
  const auto db = random_db(14, 160, 0.4, 13);
  for (fim::CountMode mode :
       {fim::CountMode::kItemsetKey, fim::CountMode::kCandidateId}) {
    StreamOptions opt = small_stream();
    opt.count_mode = mode;
    const StreamResult clean = run_stream(db, opt, copts);

    for (u32 phase = 0; phase < kNumStreamPhases; ++phase) {
      fim::DirCheckpointStore store(fresh_dir(
          "stream_kill_" + tag + "_" + fim::count_mode_name(mode) + "_" +
          std::to_string(phase)));
      StreamOptions kopt = opt;
      kopt.checkpoint = &store;
      kopt.kill_batch = 4;
      kopt.kill_phase = phase;
      EXPECT_THROW(run_stream(db, kopt, copts), StreamKilledError);

      StreamOptions ropt = opt;
      ropt.checkpoint = &store;
      const StreamResult resumed = run_stream(db, ropt, copts);
      EXPECT_EQ(resumed.resumed_batch,
                phase == static_cast<u32>(StreamPhase::kBoundary) ? 4u : 3u);
      expect_identical(clean, resumed,
                       std::string(fim::count_mode_name(mode)) + " phase " +
                           stream_phase_name(StreamPhase{phase}) + " " +
                           tag);
    }
  }
}

TEST(StreamExactlyOnce, KillAtEveryPhaseEveryModeResumesBitIdentical) {
  kill_resume_matrix(small_cluster(), "plain");
}

TEST(StreamExactlyOnce, KillMatrixUnderMemoryPressureFallback) {
  // Starve the executors so candidate broadcasts degrade to the
  // partitioned store (PR-7 path) while the kill matrix runs.
  auto copts = small_cluster();
  copts.cluster.executor_memory_bytes = 1 << 16;
  kill_resume_matrix(copts, "memfallback");
}

TEST(StreamExactlyOnce, KillUnderComposedFaultAxes) {
  // Task failures + a mid-stream memory shrink + a kill, all at once: the
  // resumed run must still replay every injected decision identically.
  for (u64 seed : {101ull, 211ull}) {
    auto copts = small_cluster();
    copts.fault.seed = seed;
    copts.fault.task_failure_p = 0.05;
    copts.fault.mem_shrink_pass = 3;  // batch 3 triggers the shrink
    copts.fault.mem_shrink_factor = 1e-6;
    copts.fault.mem_shrink_node = 1;

    const auto db = random_db(14, 160, 0.4, 14);
    StreamOptions opt = small_stream();
    const StreamResult clean = run_stream(db, opt, copts);

    fim::DirCheckpointStore store(
        fresh_dir("stream_kill_composed_" + std::to_string(seed)));
    StreamOptions kopt = opt;
    kopt.checkpoint = &store;
    kopt.kill_batch = 4;
    kopt.kill_phase = static_cast<u32>(StreamPhase::kCount);
    EXPECT_THROW(run_stream(db, kopt, copts), StreamKilledError);

    StreamOptions ropt = opt;
    ropt.checkpoint = &store;
    const StreamResult resumed = run_stream(db, ropt, copts);
    expect_identical(clean, resumed, "composed seed " + std::to_string(seed));
  }
}

TEST(StreamExactlyOnce, SeedDerivedKillPointsAreStableAndInRange) {
  // The env axis derives (batch, phase) by hashing YAFIM_FAULT_STREAM_SEED;
  // exercise the derivation through the profile (not the env) and check a
  // seeded kill fires and resumes exactly once.
  auto copts = small_cluster();
  copts.fault.stream_seed = 77;

  const auto db = random_db(14, 160, 0.4, 15);
  StreamOptions opt = small_stream();
  const StreamResult clean = run_stream(db, opt);  // no injection

  fim::DirCheckpointStore store(fresh_dir("stream_kill_seeded"));
  StreamOptions kopt = opt;
  kopt.checkpoint = &store;
  u64 killed_batch = 0;
  try {
    run_stream(db, kopt, copts);
  } catch (const StreamKilledError& e) {
    killed_batch = e.batch();
  }
  ASSERT_GE(killed_batch, 1u);
  ASSERT_LE(killed_batch, opt.num_batches);

  // Resume without the fault profile (the CI soak's final env-free run).
  StreamOptions ropt = opt;
  ropt.checkpoint = &store;
  const StreamResult resumed = run_stream(db, ropt);
  expect_identical(clean, resumed, "seed-derived kill");
}

TEST(StreamExactlyOnce, ExplicitProfileKillBeatsSeedAndRespectsOverride) {
  auto copts = small_cluster();
  copts.fault.stream_kill_batch = 2;
  copts.fault.stream_kill_phase =
      static_cast<u32>(StreamPhase::kSnapshot);
  copts.fault.stream_seed = 999;  // ignored: explicit point wins

  const auto db = random_db(12, 120, 0.4, 16);
  StreamOptions opt = small_stream();
  try {
    run_stream(db, opt, copts);
    FAIL() << "kill never fired";
  } catch (const StreamKilledError& e) {
    EXPECT_EQ(e.batch(), 2u);
    EXPECT_EQ(e.phase(), StreamPhase::kSnapshot);
  }
}

TEST(StreamMiner, ResumeRejectsForeignConfiguration) {
  const auto db = random_db(12, 120, 0.4, 17);
  fim::DirCheckpointStore store(fresh_dir("stream_foreign_config"));
  StreamOptions opt = small_stream();
  opt.checkpoint = &store;
  opt.kill_batch = 3;
  opt.kill_phase = static_cast<u32>(StreamPhase::kBoundary);
  EXPECT_THROW(run_stream(db, opt), StreamKilledError);
  ASSERT_FALSE(store.list().empty());

  // Same store, different minsup: the fingerprint must refuse every
  // snapshot and the run must start cold (resumed_batch == 0).
  StreamOptions other = small_stream();
  other.checkpoint = &store;
  other.min_support = 0.3;
  const StreamResult cold = run_stream(db, other);
  EXPECT_EQ(cold.resumed_batch, 0u);
}

}  // namespace
}  // namespace yafim::stream
