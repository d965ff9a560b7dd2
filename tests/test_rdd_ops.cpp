// Tests for the RDD operators past the basics: group_by_key and
// zip_with_index -- plus one table over every shuffling operator pinning
// its stage ledger and its spill behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <sstream>

#include "engine/rdd.h"
#include "simfs/simfs.h"

namespace yafim::engine {
namespace {

Context::Options small_cluster() {
  Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 4;
  return opts;
}

std::vector<int> iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(GroupByKey, GathersAllValues) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 300; ++i) pairs.emplace_back(i % 5, i);
  auto grouped = ctx.parallelize(std::move(pairs), 7).group_by_key();
  auto result = grouped.collect();
  ASSERT_EQ(result.size(), 5u);
  for (auto& [k, values] : result) {
    EXPECT_EQ(values.size(), 60u) << "key " << k;
    for (int v : values) EXPECT_EQ(v % 5, k);
  }
}

TEST(GroupByKey, PreservesDuplicateValues) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> pairs{{1, 7}, {1, 7}, {1, 8}};
  auto result =
      ctx.parallelize(std::move(pairs), 2).group_by_key().collect();
  ASSERT_EQ(result.size(), 1u);
  auto values = result[0].second;
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int>{7, 7, 8}));
}

TEST(GroupByKey, ShuffleCostExceedsReduceByKey) {
  // groupByKey cannot combine map-side, so it moves every record.
  std::vector<std::pair<int, u64>> pairs;
  for (int i = 0; i < 1000; ++i) pairs.emplace_back(i % 3, 1);

  Context ctx1(small_cluster());
  ctx1.parallelize(std::vector<std::pair<int, u64>>(pairs), 4)
      .group_by_key()
      .collect();
  Context ctx2(small_cluster());
  ctx2.parallelize(std::vector<std::pair<int, u64>>(pairs), 4)
      .reduce_by_key([](u64 a, u64 b) { return a + b; })
      .collect();
  EXPECT_GT(ctx1.report().total_shuffle_bytes(),
            ctx2.report().total_shuffle_bytes());
}

TEST(ZipWithIndex, GlobalIndicesInPartitionOrder) {
  Context ctx(small_cluster());
  auto zipped = ctx.parallelize(iota(100), 7)
                    .map([](const int& x) { return x * 2; })
                    .zip_with_index()
                    .collect();
  ASSERT_EQ(zipped.size(), 100u);
  for (u64 i = 0; i < zipped.size(); ++i) {
    EXPECT_EQ(zipped[i].first, static_cast<int>(2 * i));
    EXPECT_EQ(zipped[i].second, i);
  }
}

TEST(ZipWithIndex, EmptyRdd) {
  Context ctx(small_cluster());
  EXPECT_TRUE(
      ctx.parallelize(std::vector<int>{}).zip_with_index().collect().empty());
}

// ---- every shuffle operator, one table -----------------------------------

using KV = std::pair<u32, u64>;

/// Fixed input: 240 pairs over 23 keys in 4 partitions.
RDD<KV> fixed_pairs(Context& ctx) {
  std::vector<KV> pairs;
  for (u32 i = 0; i < 240; ++i) pairs.emplace_back(i * 7 % 23, i % 5 + 1);
  return ctx.parallelize(std::move(pairs), 4);
}

template <typename E>
std::ostream& operator<<(std::ostream& os, const std::vector<E>& v);

template <typename A, typename B>
std::ostream& operator<<(std::ostream& os, const std::pair<A, B>& p) {
  return os << "(" << p.first << " " << p.second << ")";
}

template <typename E>
std::ostream& operator<<(std::ostream& os, const std::vector<E>& v) {
  for (const E& e : v) os << e << " ";
  return os;
}

template <typename E>
std::string render(std::vector<E> v, bool sort = true) {
  if (sort) std::sort(v.begin(), v.end());
  std::ostringstream os;
  os << v;
  return os.str();
}

struct ShuffleOpCase {
  const char* name;
  /// Runs the operator on fixed_pairs() and renders its output; a final
  /// collect, if any, is labelled "result" and left out of the ledger.
  std::function<std::string(Context&)> run;
  /// Stage ledger of `run`: one "label [per-task work] shuffle-bytes" line
  /// per stage. The sim prices exactly these numbers, so a change to the
  /// shuffle path must leave them as they are.
  const char* ledger;
};

std::string stage_ledger(const Context& ctx) {
  std::ostringstream os;
  for (const sim::StageRecord& stage : ctx.report().stages()) {
    if (stage.label == "result") continue;
    os << stage.label << " [";
    for (size_t i = 0; i < stage.tasks.size(); ++i) {
      os << (i ? " " : "") << stage.tasks[i].work;
    }
    os << "] " << stage.shuffle_bytes << "\n";
  }
  return os.str();
}

const ShuffleOpCase kShuffleOps[] = {
    {"reduce_by_key",
     [](Context& ctx) {
       return render(fixed_pairs(ctx)
                         .reduce_by_key([](u64 a, u64 b) { return a + b; }, 3)
                         .collect("result"));
     },
     "reduceByKey:map-combine [60 60 60 60] 1104\n"
     "reduceByKey:reduce [32 32 28] 0\n"},
    {"group_by_key",
     [](Context& ctx) {
       auto groups = fixed_pairs(ctx).group_by_key(3).collect("result");
       for (auto& [k, values] : groups) std::sort(values.begin(), values.end());
       return render(std::move(groups));
     },
     "groupByKey:map [60 60 60 60] 2880\n"
     "groupByKey:reduce [84 83 73] 0\n"},
    {"sum_arrays",
     [](Context& ctx) {
       return render(fixed_pairs(ctx)
                         .map([](const KV& kv) {
                           std::vector<u64> cells(8, 0);
                           cells[kv.first % 8] = kv.second;
                           return cells;
                         })
                         .sum_arrays(8),
                     /*sort=*/false);
     },
     "sumArrays:map-combine [540 540 540 540] 64\n"
     "sumArrays:reduce [4 4 4 4 4 4 4 4] 0\n"},
};

Context::Options pinned_cluster(u64 shuffle_buffer_bytes) {
  Context::Options opts = small_cluster();
  // Exact ledgers: no injected retries, even under the CI fault matrix.
  opts.fault = FaultProfile{};
  opts.cluster.shuffle_buffer_bytes = shuffle_buffer_bytes;
  return opts;
}

void PrintTo(const ShuffleOpCase& op, std::ostream* os) { *os << op.name; }

class ShuffleOps : public ::testing::TestWithParam<ShuffleOpCase> {};

TEST_P(ShuffleOps, StageLedgerUnchanged) {
  Context ctx(pinned_cluster(0));
  GetParam().run(ctx);
  EXPECT_EQ(stage_ledger(ctx), GetParam().ledger);
}

TEST_P(ShuffleOps, SpillsUnderTinyBudgetWithSameOutput) {
  Context unbounded(pinned_cluster(0));
  const std::string expected = GetParam().run(unbounded);

  Context ctx(pinned_cluster(1));
  simfs::SimFS fs(ctx.cluster());
  ctx.set_spill_fs(&fs);
  EXPECT_EQ(GetParam().run(ctx), expected);
  const MemoryBudget& mb = ctx.memory_budget();
  EXPECT_GT(mb.spill_blocks_written(), 0u);
  EXPECT_EQ(mb.spill_blocks_read(), mb.spill_blocks_written());
}

INSTANTIATE_TEST_SUITE_P(
    Table, ShuffleOps, ::testing::ValuesIn(kShuffleOps),
    [](const ::testing::TestParamInfo<ShuffleOpCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace yafim::engine
