// Tests for the extended RDD operator set: group_by_key, join, sort_by_key,
// distinct, take/first, count_by_value -- plus one table over every
// shuffling operator pinning its stage ledger and its spill behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <sstream>

#include "engine/rdd.h"
#include "simfs/simfs.h"
#include "util/rng.h"

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

TEST(Join, InnerJoinSemantics) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, std::string>> users{
      {1, "ada"}, {2, "bob"}, {3, "eve"}};
  std::vector<std::pair<int, int>> scores{{1, 10}, {1, 20}, {3, 30}, {4, 99}};
  auto joined = ctx.parallelize(std::move(users), 2)
                    .join(ctx.parallelize(std::move(scores), 3));
  auto result = joined.collect();
  std::sort(result.begin(), result.end());
  ASSERT_EQ(result.size(), 3u);  // key 2 has no score; key 4 has no user
  EXPECT_EQ(result[0].first, 1);
  EXPECT_EQ(result[0].second.first, "ada");
  EXPECT_EQ(result[0].second.second, 10);
  EXPECT_EQ(result[1].second.second, 20);
  EXPECT_EQ(result[2].first, 3);
  EXPECT_EQ(result[2].second.second, 30);
}

TEST(Join, ManyToManyProducesCrossProduct) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> left{{7, 1}, {7, 2}};
  std::vector<std::pair<int, int>> right{{7, 10}, {7, 20}, {7, 30}};
  auto result = ctx.parallelize(std::move(left), 1)
                    .join(ctx.parallelize(std::move(right), 1))
                    .collect();
  EXPECT_EQ(result.size(), 6u);  // 2 x 3
}

TEST(Join, DisjointKeysYieldEmpty) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> left{{1, 1}};
  std::vector<std::pair<int, int>> right{{2, 2}};
  EXPECT_EQ(ctx.parallelize(std::move(left), 1)
                .join(ctx.parallelize(std::move(right), 1))
                .count(),
            0u);
}

TEST(SortByKey, FullyOrdersCollectOutput) {
  Context ctx(small_cluster());
  Rng rng(9);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 2000; ++i) {
    pairs.emplace_back(static_cast<int>(rng.below(500)), i);
  }
  auto sorted = ctx.parallelize(std::move(pairs), 8).sort_by_key().collect();
  ASSERT_EQ(sorted.size(), 2000u);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].first, sorted[i].first);
  }
}

TEST(SortByKey, StableWithinEqualKeys) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> pairs{{5, 0}, {5, 1}, {5, 2}, {5, 3}};
  auto sorted = ctx.parallelize(std::move(pairs), 1).sort_by_key().collect();
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].second, static_cast<int>(i));
  }
}

TEST(SortByKey, EmptyAndSingle) {
  Context ctx(small_cluster());
  EXPECT_TRUE(ctx.parallelize(std::vector<std::pair<int, int>>{})
                  .sort_by_key()
                  .collect()
                  .empty());
  auto one = ctx.parallelize(std::vector<std::pair<int, int>>{{3, 4}})
                 .sort_by_key()
                 .collect();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, 3);
}

TEST(Distinct, RemovesDuplicates) {
  Context ctx(small_cluster());
  std::vector<int> data;
  for (int i = 0; i < 500; ++i) data.push_back(i % 37);
  auto unique = ctx.parallelize(std::move(data), 9).distinct().collect();
  std::sort(unique.begin(), unique.end());
  ASSERT_EQ(unique.size(), 37u);
  for (int i = 0; i < 37; ++i) EXPECT_EQ(unique[i], i);
}

TEST(Distinct, AlreadyUniqueUnchangedAsSet) {
  Context ctx(small_cluster());
  auto unique = ctx.parallelize(iota(100), 4).distinct().collect();
  EXPECT_EQ(unique.size(), 100u);
}

TEST(Take, ReturnsFirstElementsInOrder) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(100), 10);
  EXPECT_EQ(rdd.take(5), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rdd.take(0), std::vector<int>{});
  EXPECT_EQ(rdd.take(1000).size(), 100u);  // more than available
}

TEST(Take, ShortCircuitsLaterPartitions) {
  Context ctx(small_cluster());
  std::atomic<int> computed{0};
  auto rdd = ctx.parallelize(iota(100), 10).map([&](const int& x) {
    computed.fetch_add(1);
    return x;
  });
  (void)rdd.take(5);
  EXPECT_EQ(computed.load(), 10);  // only partition 0 (10 elements)
}

TEST(First, ReturnsHeadOrThrows) {
  Context ctx(small_cluster());
  EXPECT_EQ(ctx.parallelize(iota(10), 3).first(), 0);
  auto empty = ctx.parallelize(std::vector<int>{});
  try {
    (void)empty.first();
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.kind(), EngineErrorKind::kEmptyFirst);
    EXPECT_NE(std::string(e.what()).find("empty RDD"), std::string::npos);
  }
}

TEST(CountByValue, Histogram) {
  Context ctx(small_cluster());
  std::vector<int> data{1, 2, 2, 3, 3, 3};
  auto hist = ctx.parallelize(std::move(data), 3).count_by_value();
  EXPECT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist.at(1), 1u);
  EXPECT_EQ(hist.at(2), 2u);
  EXPECT_EQ(hist.at(3), 3u);
}

TEST(Coalesce, MergesPartitionsPreservingOrder) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(100), 10).coalesce(3);
  EXPECT_EQ(rdd.num_partitions(), 3u);
  EXPECT_EQ(rdd.collect(), iota(100));
}

TEST(Coalesce, ClampsToExistingPartitionCount) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(10), 2).coalesce(50);
  EXPECT_EQ(rdd.num_partitions(), 2u);
  EXPECT_EQ(rdd.count(), 10u);
}

TEST(Coalesce, DownToOne) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(64), 16).coalesce(1);
  EXPECT_EQ(rdd.num_partitions(), 1u);
  EXPECT_EQ(rdd.collect(), iota(64));
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

TEST(AggregateByKey, ComputesPerKeyAverageParts) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, double>> pairs;
  for (int i = 0; i < 100; ++i) pairs.emplace_back(i % 4, i);
  // Accumulate (sum, count) pairs to compute averages downstream.
  using Acc = std::pair<double, u64>;
  auto result =
      ctx.parallelize(std::move(pairs), 6)
          .aggregate_by_key(
              Acc{0.0, 0},
              [](Acc acc, const double& v) {
                return Acc{acc.first + v, acc.second + 1};
              },
              [](Acc a, const Acc& b) {
                return Acc{a.first + b.first, a.second + b.second};
              })
          .collect_as_map();
  ASSERT_EQ(result.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(result.at(k).second, 25u);
    // Sum of k, k+4, ..., k+96.
    EXPECT_DOUBLE_EQ(result.at(k).first, 25.0 * k + 4.0 * (24 * 25 / 2));
  }
}

TEST(AggregateByKey, EquivalentToReduceByKeyForSameTypes) {
  Context ctx(small_cluster());
  Rng rng(4);
  std::vector<std::pair<u32, u64>> pairs;
  for (int i = 0; i < 500; ++i) {
    pairs.emplace_back(static_cast<u32>(rng.below(20)), rng.below(5));
  }
  auto a = ctx.parallelize(std::vector<std::pair<u32, u64>>(pairs), 5)
               .reduce_by_key([](u64 x, u64 y) { return x + y; })
               .collect_as_map();
  auto b = ctx.parallelize(std::move(pairs), 5)
               .aggregate_by_key(
                   u64{0}, [](u64 acc, const u64& v) { return acc + v; },
                   [](u64 x, const u64& y) { return x + y; })
               .collect_as_map();
  EXPECT_EQ(a, b);
}

TEST(TextFile, SplitsLinesAndChargesLoad) {
  Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  const std::string text = "alpha beta\ngamma\n\ndelta";
  fs.write("data/lines.txt", std::vector<u8>(text.begin(), text.end()));

  auto lines = ctx.text_file(fs, "data/lines.txt");
  EXPECT_EQ(lines.collect(),
            (std::vector<std::string>{"alpha beta", "gamma", "delta"}));

  bool found = false;
  for (const auto& stage : ctx.report().stages()) {
    if (stage.label.rfind("textFile:", 0) == 0) {
      EXPECT_EQ(stage.dfs_read_bytes, text.size());
      EXPECT_FALSE(stage.tasks.empty());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TextFile, WordCountPipeline) {
  Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  const std::string text = "a b a\nb c\na\n";
  fs.write("wc.txt", std::vector<u8>(text.begin(), text.end()));

  auto counts =
      ctx.text_file(fs, "wc.txt")
          .flat_map([](const std::string& line) {
            std::vector<std::string> words;
            size_t start = 0;
            for (size_t i = 0; i <= line.size(); ++i) {
              if (i == line.size() || line[i] == ' ') {
                if (i > start) words.push_back(line.substr(start, i - start));
                start = i + 1;
              }
            }
            return words;
          })
          .map([](const std::string& w) {
            return std::pair<std::string, u64>(w, 1);
          })
          .reduce_by_key([](u64 a, u64 b) { return a + b; })
          .collect_as_map();
  EXPECT_EQ(counts.at("a"), 3u);
  EXPECT_EQ(counts.at("b"), 2u);
  EXPECT_EQ(counts.at("c"), 1u);
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
    {"aggregate_by_key",
     [](Context& ctx) {
       using Acc = std::pair<u64, u64>;  // (sum, count)
       return render(
           fixed_pairs(ctx)
               .aggregate_by_key(
                   Acc{0, 0},
                   [](Acc acc, const u64& v) {
                     return Acc{acc.first + v, acc.second + 1};
                   },
                   [](Acc a, const Acc& b) {
                     return Acc{a.first + b.first, a.second + b.second};
                   },
                   3)
               .collect("result"));
     },
     "aggregateByKey:map-combine [60 60 60 60] 1840\n"
     "aggregateByKey:reduce [32 32 28] 0\n"},
    {"group_by_key",
     [](Context& ctx) {
       auto groups = fixed_pairs(ctx).group_by_key(3).collect("result");
       for (auto& [k, values] : groups) std::sort(values.begin(), values.end());
       return render(std::move(groups));
     },
     "groupByKey:map [60 60 60 60] 2880\n"
     "groupByKey:reduce [84 83 73] 0\n"},
    {"join",
     [](Context& ctx) {
       std::vector<std::pair<u32, u32>> right;
       for (u32 k = 0; k < 30; k += 2) right.emplace_back(k, 100 + k);
       return render(fixed_pairs(ctx)
                         .join(ctx.parallelize(std::move(right), 3), 3)
                         .collect("result"));
     },
     "join:left [60 60 60 60] 2880\n"
     "join:right [5 5 5] 120\n"
     "join:reduce [89 88 78] 0\n"},
    {"sort_by_key",
     [](Context& ctx) {
       return render(fixed_pairs(ctx).sort_by_key(3).collect("result"),
                     /*sort=*/false);
     },
     "sortByKey:sample [4 4 4 4] 0\n"
     "sortByKey:partition [60 60 60 60] 2880\n"
     "sortByKey:sort [63 83 94] 0\n"},
    {"distinct",
     [](Context& ctx) {
       return render(fixed_pairs(ctx).keys().distinct(3).collect("result"));
     },
     "distinct:map-combine [180 180 180 180] 460\n"
     "distinct:reduce [32 32 28] 0\n"},
    {"count_by_value",
     [](Context& ctx) {
       const auto counts = fixed_pairs(ctx).keys().count_by_value();
       return render(std::vector<KV>(counts.begin(), counts.end()));
     },
     "countByValue:map-combine [180 180 180 180] 1104\n"
     "countByValue:reduce [24 24 24 20] 0\n"
     "countByValue:collect [0 0 0 0] 0\n"},
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

/// Property sweep: join against a serial reference across partitionings.
class JoinSweep : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(JoinSweep, MatchesSerialJoin) {
  const auto [left_parts, right_parts] = GetParam();
  Context ctx(small_cluster());
  Rng rng(left_parts * 31 + right_parts);
  std::vector<std::pair<u32, u32>> left, right;
  for (int i = 0; i < 400; ++i) {
    left.emplace_back(static_cast<u32>(rng.below(40)), static_cast<u32>(i));
    right.emplace_back(static_cast<u32>(rng.below(40)),
                       static_cast<u32>(i + 1000));
  }

  std::vector<std::pair<u32, std::pair<u32, u32>>> expected;
  for (const auto& [lk, lv] : left) {
    for (const auto& [rk, rv] : right) {
      if (lk == rk) expected.emplace_back(lk, std::make_pair(lv, rv));
    }
  }
  std::sort(expected.begin(), expected.end());

  auto got = ctx.parallelize(std::move(left), left_parts)
                 .join(ctx.parallelize(std::move(right), right_parts))
                 .collect();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinSweep,
                         ::testing::Combine(::testing::Values(1u, 3u, 8u),
                                            ::testing::Values(1u, 5u)));

}  // namespace
}  // namespace yafim::engine
