// Shared pieces of the MapReduce counting miners (mr_apriori, son, lin):
// the wire format for (itemset, count) lists stored on the simulated HDFS
// (per-iteration L_k outputs), the input decoder, and the counting job
// every level-wise pass runs -- map hits, sum them in a combiner, keep the
// sums at or above MinSup in the reducer.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fim/dataset.h"
#include "fim/hash_tree.h"
#include "fim/itemset.h"
#include "fim/result.h"
#include "mapreduce/job.h"
#include "util/bytes.h"

namespace yafim::fim {

/// Counting job keyed on whole itemsets (the paper-faithful layout).
using Spec = mr::JobSpec<Transaction, Itemset, u64, CountPair, ItemsetHash>;
/// Dense twin: intermediate keys are candidate ids into one hash tree.
using IdSpec = mr::JobSpec<Transaction, u32, u64, CountPair, DenseIdHash>;

inline std::vector<u8> encode_counts(
    const std::vector<std::pair<Itemset, u64>>& counts) {
  ByteWriter w;
  w.write_u64(counts.size());
  for (const auto& [itemset, count] : counts) {
    w.write_u32_vec(itemset);
    w.write_u64(count);
  }
  return w.take();
}

inline std::vector<std::pair<Itemset, u64>> decode_counts(
    std::span<const u8> bytes) {
  ByteReader r(bytes);
  const u64 n = r.read_u64();
  std::vector<std::pair<Itemset, u64>> out;
  out.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    Itemset itemset = r.read_u32_vec();
    const u64 count = r.read_u64();
    out.emplace_back(std::move(itemset), count);
  }
  YAFIM_CHECK(r.done(), "trailing bytes after count list");
  return out;
}

/// Every job reads the staged TransactionDB back from the simulated HDFS.
inline std::vector<Transaction> decode_transactions(
    const std::vector<u8>& bytes) {
  return TransactionDB::deserialize(bytes).release();
}

/// A counting job with everything but its map side set: input decode, a
/// summing combiner, and the reducer that sums a key's partial counts and
/// emits (itemset_of(key), sum) only when sum >= min_count.
template <typename JobSpecT, typename ItemsetOf = std::identity>
JobSpecT counting_job(std::string name, u64 min_count, u32 num_mappers,
                      u32 num_reducers, ItemsetOf itemset_of = {}) {
  JobSpecT job;
  job.name = std::move(name);
  job.decode_input = decode_transactions;
  job.combine_fn = std::plus<u64>();
  job.reduce_fn = [min_count, itemset_of](const auto& key,
                                          std::vector<u64>& values)
      -> std::optional<CountPair> {
    u64 sum = 0;
    for (u64 v : values) sum += v;
    if (sum < min_count) return std::nullopt;
    return CountPair(itemset_of(key), sum);
  };
  job.encode_output = encode_counts;
  job.num_mappers = num_mappers;
  job.num_reducers = num_reducers;
  return job;
}

/// Job 1 of the level-wise miners: count every item, keep L1.
inline Spec frequent_items_job(std::string name, u64 min_count,
                               u32 num_mappers, u32 num_reducers) {
  Spec job = counting_job<Spec>(std::move(name), min_count, num_mappers,
                                num_reducers);
  job.map_fn = [](const Transaction& t, mr::Emitter<Itemset, u64>& emit) {
    for (Item i : t) emit.emit(Itemset{i}, 1);
  };
  return job;
}

}  // namespace yafim::fim
