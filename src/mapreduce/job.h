// A Hadoop-0.20-style MapReduce job over the simulated HDFS.
//
// This substrate exists to host the paper's baseline (MRApriori / PApriori,
// Li et al. 2012): every Apriori iteration is a fresh job that
//   1. pays a fixed job-startup cost (JVM spin-up, scheduling),
//   2. re-reads the transaction dataset from SimFS,
//   3. runs JVM-per-task mappers emitting (candidate, 1),
//   4. shuffles to reducers that sum and threshold,
//   5. writes the frequent itemsets back to SimFS.
// Steps 1, 2 and 5 recur every iteration -- precisely the overhead YAFIM's
// cached RDDs avoid -- so modeling them explicitly is what lets the Fig. 3
// per-pass gap emerge for the right reason.
//
// The payloads are real: inputs/outputs genuinely round-trip through SimFS
// bytes, and all mining arithmetic runs for real on the host pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/context.h"
#include "engine/detsan.h"
#include "engine/rdd.h"
#include "engine/work.h"
#include "obs/trace.h"
#include "simfs/simfs.h"
#include "util/checksum.h"
#include "util/common.h"

namespace yafim::mr {

/// Sink the map function emits key/value pairs into.
template <typename K, typename V>
class Emitter {
 public:
  void emit(K key, V value) {
    engine::work::add(1);
    out_.emplace_back(std::move(key), std::move(value));
  }

  std::vector<std::pair<K, V>>& pairs() { return out_; }

 private:
  std::vector<std::pair<K, V>> out_;
};

/// Everything that defines one job. I: input record; (K, V): intermediate
/// pair; O: output record. `Hash` must deterministically hash K.
template <typename I, typename K, typename V, typename O,
          typename Hash = std::hash<K>>
struct JobSpec {
  std::string name = "job";

  /// Deserialize the whole input file into records (the inverse of whatever
  /// wrote it). Each mapper then works on a contiguous slice.
  std::function<std::vector<I>(const std::vector<u8>&)> decode_input;

  std::function<void(const I&, Emitter<K, V>&)> map_fn;

  /// Alternative to map_fn: invoked once per map task with the task's whole
  /// input slice (a Hadoop mapper's run() override). Used by algorithms
  /// that need split-level context, e.g. SON's local mining phase. Exactly
  /// one of map_fn / map_partition_fn must be set.
  std::function<void(std::span<const I>, Emitter<K, V>&)> map_partition_fn;

  /// Optional map-side combiner (Hadoop Combiner class).
  std::function<V(const V&, const V&)> combine_fn;

  /// Receives one key and all its values; return nullopt to drop the key
  /// (e.g. below MinSup).
  std::function<std::optional<O>(const K&, std::vector<V>&)> reduce_fn;

  std::function<std::vector<u8>(const std::vector<O>&)> encode_output;

  /// 0 = one mapper per simulated core (mapred.map.tasks hint).
  u32 num_mappers = 0;
  /// 0 = one reducer per node.
  u32 num_reducers = 0;

  /// Side data shipped to every mapper via the distributed cache
  /// (MRApriori ships the candidate set this way); bytes are charged as a
  /// per-node localization.
  u64 distributed_cache_bytes = 0;

  Hash hash{};
};

template <typename O>
struct JobResult {
  std::vector<O> output;
  u32 map_tasks = 0;
  u32 reduce_tasks = 0;
  u64 input_bytes = 0;
  u64 shuffle_bytes = 0;
  u64 output_bytes = 0;
};

/// Runs jobs, charging their cost into the Context's SimReport (kinds
/// kOverhead / kMapPhase / kReducePhase, tagged with the current pass).
class JobRunner {
 public:
  JobRunner(engine::Context& ctx, simfs::SimFS& fs) : ctx_(ctx), fs_(fs) {}

  template <typename I, typename K, typename V, typename O, typename Hash>
  JobResult<O> run(const JobSpec<I, K, V, O, Hash>& spec,
                   const std::string& input_path,
                   const std::string& output_path) {
    const sim::ClusterConfig& cluster = ctx_.cluster();
    // Hadoop default: input splits outnumber map slots, so maps run in
    // waves (two here).
    const u32 map_tasks =
        spec.num_mappers ? spec.num_mappers : 2 * cluster.total_cores();
    const u32 reduce_tasks =
        spec.num_reducers ? spec.num_reducers : cluster.nodes;

    // Job startup: submission, scheduling, setup task.
    {
      sim::StageRecord startup;
      startup.label = spec.name + ":startup";
      startup.kind = sim::StageKind::kOverhead;
      startup.pass = ctx_.pass();
      startup.fixed_overhead_s = cluster.mr_job_startup_s;
      ctx_.record(std::move(startup));
    }

    // The distributed cache is MapReduce's broadcast: lint it against the
    // same executor-memory budget (YL002) as Spark-side broadcasts.
    if (spec.distributed_cache_bytes && ctx_.linter().enabled()) {
      ctx_.linter().check_broadcast(spec.distributed_cache_bytes,
                                    spec.name + ":distributed_cache");
    }

    // Input: every job re-reads its input from the DFS.
    const std::vector<u8> raw = fs_.read(input_path);
    const std::vector<I> records = spec.decode_input(raw);

    // Map phase (with optional combiner), hash-partitioned into reduce
    // buckets by the engine's shuffle core (engine/rdd.h). Both phases
    // funnel through Context::measure_tasks, the engine's fault boundary,
    // so MapReduce jobs face the same injected failures, retries and
    // stragglers as Spark stages (keeping the comparison fair).
    using Pair = std::pair<K, V>;
    std::vector<engine::detail::Buckets<Pair>> map_out(map_tasks);
    std::atomic<u64> shuffle_bytes{0};
    engine::DetSan& ds = ctx_.detsan();
    // Jobs have no rdd id: DetSan samples their map tasks by job name.
    const u32 replay_id =
        static_cast<u32>(mix64(xxh64(spec.name.data(), spec.name.size(), 0)));
    const auto part = [&](const K& k) {
      return static_cast<u32>(spec.hash(k) % reduce_tasks);
    };
    std::optional<obs::Span> map_span;
    if (obs::enabled()) {
      map_span.emplace("stage", spec.name + ":map");
      map_span->arg("ntasks", map_tasks);
    }
    auto tasks = ctx_.measure_tasks(spec.name + ":map", map_tasks,
                                    [&](u32 m) {
      const auto [begin, end] = slice(records.size(), map_tasks, m);
      Emitter<K, V> emitter;
      // Input-format streaming tax: split/deserialize every record anew on
      // every job (cluster.record_parse_work, see sim/cluster.h).
      engine::work::add((end - begin) * (1 + cluster.record_parse_work));
      if (spec.map_partition_fn) {
        YAFIM_CHECK(!spec.map_fn, "set map_fn or map_partition_fn, not both");
        spec.map_partition_fn(
            std::span<const I>(records.data() + begin, end - begin), emitter);
      } else {
        YAFIM_CHECK(static_cast<bool>(spec.map_fn), "map_fn not set");
        for (size_t i = begin; i < end; ++i) {
          spec.map_fn(records[i], emitter);
        }
      }

      std::vector<Pair>& pairs = emitter.pairs();
      u64 bytes = 0;
      if (spec.combine_fn) {
        // The RDD map-side combine, DetSan replay included; a replay of
        // fewer than two emits could not permute anything.
        auto combined = engine::detail::combine_values<Hash>(
            pairs, spec.combine_fn, ds,
            pairs.size() >= 2 && ds.should_replay(replay_id, m),
            ds.replay_seed(replay_id, m), [&](const std::string& element) {
              ds.report_divergence_raw(
                  "job '" + spec.name + "' map task " + std::to_string(m),
                  "combine", element);
            });
        bytes = engine::detail::route(combined, reduce_tasks, part, map_out[m]);
      } else {
        bytes = engine::detail::route(pairs, reduce_tasks, part, map_out[m]);
      }
      shuffle_bytes.fetch_add(bytes, std::memory_order_relaxed);
    });
    {
      if (map_span) {
        map_span->arg("shuffle_bytes", shuffle_bytes.load());
        map_span->end();
      }
      sim::StageRecord map_stage;
      map_stage.label = spec.name + ":map";
      map_stage.kind = sim::StageKind::kMapPhase;
      map_stage.pass = ctx_.pass();
      map_stage.tasks = std::move(tasks);
      map_stage.dfs_read_bytes = raw.size();
      // Distributed-cache payloads are localized once per node.
      map_stage.broadcast_bytes = spec.distributed_cache_bytes * cluster.nodes;
      ctx_.record(std::move(map_stage));
    }

    // The RDD shuffles' ledger/spill step, so MapReduce jobs face the same
    // memory ceiling as Spark stages.
    engine::detail::ShuffleSpill<engine::detail::Buckets<Pair>> spill(
        ctx_, spec.name);
    spill.round_trip(shuffle_bytes.load(std::memory_order_relaxed), map_out);

    // Reduce phase: group values per key, reduce, collect output.
    std::vector<std::vector<O>> reduce_out(reduce_tasks);
    std::optional<obs::Span> reduce_span;
    if (obs::enabled()) {
      reduce_span.emplace("stage", spec.name + ":reduce");
      reduce_span->arg("ntasks", reduce_tasks);
    }
    auto rtasks = ctx_.measure_tasks(spec.name + ":reduce", reduce_tasks,
                                     [&](u32 r) {
      auto& out = reduce_out[r];
      for (auto& [k, values] : engine::detail::gather<Hash>(map_out, r)) {
        engine::work::add(values.size());
        if (auto o = spec.reduce_fn(k, values)) out.push_back(std::move(*o));
      }
    });

    JobResult<O> result;
    result.map_tasks = map_tasks;
    result.reduce_tasks = reduce_tasks;
    result.input_bytes = raw.size();
    result.shuffle_bytes = shuffle_bytes.load();
    for (auto& part : reduce_out) {
      result.output.insert(result.output.end(),
                           std::make_move_iterator(part.begin()),
                           std::make_move_iterator(part.end()));
    }

    std::vector<u8> encoded = spec.encode_output(result.output);
    result.output_bytes = encoded.size();
    fs_.write(output_path, std::move(encoded));
    if (reduce_span) reduce_span->end();
    {
      sim::StageRecord reduce_stage;
      reduce_stage.label = spec.name + ":reduce";
      reduce_stage.kind = sim::StageKind::kReducePhase;
      reduce_stage.pass = ctx_.pass();
      reduce_stage.tasks = std::move(rtasks);
      reduce_stage.shuffle_bytes = result.shuffle_bytes;
      reduce_stage.dfs_write_bytes = result.output_bytes;
      ctx_.record(std::move(reduce_stage));
    }
    return result;
  }

  engine::Context& ctx() { return ctx_; }
  simfs::SimFS& fs() { return fs_; }

 private:
  /// Contiguous slice [begin, end) of `n` records for task `t` of `tasks`.
  static std::pair<size_t, size_t> slice(size_t n, u32 tasks, u32 t) {
    const size_t base = n / tasks;
    const size_t extra = n % tasks;
    const size_t begin = t * base + std::min<size_t>(t, extra);
    return {begin, begin + base + (t < extra ? 1 : 0)};
  }

  engine::Context& ctx_;
  simfs::SimFS& fs_;
};

}  // namespace yafim::mr
