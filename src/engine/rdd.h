// RDD<T>: a typed, lazy, partitioned, immutable dataset -- the minispark
// analogue of Spark's resilient distributed dataset.
//
// * Narrow transformations (map/flatMap/filter/mapPartitions and the
//   multi-sample/zip-with-index taggers) build lineage nodes and are fused
//   at execution: one task computes the whole operator chain for one
//   partition, exactly like a Spark stage.
// * Wide operations (reduce_by_key, group_by_key, sum_arrays) are stage
//   boundaries. All of them run one shuffle core (detail::ShuffleMap): a
//   map stage that combines or routes each partition into reduce buckets
//   (accounting shuffle bytes), the memory ledger and spill step, then the
//   operator's reduce stage into a new materialized RDD.
// * persist() caches computed partitions in (simulated) executor memory;
//   a partition lost to fault injection -- or LRU-evicted under a finite
//   executor memory budget -- is transparently recomputed from lineage
//   (engine/fault.h).
// * Actions (collect/count/reduce/collect_as_map) run on the driver thread
//   and record one StageRecord per stage with deterministic per-task work
//   counters.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/broadcast.h"
#include "engine/bytes_of.h"
#include "engine/context.h"
#include "engine/detsan.h"
#include "engine/error.h"
#include "engine/lint.h"
#include "engine/work.h"
#include "obs/metrics.h"
#include "simfs/simfs.h"
#include "util/bytes.h"
#include "util/canon_hash.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace yafim::engine {

namespace detail {

template <typename P>
struct PairTraits {
  static constexpr bool is_pair = false;
  // Placeholders so default template arguments that name these typedefs are
  // well-formed for non-pair T; the requires-clauses keep them unused.
  using key_type = void;
  using mapped_type = void;
};

template <typename K, typename V>
struct PairTraits<std::pair<K, V>> {
  static constexpr bool is_pair = true;
  using key_type = K;
  using mapped_type = V;
};

template <typename T>
struct ArrayTraits {
  static constexpr bool is_array = false;
  using elem_type = void;
};

template <typename E>
struct ArrayTraits<std::vector<E>> {
  static constexpr bool is_array = true;
  using elem_type = E;
};

// --- DetSan replay support (engine/detsan.h) ----------------------------
//
// Operators re-execute sampled tasks with a permuted input order and
// compare canonical hashes of the two outputs; these helpers hold the
// compare-and-report plumbing so each operator's hook stays a few lines.
// Replays run inside the task's work::Scope and call work::add like the
// primary pass, so their cost is priced into the sim automatically.

/// Index of the first element of `primary` that `replay` cannot account
/// for under multiset equality (primary.size() when replay only has
/// extras). Called on the divergence path only.
template <typename U>
size_t detsan_first_unmatched(const std::vector<U>& primary,
                              const std::vector<U>& replay) {
  std::unordered_map<u64, i64> counts;
  counts.reserve(replay.size());
  for (const U& e : replay) ++counts[util::canon_hash_value(e)];
  for (size_t i = 0; i < primary.size(); ++i) {
    if (--counts[util::canon_hash_value(primary[i])] < 0) return i;
  }
  return primary.size();
}

/// Element-wise operators (map/flat_map/filter): re-runs a sampled task's
/// `emit(x, out)` over a permuted input; a pure closure must produce the
/// permuted -- i.e. multiset-equal -- output.
template <typename T, typename U, typename Emit>
void detsan_replay_elementwise(DetSan& ds, u32 node_id, u32 pid,
                               const char* op, const std::vector<T>& in,
                               const std::vector<U>& primary,
                               const Emit& emit) {
  if constexpr (util::is_canon_hashable_v<U>) {
    if (!ds.should_replay(node_id, pid)) return;
    std::vector<U> replay;
    replay.reserve(primary.size());
    for (u32 i : DetSan::permutation(in.size(), ds.replay_seed(node_id, pid))) {
      emit(in[i], replay);
    }
    ds.note_replayed();
    if (util::canon_hash_unordered(primary) ==
        util::canon_hash_unordered(replay)) {
      return;
    }
    const size_t at = detsan_first_unmatched(primary, replay);
    ds.report_divergence(node_id, op,
                         "element index " + std::to_string(at) + " of " +
                             std::to_string(primary.size()) +
                             " (replay produced " +
                             std::to_string(replay.size()) + " element(s))");
  }
}

/// Order-contractual operators (map_partitions, sum_arrays accumulators):
/// replaying with the identical input must reproduce the identical output,
/// element for element.
template <typename U>
void detsan_check_ordered(DetSan& ds, u32 node_id, const char* op,
                          const std::vector<U>& primary,
                          const std::vector<U>& replay) {
  ds.note_replayed();
  if (util::canon_hash_ordered(primary) == util::canon_hash_ordered(replay)) {
    return;
  }
  const size_t common = std::min(primary.size(), replay.size());
  size_t at = common;  // only the lengths differ
  for (size_t i = 0; i < common; ++i) {
    if (util::canon_hash_value(primary[i]) !=
        util::canon_hash_value(replay[i])) {
      at = i;
      break;
    }
  }
  ds.report_divergence(node_id, op,
                       "element index " + std::to_string(at) + " of " +
                           std::to_string(primary.size()));
}

/// Map-side combine accumulators (combine_values): the key ->
/// accumulated-value maps of the primary and the permuted-order replay must
/// agree as multisets of (key, value) pairs -- this is exactly the engine's
/// commutativity contract for the combine fn, and it also catches hash-map
/// iteration order leaking *into* the values. `report(element)` files the
/// divergence under the caller's node or job.
template <typename K, typename V, typename Hash, typename Report>
void detsan_check_kv(DetSan& ds, const std::unordered_map<K, V, Hash>& primary,
                     const std::unordered_map<K, V, Hash>& replay,
                     const Report& report) {
  ds.note_replayed();
  if (util::canon_hash_unordered(primary) ==
      util::canon_hash_unordered(replay)) {
    return;
  }
  for (const auto& [k, v] : primary) {
    const auto it = replay.find(k);
    if (it != replay.end() &&
        util::canon_hash_value(it->second) == util::canon_hash_value(v)) {
      continue;
    }
    report(std::string(it == replay.end() ? "key missing from replay"
                                          : "combined value for key") +
           " (key hash " + std::to_string(util::canon_hash_value(k)) + ", " +
           std::to_string(primary.size()) + " vs " +
           std::to_string(replay.size()) + " key(s))");
    return;
  }
  report("replay-only key(s): " + std::to_string(replay.size()) + " vs " +
         std::to_string(primary.size()));
}

/// Partition fold (RDD::reduce): an associative + commutative f reaches
/// the same accumulator from any fold order.
template <typename T, typename F>
void detsan_replay_fold(DetSan& ds, u32 node_id, u32 pid,
                        const std::vector<T>& in, const T& acc, F& f) {
  if (in.size() < 2 || !ds.should_replay(node_id, pid)) return;
  const std::vector<u32> order =
      DetSan::permutation(in.size(), ds.replay_seed(node_id, pid));
  T racc = in[order[0]];
  for (size_t i = 1; i < order.size(); ++i) {
    work::add(1);
    racc = f(racc, in[order[i]]);
  }
  ds.note_replayed();
  if (util::canon_hash_value(acc) == util::canon_hash_value(racc)) return;
  ds.report_divergence(node_id, "reduce",
                       "partition fold over " + std::to_string(in.size()) +
                           " element(s): permuted fold order disagrees");
}

/// Base lineage node: owns the partition cache and fault-recovery logic.
template <typename T>
class Node : public CacheHolder {
 public:
  using Part = std::shared_ptr<const std::vector<T>>;

  Node(Context& ctx, u32 nparts)
      : CacheHolder(ctx.next_rdd_id(), nparts, &Node::drop_thunk),
        ctx_(ctx),
        nparts_(nparts) {
    YAFIM_CHECK(nparts_ > 0, "an RDD needs at least one partition");
  }

  virtual ~Node() {
    if (persisted_) ctx_.fault_injector().unregister_holder(this);
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Recompute partition `pid` from lineage (never consults the cache).
  virtual std::vector<T> compute(u32 pid) = 0;

  Context& ctx() const { return ctx_; }
  u32 id() const { return holder_id(); }
  u32 num_partitions() const { return nparts_; }

  void persist() {
    {
      util::MutexLock lock(mutex_);
      if (persisted_) return;
      persisted_ = true;
      cache_.resize(nparts_);
      ever_cached_.assign(nparts_, false);
      hit_seq_.assign(nparts_, 0);
    }
    // Outside our (leaf) lock: the injector takes its own lock and may call
    // back into drop_cached (see the locking protocol in engine/fault.h).
    ctx_.fault_injector().register_holder(this);
    if (ctx_.linter().enabled()) ctx_.linter().note_persist(id());
  }

  bool persisted() const {
    util::MutexLock lock(mutex_);
    return persisted_;
  }

  /// Cache-aware partition access.
  virtual Part get(u32 pid) {
    YAFIM_DCHECK(pid < nparts_, "partition out of range");
    FaultInjector& injector = ctx_.fault_injector();
    Part hit;
    bool corrupt = false;
    {
      util::MutexLock lock(mutex_);
      if (persisted_ && cache_[pid]) {
        // Deterministic corruption draw per (rdd, partition, hit#): corrupt
        // backing bytes are discarded here and the fall-through recompute
        // below is the lineage repair (ever_cached_ stays true, so it is
        // counted as a recovery recomputation).
        if (injector.draw_cached_corruption(id(), pid, hit_seq_[pid]++)) {
          cache_[pid].reset();
          corrupt = true;
        } else {
          obs::count(obs::CounterId::kCacheHits);
          hit = cache_[pid];
        }
      }
    }
    // Outside our (leaf) lock: the injector takes its own mutex to forget
    // the stale LRU entry.
    if (corrupt) injector.note_cache_corruption(id(), pid);
    if (hit) {
      // Outside our (leaf) lock: the LRU refresh may race with an eviction
      // of this very partition, but `hit` keeps the data alive either way.
      if (injector.cache_budget_enabled()) injector.note_cache_hit(id(), pid);
      if (ctx_.linter().enabled()) ctx_.linter().note_cache_read(id());
      return hit;
    }
    auto data = std::make_shared<const std::vector<T>>(compute(pid));
    // Priced only under a finite budget; byte_size walks the partition.
    const u64 bytes =
        injector.cache_budget_enabled() ? byte_size(*data) : 0;
    bool inserted = false;
    Part out;
    {
      util::MutexLock lock(mutex_);
      if (!persisted_) return data;
      if (!cache_[pid]) {
        obs::count(obs::CounterId::kCacheMisses);
        // A re-fill after a drop is a lineage recomputation (fault
        // recovery / cache-pressure degradation).
        if (ever_cached_[pid]) injector.note_recomputation();
        cache_[pid] = std::move(data);
        ever_cached_[pid] = true;
        inserted = true;
      }
      out = cache_[pid];
    }
    if (inserted && injector.cache_budget_enabled()) {
      // Outside our lock: admission may LRU-evict (possibly from this very
      // node, taking our lock again from under the injector's).
      injector.note_cache_insert(id(), pid, bytes);
    }
    return out;
  }

 protected:
  /// Lineage-shadow registration for the plan linter (engine/lint.h);
  /// called from derived constructors, which know the operator kind and
  /// parent ids the base cannot.
  void lint_register(PlanOp op, std::initializer_list<u32> parents) {
    if (ctx_.linter().enabled()) {
      ctx_.linter().register_node(id(), op, parents);
    }
  }

 private:
  // CacheHolder drop thunk. Runs with the injector lock held, possibly
  // concurrently with the derived destructors (~MapNode etc.); it must only
  // touch Node<T> members, which are destroyed after ~Node's body has
  // unregistered us.
  static bool drop_thunk(CacheHolder* holder, u32 pid) {
    auto* self = static_cast<Node*>(holder);
    util::MutexLock lock(self->mutex_);
    if (!self->persisted_ || pid >= self->nparts_ || !self->cache_[pid]) {
      return false;
    }
    self->cache_[pid].reset();
    return true;
  }

  Context& ctx_;
  u32 nparts_;

  // Leaf lock in the engine's lock order: nothing is called with mutex_
  // held (injector callbacks happen outside it; see engine/fault.h).
  mutable util::Mutex mutex_;
  bool persisted_ YAFIM_GUARDED_BY(mutex_) = false;
  std::vector<Part> cache_ YAFIM_GUARDED_BY(mutex_);
  std::vector<bool> ever_cached_ YAFIM_GUARDED_BY(mutex_);
  /// Cache hits served per partition; salts the corruption draw so repeat
  /// accesses get independent (but replay-stable) draws.
  std::vector<u64> hit_seq_ YAFIM_GUARDED_BY(mutex_);
};

/// Data already resident per partition (parallelize(), shuffle outputs).
/// Held by the driver, so it is never "lost" and needs no cache.
template <typename T>
class MaterializedNode final : public Node<T> {
 public:
  MaterializedNode(Context& ctx, std::vector<std::vector<T>> parts)
      : Node<T>(ctx, static_cast<u32>(std::max<size_t>(1, parts.size()))) {
    this->lint_register(PlanOp::kSource, {});
    if (parts.empty()) parts.emplace_back();
    data_.reserve(parts.size());
    for (auto& p : parts) {
      data_.push_back(std::make_shared<const std::vector<T>>(std::move(p)));
    }
  }

  std::vector<T> compute(u32 pid) override { return *data_[pid]; }

  typename Node<T>::Part get(u32 pid) override { return data_[pid]; }

 private:
  std::vector<typename Node<T>::Part> data_;
};

template <typename T, typename U, typename F>
class MapNode final : public Node<U> {
 public:
  MapNode(std::shared_ptr<Node<T>> parent, F f)
      : Node<U>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        f_(std::move(f)) {
    this->lint_register(PlanOp::kMap, {parent_->id()});
  }

  std::vector<U> compute(u32 pid) override {
    auto in = parent_->get(pid);
    auto emit = [this](const T& x, std::vector<U>& out) {
      work::add(1);
      out.push_back(f_(x));
    };
    std::vector<U> out;
    out.reserve(in->size());
    for (const T& x : *in) emit(x, out);
    detsan_replay_elementwise(this->ctx().detsan(), this->id(), pid, "map",
                              *in, out, emit);
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  F f_;
};

template <typename T, typename U, typename F>
class FlatMapNode final : public Node<U> {
 public:
  FlatMapNode(std::shared_ptr<Node<T>> parent, F f)
      : Node<U>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        f_(std::move(f)) {
    this->lint_register(PlanOp::kFlatMap, {parent_->id()});
  }

  std::vector<U> compute(u32 pid) override {
    auto in = parent_->get(pid);
    auto emit = [this](const T& x, std::vector<U>& out) {
      auto produced = f_(x);
      work::add(1 + produced.size());
      out.insert(out.end(), std::make_move_iterator(produced.begin()),
                 std::make_move_iterator(produced.end()));
    };
    std::vector<U> out;
    for (const T& x : *in) emit(x, out);
    detsan_replay_elementwise(this->ctx().detsan(), this->id(), pid,
                              "flat_map", *in, out, emit);
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  F f_;
};

template <typename T, typename F>
class FilterNode final : public Node<T> {
 public:
  FilterNode(std::shared_ptr<Node<T>> parent, F f)
      : Node<T>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        f_(std::move(f)) {
    this->lint_register(PlanOp::kFilter, {parent_->id()});
  }

  std::vector<T> compute(u32 pid) override {
    auto in = parent_->get(pid);
    auto emit = [this](const T& x, std::vector<T>& out) {
      work::add(1);
      if (f_(x)) out.push_back(x);
    };
    std::vector<T> out;
    for (const T& x : *in) emit(x, out);
    detsan_replay_elementwise(this->ctx().detsan(), this->id(), pid, "filter",
                              *in, out, emit);
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  F f_;
};

template <typename T, typename U, typename F>
class MapPartitionsNode final : public Node<U> {
 public:
  MapPartitionsNode(std::shared_ptr<Node<T>> parent, F f)
      : Node<U>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        f_(std::move(f)) {
    this->lint_register(PlanOp::kMapPartitions, {parent_->id()});
  }

  std::vector<U> compute(u32 pid) override {
    auto in = parent_->get(pid);
    work::add(in->size());
    std::vector<U> out = f_(*in);
    if constexpr (util::is_canon_hashable_v<U>) {
      // Partition functions may legitimately depend on element order
      // (tid assignment, zips), so the replay feeds the *same* order and
      // only checks the output is a pure function of it.
      DetSan& ds = this->ctx().detsan();
      if (ds.should_replay(this->id(), pid)) {
        work::add(in->size());
        std::vector<U> replay = f_(*in);
        detsan_check_ordered(ds, this->id(), "map_partitions", out, replay);
      }
    }
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  F f_;
};

/// One-pass multi-sampling: tags each element with the ids of the samples
/// that keep it, so `n` Bernoulli(fraction) samples (or `n` disjoint
/// splits) are drawn in a single scan of the parent. Each (partition,
/// sample) pair gets its own Rng stream, so sample s's membership is
/// independent of how many sibling samples are drawn alongside it and
/// deterministic in (seed, pid) alone.
template <typename T>
class MultiSampleNode final : public Node<std::pair<u32, T>> {
 public:
  MultiSampleNode(std::shared_ptr<Node<T>> parent, u32 n, double fraction,
                  u64 seed, bool disjoint)
      : Node<std::pair<u32, T>>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        n_(n),
        fraction_(fraction),
        seed_(seed),
        disjoint_(disjoint) {
    YAFIM_CHECK(n_ > 0, "multi-sample needs at least one sample");
    this->lint_register(PlanOp::kSample, {parent_->id()});
  }

  std::vector<std::pair<u32, T>> compute(u32 pid) override {
    auto in = parent_->get(pid);
    std::vector<std::pair<u32, T>> out;
    if (disjoint_) {
      // Round-robin split assignment, offset by pid so split 0 does not
      // collect every partition's first element. Exactly one split per
      // element: the splits partition the parent.
      out.reserve(in->size());
      u64 j = 0;
      for (const T& x : *in) {
        work::add(1);
        out.emplace_back(static_cast<u32>((pid + j++) % n_), x);
      }
      return out;
    }
    std::vector<Rng> streams;
    streams.reserve(n_);
    for (u32 s = 0; s < n_; ++s) {
      streams.push_back(Rng(seed_).split(pid).split(s));
    }
    for (const T& x : *in) {
      work::add(1);
      for (u32 s = 0; s < n_; ++s) {
        if (streams[s].bernoulli(fraction_)) out.emplace_back(s, x);
      }
    }
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  u32 n_;
  double fraction_;
  u64 seed_;
  bool disjoint_;
};

template <typename T>
class ZipWithIndexNode final : public Node<std::pair<T, u64>> {
 public:
  ZipWithIndexNode(std::shared_ptr<Node<T>> parent, std::vector<u64> offsets)
      : Node<std::pair<T, u64>>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        offsets_(std::move(offsets)) {
    this->lint_register(PlanOp::kZipWithIndex, {parent_->id()});
  }

  std::vector<std::pair<T, u64>> compute(u32 pid) override {
    auto in = parent_->get(pid);
    std::vector<std::pair<T, u64>> out;
    out.reserve(in->size());
    u64 index = offsets_[pid];
    for (const T& x : *in) {
      work::add(1);
      out.emplace_back(x, index++);
    }
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  std::vector<u64> offsets_;
};

// --- shuffle spill (memory-pressure degradation) -----------------------
//
// When a shuffle stage's map-side buffers exceed the per-node budget
// (ClusterConfig::shuffle_buffer_bytes, via Context::should_spill), the
// stage spills its blocks to the context's spill filesystem: each map
// task's output is genuinely serialized, optionally compressed with the
// util/bytes yz codec, written to checksummed simfs (so corruption
// injection covers spilled data like any other block), and read back
// before the reduce stage. The spill and read-back are priced as DFS I/O
// plus codec CPU through the cost model.
//
// Only the element shapes the engine actually spills need a wire format:
// arithmetic scalars, vectors of spillable elements, and pairs of
// spillable halves. Blocks of any other shape stay on the ledger but in
// memory (ShuffleSpill::round_trip).

template <typename T>
struct SpillFormat : std::bool_constant<std::is_arithmetic_v<T>> {};
template <typename E>
struct SpillFormat<std::vector<E>> : SpillFormat<E> {};
template <typename A, typename B>
struct SpillFormat<std::pair<A, B>>
    : std::bool_constant<SpillFormat<A>::value && SpillFormat<B>::value> {};
template <typename T>
inline constexpr bool is_spillable_v = SpillFormat<T>::value;

/// Appends the wire bytes of a spillable value: raw arithmetic bytes, a
/// u64 length before vector elements, pair halves in order.
template <typename T>
void spill_put(std::vector<u8>& out, const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    const u8* b = reinterpret_cast<const u8*>(&v);
    out.insert(out.end(), b, b + sizeof(T));
  } else if constexpr (PairTraits<T>::is_pair) {
    spill_put(out, v.first);
    spill_put(out, v.second);
  } else {
    using E = typename T::value_type;
    spill_put(out, static_cast<u64>(v.size()));
    if constexpr (std::is_arithmetic_v<E>) {
      const u8* b = reinterpret_cast<const u8*>(v.data());
      out.insert(out.end(), b, b + v.size() * sizeof(E));
    } else {
      for (const E& e : v) spill_put(out, e);
    }
  }
}

/// Reads back what spill_put wrote, advancing `pos`.
template <typename T>
void spill_get(std::span<const u8> in, size_t& pos, T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    YAFIM_CHECK(pos + sizeof(T) <= in.size(), "spill: truncated block");
    std::memcpy(&v, in.data() + pos, sizeof(T));
    pos += sizeof(T);
  } else if constexpr (PairTraits<T>::is_pair) {
    spill_get(in, pos, v.first);
    spill_get(in, pos, v.second);
  } else {
    using E = typename T::value_type;
    u64 n = 0;
    spill_get(in, pos, n);
    v.clear();
    v.resize(static_cast<size_t>(n));
    if constexpr (std::is_arithmetic_v<E>) {
      YAFIM_CHECK(pos + n * sizeof(E) <= in.size(), "spill: truncated block");
      std::memcpy(v.data(), in.data() + pos, n * sizeof(E));
      pos += n * sizeof(E);
    } else {
      for (E& e : v) spill_get(in, pos, e);
    }
  }
}

/// Per-shuffle ledger and spill controller, driven by the shuffle core
/// below (ShuffleMap) and by MapReduce jobs (mapreduce/job.h). `Block` is
/// one map task's buffered output: the per-reduce bucket vector of a keyed
/// shuffle, or the encoded cell segments of sum_arrays. round_trip() admits
/// the blocks to the memory ledger and, over budget, serializes, writes
/// and frees them, then reads them back (deleting each spill file) for the
/// reduce side. Blocks that never spilled stay on the ledger until the
/// destructor, i.e. until the reduce that consumes them is done.
template <typename Block>
class ShuffleSpill {
 public:
  ShuffleSpill(Context& ctx, std::string label)
      : ctx_(ctx), label_(std::move(label)) {}

  ShuffleSpill(const ShuffleSpill&) = delete;
  ShuffleSpill& operator=(const ShuffleSpill&) = delete;

  ~ShuffleSpill() {
    if (buffered_) ctx_.memory_budget().release_shuffle_buffered(buffered_);
  }

  /// Driver thread, once per shuffle, between its map and reduce stages.
  void round_trip(u64 buffered_bytes, std::vector<Block>& blocks) {
    buffered_ = buffered_bytes;
    if (buffered_) ctx_.memory_budget().note_shuffle_buffered(buffered_);
    if constexpr (is_spillable_v<Block>) {
      if (ctx_.should_spill(buffered_)) spill_and_restore(blocks);
    }
  }

 private:
  void spill_and_restore(std::vector<Block>& blocks) {
    simfs::SimFS& fs = *ctx_.spill_fs();
    const bool compress = ctx_.spill_compress();
    const std::string prefix =
        "spill/" + label_ + "-" + std::to_string(ctx_.next_spill_id()) + "/";
    auto path = [&](size_t i) { return prefix + "block-" + std::to_string(i); };
    u64 raw_total = 0;
    u64 stored_total = 0;
    // A block the codec would grow (already-compact bytes, such as
    // sum_arrays' encoded cells) is stored as is; only the blocks stored
    // compressed are decompressed, and priced so, on the way back.
    std::vector<bool> compressed(blocks.size(), false);
    u64 compressed_raw = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
      std::vector<u8> bytes;
      spill_put(bytes, blocks[i]);
      check_serialization(i, blocks[i], bytes);
      const u64 raw = bytes.size();
      if (compress) {
        std::vector<u8> packed = yz_compress(bytes);
        if (packed.size() < raw) {
          bytes = std::move(packed);
          compressed[i] = true;
          compressed_raw += raw;
        }
      }
      const u64 stored = bytes.size();
      fs.write(path(i), std::move(bytes));
      ctx_.memory_budget().note_spill_write(raw, stored);
      raw_total += raw;
      stored_total += stored;
      Block().swap(blocks[i]);  // the buffer is on disk now; free it
    }
    record_io(":spill", /*write=*/true, raw_total, stored_total,
              blocks.size(), compress);
    ctx_.memory_budget().release_shuffle_buffered(buffered_);
    buffered_ = 0;

    for (size_t i = 0; i < blocks.size(); ++i) {
      std::vector<u8> bytes = fs.read(path(i));
      fs.remove(path(i));
      if (compressed[i]) bytes = yz_decompress(bytes);
      size_t pos = 0;
      spill_get(std::span<const u8>(bytes), pos, blocks[i]);
      YAFIM_CHECK(pos == bytes.size(), "spill: trailing bytes in block");
      ctx_.memory_budget().note_spill_read(bytes.size());
    }
    record_io(":spill-read", /*write=*/false, compressed_raw, stored_total,
              blocks.size(), compress);
  }

  /// Serialize-twice check: a block whose wire bytes differ across two
  /// serializations of the same data carries uninitialized or
  /// address-dependent bytes. Host-only (no work::add): the sim prices
  /// the spill itself via record_io, not the encoder's determinism.
  void check_serialization(size_t i, const Block& block,
                           const std::vector<u8>& bytes) {
    DetSan& ds = ctx_.detsan();
    const u32 id = static_cast<u32>(mix64(xxh64(label_.data(), label_.size())));
    if (!ds.should_replay(id, static_cast<u32>(i))) return;
    std::vector<u8> again;
    spill_put(again, block);
    ds.note_replayed();
    if (bytes == again) return;
    const size_t at =
        std::mismatch(bytes.begin(), bytes.end(), again.begin(), again.end())
            .first -
        bytes.begin();
    ds.report_divergence_raw(
        "spill block '" + label_ + "' #" + std::to_string(i),
        "spill-serialize",
        "byte offset " + std::to_string(at) + " of " +
            std::to_string(bytes.size()));
  }

  /// Price one side of the spill round trip: DFS I/O of the stored bytes
  /// plus the codec CPU over `raw_bytes`, the bytes the codec ran over
  /// (cluster spill_*_work_per_kb).
  void record_io(const char* suffix, bool write, u64 raw_bytes,
                 u64 stored_bytes, size_t nblocks, bool compress) {
    const sim::ClusterConfig& cluster = ctx_.cluster();
    sim::StageRecord rec;
    rec.label = label_ + suffix;
    rec.kind = sim::StageKind::kSparkStage;
    rec.pass = ctx_.pass();
    if (write) {
      rec.dfs_write_bytes = stored_bytes;
    } else {
      rec.dfs_read_bytes = stored_bytes;
    }
    const u64 work_per_kb = compress ? (write ? cluster.spill_compress_work_per_kb
                                              : cluster.spill_decompress_work_per_kb)
                                     : 0;
    const u32 tasks = static_cast<u32>(std::max<size_t>(
        1, std::min<size_t>(nblocks, ctx_.default_partitions())));
    rec.tasks = sim::split_work((raw_bytes / 1024) * work_per_kb, tasks);
    ctx_.record(std::move(rec));
  }

  Context& ctx_;
  std::string label_;
  u64 buffered_ = 0;
};

// --- the shuffle core -----------------------------------------------------
//
// Every wide operator, and every MapReduce job (mapreduce/job.h), moves
// data the same way: a map task folds or copies its partition into one
// block -- reduce buckets for a keyed shuffle, the encoded nonzero cells
// of each reduce slice for sum_arrays -- and prices it; the blocks go on
// the memory ledger and round-trip through simfs when over budget; a
// reduce stage consumes them. The helpers below are those steps, written once.

/// One map task's keyed-shuffle output: a bucket per reduce task.
template <typename P>
using Buckets = std::vector<std::vector<P>>;

/// Map-side combine, the map half of Spark's reduceByKey: folds one task's
/// (key, value) `pairs` into a key -> value map, the first value of a key
/// starting its entry and `merge(acc, v)` folding each later one in. One
/// work unit per pair. With `replay` set (a DetSan-sampled task) the map is
/// also rebuilt over the pair order permuted by `seed` and checked with
/// detsan_check_kv. The replay runs first, so the primary may move keys out
/// of mutable `pairs` (a MapReduce emitter); a const input partition is
/// copied from.
template <typename Hash, typename Pairs, typename Merge, typename Report>
auto combine_values(Pairs& pairs, Merge& merge, DetSan& ds, bool replay,
                    u64 seed, const Report& report) {
  using K = std::remove_cvref_t<decltype(pairs.begin()->first)>;
  using V = std::remove_cvref_t<decltype(pairs.begin()->second)>;
  using Map = std::unordered_map<K, V, Hash>;
  auto fold = [&](Map& acc, auto&& k, const V& v) {
    work::add(1);
    // try_emplace leaves `k` alone when the key is already present.
    auto [it, inserted] = acc.try_emplace(std::forward<decltype(k)>(k), v);
    if (!inserted) it->second = merge(std::move(it->second), v);
  };
  constexpr bool kCheckable =
      util::is_canon_hashable_v<K> && util::is_canon_hashable_v<V>;
  Map replayed;
  if (kCheckable && replay) {
    replayed.reserve(std::min(pairs.size(), kCombineReserveCap));
    for (u32 i : DetSan::permutation(pairs.size(), seed)) {
      fold(replayed, pairs[i].first, pairs[i].second);
    }
  }
  Map acc;
  acc.reserve(std::min(pairs.size(), kCombineReserveCap));
  for (auto& [k, v] : pairs) fold(acc, std::move(k), v);
  if constexpr (kCheckable) {
    if (replay) detsan_check_kv(ds, acc, replayed, report);
  }
  return acc;
}

/// Appends each (key, value) entry to bucket `part(key)` of `buckets`
/// (sized to `reduce_tasks`) and returns the bytes routed. Entries are
/// moved out of a mutable range (a task's combine map or emitter) and
/// copied out of a const one (a shared input partition).
template <typename P, typename Entries, typename Part>
u64 route(Entries& entries, u32 reduce_tasks, const Part& part,
          Buckets<P>& buckets) {
  buckets.resize(reduce_tasks);
  u64 bytes = 0;
  for (auto& [k, v] : entries) {
    bytes += byte_size(k) + byte_size(v);
    auto& bucket = buckets[part(k)];
    if constexpr (std::is_const_v<Entries>) {
      bucket.emplace_back(k, v);
    } else {
      using K = std::remove_const_t<std::remove_reference_t<decltype(k)>>;
      bucket.emplace_back(std::move(const_cast<K&>(k)), std::move(v));
    }
  }
  return bytes;
}

/// Reduce side of a grouping shuffle: the values bucket `r` received from
/// every map task, per key, one work unit per value.
template <typename Hash, typename K, typename V>
std::unordered_map<K, std::vector<V>, Hash> gather(
    std::vector<Buckets<std::pair<K, V>>>& blocks, u32 r) {
  std::unordered_map<K, std::vector<V>, Hash> groups;
  for (auto& buckets : blocks) {
    for (auto& [k, v] : buckets[r]) {
      work::add(1);
      groups[std::move(k)].push_back(std::move(v));
    }
  }
  return groups;
}

/// Moves a reduce task's key -> value map into its output partition.
template <typename Map>
auto drain(Map& map) {
  using K = typename Map::key_type;
  std::vector<std::pair<K, typename Map::mapped_type>> out;
  out.reserve(map.size());
  for (auto& [k, m] : map) {
    out.emplace_back(std::move(const_cast<K&>(k)), std::move(m));
  }
  return out;
}

/// One sum_arrays map task's shuffle block: the encoded cell segments of
/// all reduce slices back to back, and the end offset of each segment.
/// Both halves have a spill wire format, so ShuffleSpill spills the block
/// as it is; two buffers per map task rather than one per (map task,
/// reduce slice) keeps small-width arrays cheap on the host.
using CellBlock = std::pair<std::vector<u8>, std::vector<u64>>;

/// sum_arrays' wire format. `cells` is cut into `slices` contiguous
/// ranges [width*r/slices, width*(r+1)/slices); segment r holds that
/// range's nonzero cells in ascending order, each as two LEB128 varints:
/// the gap from the previous cell's successor (from the range start for
/// the first), then the cell's bit pattern. Returns the encoded bytes.
/// Zero cells cost nothing, so a partition that touched few cells ships
/// few bytes whatever the width.
template <typename E>
u64 encode_cells(const std::vector<E>& cells, u32 slices, CellBlock& block) {
  static_assert(sizeof(E) <= sizeof(u64));
  constexpr size_t kMaxCellBytes = 20;  // two 10-byte varints
  const auto put = [](u8* out, u64 v) {
    for (; v >= 0x80; v >>= 7) *out++ = static_cast<u8>(v | 0x80);
    *out++ = static_cast<u8>(v);
    return out;
  };
  auto& [bytes, ends] = block;
  const size_t width = cells.size();
  const auto nonzero = static_cast<size_t>(std::count_if(
      cells.begin(), cells.end(), [](E c) { return c != E{}; }));
  bytes.resize(nonzero * kMaxCellBytes);
  ends.resize(slices);
  u8* out = bytes.data();
  for (u32 r = 0; r < slices; ++r) {
    size_t next = width * r / slices;
    const size_t end = width * (r + 1) / slices;
    for (size_t i = next; i < end; ++i) {
      if (cells[i] == E{}) continue;
      u64 bits = 0;
      std::memcpy(&bits, &cells[i], sizeof(E));
      out = put(put(out, i - next), bits);
      next = i + 1;
    }
    ends[r] = static_cast<u64>(out - bytes.data());
  }
  bytes.resize(static_cast<size_t>(out - bytes.data()));
  bytes.shrink_to_fit();
  return bytes.size();
}

/// Adds every cell of segment `r` of `block` into `out`, the segment's
/// range starting at `begin`; returns the number of cells merged.
template <typename E>
u64 decode_cells(const CellBlock& block, u32 r, size_t begin,
                 std::vector<E>& out) {
  const auto& [bytes, ends] = block;
  YAFIM_CHECK(r < ends.size() && ends[r] <= bytes.size(),
              "sum_arrays: malformed cell block");
  const u8* p = bytes.data() + (r ? ends[r - 1] : 0);
  const u8* const end = bytes.data() + ends[r];
  const auto get = [&]() {
    u64 v = 0;
    for (u32 shift = 0;; shift += 7) {
      YAFIM_CHECK(p < end && shift < 64, "sum_arrays: malformed cell segment");
      const u8 b = *p++;
      v |= u64{b & 0x7fu} << shift;
      if (b < 0x80) return v;
    }
  };
  u64 merged = 0;
  for (size_t next = begin; p < end; ++merged) {
    const size_t i = next + static_cast<size_t>(get());
    const u64 bits = get();
    YAFIM_CHECK(i < out.size(), "sum_arrays: cell id out of range");
    E v;
    std::memcpy(&v, &bits, sizeof(E));
    out[i] += v;
    next = i + 1;
  }
  return merged;
}

/// The map side of one RDD shuffle: consumes `node` for the linter, runs
/// `map_task(partition, pid, block) -> bytes` over its partitions as stage
/// `stage` (the bytes recorded as its shuffle bytes), and puts the blocks
/// through ShuffleSpill under `label`. The caller's reduce stage reads
/// blocks(); unless they spilled, they stay on the ledger until this
/// object dies.
template <typename Block>
class ShuffleMap {
 public:
  template <typename T, typename MapTask>
  ShuffleMap(Node<T>& node, const std::string& label, const std::string& stage,
             MapTask map_task)
      : blocks_(node.num_partitions()), spill_(node.ctx(), label) {
    Context& ctx = node.ctx();
    if (ctx.linter().enabled()) {
      ctx.linter().before_execute(node.id(), PlanLinter::Consume::kShuffle,
                                  label);
    }
    std::atomic<u64> bytes{0};
    ctx.run_stage_with_shuffle(
        stage, node.num_partitions(),
        [&](u32 pid) {
          const auto in = node.get(pid);
          bytes.fetch_add(map_task(*in, pid, blocks_[pid]),
                          std::memory_order_relaxed);
        },
        bytes);
    bytes_ = bytes.load(std::memory_order_relaxed);
    spill_.round_trip(bytes_, blocks_);
  }

  std::vector<Block>& blocks() { return blocks_; }
  u64 bytes() const { return bytes_; }

 private:
  std::vector<Block> blocks_;
  ShuffleSpill<Block> spill_;
  u64 bytes_ = 0;
};

}  // namespace detail

/// Value-semantic handle to a lineage node. Cheap to copy.
template <typename T>
class RDD {
 public:
  using value_type = T;

  explicit RDD(std::shared_ptr<detail::Node<T>> node)
      : node_(std::move(node)) {}

  u32 num_partitions() const { return node_->num_partitions(); }
  u32 id() const { return node_->id(); }
  Context& ctx() const { return node_->ctx(); }

  /// Cache computed partitions in executor memory (Spark's MEMORY_ONLY).
  RDD& persist() {
    node_->persist();
    return *this;
  }
  bool persisted() const { return node_->persisted(); }

  /// Attach a human-readable debug name; lint diagnostics reference it
  /// instead of "rdd#<id>", matching the stage labels in traces. Chainable
  /// at the creation site: `ctx.parallelize(db).named("transactions")`.
  RDD& named(const std::string& name) {
    Context& ctx = node_->ctx();
    if (ctx.linter().enabled()) ctx.linter().set_node_name(id(), name);
    return *this;
  }

  // --- narrow transformations (lazy) ---------------------------------

  template <typename F>
  auto map(F f) const {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    return RDD<U>(std::make_shared<detail::MapNode<T, U, F>>(node_,
                                                             std::move(f)));
  }

  /// `f` must return an iterable container of the output element type.
  template <typename F>
  auto flat_map(F f) const {
    using C = std::decay_t<std::invoke_result_t<F, const T&>>;
    using U = typename C::value_type;
    return RDD<U>(
        std::make_shared<detail::FlatMapNode<T, U, F>>(node_, std::move(f)));
  }

  template <typename F>
  RDD<T> filter(F f) const {
    return RDD<T>(
        std::make_shared<detail::FilterNode<T, F>>(node_, std::move(f)));
  }

  /// `f(const std::vector<T>& partition) -> std::vector<U>`.
  template <typename F>
  auto map_partitions(F f) const {
    using C = std::decay_t<std::invoke_result_t<F, const std::vector<T>&>>;
    using U = typename C::value_type;
    return RDD<U>(std::make_shared<detail::MapPartitionsNode<T, U, F>>(
        node_, std::move(f)));
  }

  /// Draw `n` independent Bernoulli(fraction) samples in one pass over the
  /// data: emits (sample_id, element) for every sample that keeps the
  /// element. Deterministic in (seed, partition); each sample's membership
  /// is independent of its siblings'.
  RDD<std::pair<u32, T>> sample_each(u32 n, double fraction, u64 seed) const {
    return RDD<std::pair<u32, T>>(std::make_shared<detail::MultiSampleNode<T>>(
        node_, n, fraction, seed, /*disjoint=*/false));
  }

  /// Deterministically scatter elements round-robin into `n` disjoint
  /// splits: emits (split_id, element) with every element in exactly one
  /// split (the SON "mapper split" shape, without a shuffle).
  RDD<std::pair<u32, T>> disjoint_splits(u32 n) const {
    return RDD<std::pair<u32, T>>(std::make_shared<detail::MultiSampleNode<T>>(
        node_, n, /*fraction=*/1.0, /*seed=*/0, /*disjoint=*/true));
  }

  /// Pair every element with its global index in partition order (Spark's
  /// zipWithIndex). Runs one counting stage to learn partition offsets.
  auto zip_with_index(const std::string& label = "zipWithIndex") const {
    Context& ctx = node_->ctx();
    const u32 n = node_->num_partitions();
    lint_consume(PlanLinter::Consume::kAction, label + ":count");
    std::vector<u64> sizes(n, 0);
    ctx.run_stage(label + ":count", n,
                  [&](u32 pid) { sizes[pid] = node_->get(pid)->size(); });
    std::vector<u64> offsets(n, 0);
    for (u32 p = 1; p < n; ++p) offsets[p] = offsets[p - 1] + sizes[p - 1];
    return RDD<std::pair<T, u64>>(
        std::make_shared<detail::ZipWithIndexNode<T>>(node_,
                                                      std::move(offsets)));
  }

  // --- pair-RDD operations --------------------------------------------

  /// Shuffle + aggregate values per key (Spark's reduceByKey). Only
  /// available when T is std::pair<K, V>. `Hash` must hash K
  /// deterministically. Map tasks fold their values per key with `combine`
  /// (DetSan replays this fold) and hash-route the partial values; reduce
  /// tasks merge each key's partials with the same fn, so a
  /// non-commutative one cannot slip past the map-side replay.
  template <typename F,
            typename Hash = std::hash<typename detail::PairTraits<T>::key_type>>
    requires detail::PairTraits<T>::is_pair
  RDD<T> reduce_by_key(F combine, u32 out_partitions = 0, Hash hash = Hash{},
                       const std::string& label = "reduceByKey") const {
    using K = typename detail::PairTraits<T>::key_type;
    using V = typename detail::PairTraits<T>::mapped_type;

    Context& ctx = node_->ctx();
    DetSan& ds = ctx.detsan();
    const u32 id = node_->id();
    const u32 reduce_tasks = reduce_tasks_for(out_partitions);
    const auto part = hash_partitioner(hash, reduce_tasks);
    detail::ShuffleMap<detail::Buckets<T>> shuffle(
        *node_, label, label + ":map-combine",
        [&](const std::vector<T>& in, u32 pid, detail::Buckets<T>& buckets) {
          auto acc = detail::combine_values<Hash>(
              in, combine, ds, ds.should_replay(id, pid),
              ds.replay_seed(id, pid), [&](const std::string& element) {
                ds.report_divergence(id, "reduce_by_key", element);
              });
          return detail::route(acc, reduce_tasks, part, buckets);
        });

    std::vector<std::vector<T>> out(reduce_tasks);
    ctx.run_stage(label + ":reduce", reduce_tasks, [&](u32 r) {
      std::unordered_map<K, V, Hash> acc;
      for (auto& buckets : shuffle.blocks()) {
        for (auto& [k, v] : buckets[r]) {
          work::add(1);
          auto [it, inserted] = acc.try_emplace(std::move(k), std::move(v));
          if (!inserted) it->second = combine(std::move(it->second), v);
        }
      }
      out[r] = detail::drain(acc);
    });
    return ctx.from_partitions(std::move(out));
  }

  /// Shuffle + gather all values per key (Spark's groupByKey). No map-side
  /// combining is possible, so the full value stream crosses the shuffle --
  /// prefer reduce_by_key when the downstream only folds.
  template <typename Hash = std::hash<typename detail::PairTraits<T>::key_type>>
    requires detail::PairTraits<T>::is_pair
  auto group_by_key(u32 out_partitions = 0, Hash hash = Hash{},
                    const std::string& label = "groupByKey") const {
    using K = typename detail::PairTraits<T>::key_type;
    using V = typename detail::PairTraits<T>::mapped_type;

    Context& ctx = node_->ctx();
    const u32 reduce_tasks = reduce_tasks_for(out_partitions);
    const auto part = hash_partitioner(hash, reduce_tasks);
    // No map-side combine: one work unit per element, copied to its bucket.
    detail::ShuffleMap<detail::Buckets<T>> shuffle(
        *node_, label, label + ":map",
        [&](const std::vector<T>& in, u32, detail::Buckets<T>& buckets) {
          work::add(in.size());
          return detail::route(in, reduce_tasks, part, buckets);
        });
    std::vector<std::vector<std::pair<K, std::vector<V>>>> out(reduce_tasks);
    ctx.run_stage(label + ":reduce", reduce_tasks, [&](u32 r) {
      auto groups = detail::gather<Hash>(shuffle.blocks(), r);
      out[r] = detail::drain(groups);
    });
    return ctx.from_partitions(std::move(out));
  }

  // --- actions (eager) -------------------------------------------------

  std::vector<T> collect(const std::string& label = "collect") const {
    Context& ctx = node_->ctx();
    const u32 n = node_->num_partitions();
    lint_consume(PlanLinter::Consume::kAction, label);
    std::vector<typename detail::Node<T>::Part> parts(n);
    ctx.run_stage(label, n, [&](u32 pid) { parts[pid] = node_->get(pid); });

    size_t total = 0;
    for (const auto& p : parts) total += p->size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto& p : parts) out.insert(out.end(), p->begin(), p->end());
    return out;
  }

  u64 count(const std::string& label = "count") const {
    Context& ctx = node_->ctx();
    const u32 n = node_->num_partitions();
    lint_consume(PlanLinter::Consume::kAction, label);
    std::vector<u64> sizes(n, 0);
    ctx.run_stage(label, n,
                  [&](u32 pid) { sizes[pid] = node_->get(pid)->size(); });
    u64 total = 0;
    for (u64 s : sizes) total += s;
    return total;
  }

  /// Fold all elements with an associative, commutative `f`. Aborts on an
  /// empty RDD (mirrors Spark, which throws).
  template <typename F>
  T reduce(F f, const std::string& label = "reduce") const {
    Context& ctx = node_->ctx();
    const u32 n = node_->num_partitions();
    lint_consume(PlanLinter::Consume::kAction, label);
    std::vector<std::optional<T>> partials(n);
    ctx.run_stage(label, n, [&](u32 pid) {
      auto in = node_->get(pid);
      if (in->empty()) return;
      T acc = (*in)[0];
      for (size_t i = 1; i < in->size(); ++i) {
        work::add(1);
        acc = f(acc, (*in)[i]);
      }
      if constexpr (util::is_canon_hashable_v<T>) {
        detail::detsan_replay_fold(ctx.detsan(), node_->id(), pid, *in, acc,
                                   f);
      }
      partials[pid] = std::move(acc);
    });

    std::optional<T> result;
    for (auto& p : partials) {
      if (!p) continue;
      result = result ? f(*result, *p) : std::move(*p);
    }
    if (!result) {
      throw EngineError(EngineErrorKind::kEmptyReduce,
                        "reduce() on an empty RDD");
    }
    return *result;
  }

  /// Collect a pair RDD into a hash map (keys must be unique, e.g. after
  /// reduce_by_key).
  template <typename Hash = std::hash<typename detail::PairTraits<T>::key_type>>
    requires detail::PairTraits<T>::is_pair
  auto collect_as_map(const std::string& label = "collectAsMap") const {
    using K = typename detail::PairTraits<T>::key_type;
    using V = typename detail::PairTraits<T>::mapped_type;
    std::unordered_map<K, V, Hash> out;
    for (auto& [k, v] : collect(label)) {
      auto [it, inserted] = out.emplace(std::move(k), std::move(v));
      if (!inserted) {
        throw EngineError(EngineErrorKind::kDuplicateKey,
                          "duplicate key in collect_as_map()");
      }
      (void)it;
    }
    return out;
  }

  /// Element-wise sum of fixed-width numeric arrays -- the dense
  /// counterpart of reduce_by_key for counting against a known universe of
  /// `width` candidate ids. Every element must be a std::vector of exactly
  /// `width` cells (EngineError{kArrayWidthMismatch} otherwise).
  ///
  /// Map side folds each partition's arrays into one (a lone array is used
  /// as is), one work unit per cell per input array, and ships only its
  /// nonzero cells: one delta+varint segment per reduce slice
  /// (detail::encode_cells), priced at the encoded size -- so the shuffle
  /// scales with the cells a partition actually touched, not with `width`.
  /// Reduce side slices the index space contiguously over tasks; task r
  /// decodes segment r of every block, one work unit per cell merged.
  /// Returns the fully merged array on the driver.
  template <typename E = typename detail::ArrayTraits<T>::elem_type>
    requires(detail::ArrayTraits<T>::is_array &&
             std::is_arithmetic_v<typename detail::ArrayTraits<T>::elem_type>)
  std::vector<E> sum_arrays(size_t width,
                            const std::string& label = "sumArrays") const {
    Context& ctx = node_->ctx();
    DetSan& ds = ctx.detsan();
    const u32 reduce_tasks = static_cast<u32>(std::max<size_t>(
        1, std::min<size_t>(ctx.default_partitions(), width)));
    std::atomic<bool> bad_width{false};
    detail::ShuffleMap<detail::CellBlock> shuffle(
        *node_, label, label + ":map-combine",
        [&](const std::vector<T>& in, u32 pid,
            detail::CellBlock& block) -> u64 {
          for (const auto& arr : in) {
            if (arr.size() != width) {
              bad_width.store(true, std::memory_order_relaxed);
              return 0;
            }
          }
          work::add(static_cast<u64>(width) * in.size());
          std::vector<E> acc;
          if (in.size() != 1) {
            acc.assign(width, E{});
            for (const auto& arr : in) {
              for (size_t i = 0; i < width; ++i) acc[i] += arr[i];
            }
          }
          const std::vector<E>& sum = in.size() == 1 ? in.front() : acc;
          // Permuted-order re-accumulation: += over a permuted element
          // order must land on the same cells. Exact for integers; for
          // floating-point cells this is the non-associativity catch.
          if (ds.should_replay(node_->id(), pid)) {
            std::vector<E> racc(width, E{});
            for (u32 i : DetSan::permutation(
                     in.size(), ds.replay_seed(node_->id(), pid))) {
              work::add(width);
              for (size_t c = 0; c < width; ++c) racc[c] += in[i][c];
            }
            detail::detsan_check_ordered(ds, node_->id(), "sum_arrays", sum,
                                         racc);
          }
          return detail::encode_cells(sum, reduce_tasks, block);
        });
    if (bad_width.load(std::memory_order_relaxed)) {
      throw EngineError(
          EngineErrorKind::kArrayWidthMismatch,
          label + ": input array width != " + std::to_string(width));
    }
    obs::count(obs::CounterId::kArrayReduceBytes, shuffle.bytes());

    std::vector<E> merged(width, E{});
    ctx.run_stage(label + ":reduce", reduce_tasks, [&](u32 r) {
      for (const detail::CellBlock& block : shuffle.blocks()) {
        work::add(detail::decode_cells(block, r, width * r / reduce_tasks,
                                       merged));
      }
    });
    obs::count(obs::CounterId::kArrayReduceCells, width);
    return merged;
  }

  std::shared_ptr<detail::Node<T>> node() const { return node_; }

 private:
  template <typename U>
  friend class RDD;

  /// Plan-linter consumption hook, called right before an action pulls
  /// this RDD's partitions (engine/lint.h walks the lineage then; shuffles
  /// consume through detail::ShuffleMap).
  void lint_consume(PlanLinter::Consume kind, const std::string& label) const {
    Context& ctx = node_->ctx();
    if (ctx.linter().enabled()) {
      ctx.linter().before_execute(node_->id(), kind, label);
    }
  }

  u32 reduce_tasks_for(u32 out_partitions) const {
    return out_partitions ? out_partitions : node_->num_partitions();
  }

  template <typename Hash>
  static auto hash_partitioner(Hash hash, u32 reduce_tasks) {
    return [hash, reduce_tasks](const auto& k) {
      return static_cast<u32>(hash(k) % reduce_tasks);
    };
  }

  std::shared_ptr<detail::Node<T>> node_;
};

// --- Context factory definitions (declared in engine/context.h) ---------

template <typename T>
RDD<T> Context::from_partitions(std::vector<std::vector<T>> parts) {
  return RDD<T>(
      std::make_shared<detail::MaterializedNode<T>>(*this, std::move(parts)));
}

template <typename T>
RDD<T> Context::parallelize(std::vector<T> data, u32 nparts) {
  if (nparts == 0) nparts = default_partitions();
  const size_t n = data.size();
  nparts = static_cast<u32>(
      std::max<size_t>(1, std::min<size_t>(nparts, std::max<size_t>(1, n))));

  std::vector<std::vector<T>> parts(nparts);
  const size_t base = n / nparts;
  const size_t extra = n % nparts;
  size_t offset = 0;
  for (u32 p = 0; p < nparts; ++p) {
    const size_t len = base + (p < extra ? 1 : 0);
    parts[p].assign(std::make_move_iterator(data.begin() + offset),
                    std::make_move_iterator(data.begin() + offset + len));
    offset += len;
  }
  return from_partitions(std::move(parts));
}

}  // namespace yafim::engine
