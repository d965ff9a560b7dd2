// The candidate hash tree of Agrawal & Srikant's Apriori, which the paper
// builds over Ck and broadcasts to all workers each iteration to speed up
// subset(Ck, t) (Fig. 2, Algorithm 3).
//
// Interior nodes at depth d hash a transaction item (item % branching) to a
// child; leaves hold buckets of candidate ids. Enumerating the candidates
// contained in a transaction walks every path the transaction's items can
// take and containment-checks the reached leaves, visiting each leaf at most
// once per transaction (stamp-based dedup in Probe).
//
// Storage is arena-allocated and index-linked: the tree is built through
// temporary per-node vectors, then flattened into four contiguous arrays --
// fixed-size Node records, a leaf-bucket arena, an interior-child arena, and
// the candidate item arena (all candidates are size k, so candidate ci's
// items live at [ci*k, (ci+1)*k) with no per-itemset vector header). A probe
// therefore never chases a heap pointer: every hop is an index into one of
// the four arrays, and the broadcast payload is four flat buffers instead of
// a node-count's worth of small allocations.
//
// A k = 2 tree over a complete ordered pair set also carries a PairIndex,
// the triangular-array structure the dense counting path uses for pass 2.
// The dense path never walks the tree: the walk serves the paper-faithful
// kItemsetKey path and the partitioned store's shard trees.
#pragma once

#include <optional>
#include <vector>

#include "engine/work.h"
#include "fim/itemset.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::fim {

/// How the per-pass counting stage keys its shuffle (shared by both
/// miners; see DESIGN "counting data structures").
enum class CountMode {
  /// Paper-faithful: every hash-tree hit emits its full Itemset, and the
  /// shuffle is keyed on it.
  kItemsetKey,
  /// Dense: count into fixed-width arrays indexed by candidate id
  /// (tree-local index + the tree's batch-global id offset); itemsets are
  /// materialized from the broadcast tree only for MinSup survivors. Each
  /// tree is counted by its PairIndex (a complete C2) or, failing that, by
  /// AND+popcount over a task-local bitmap index (fim/bitmap.h); the tree
  /// itself only carries the candidate arena and the dense id space.
  kCandidateId,
};

inline const char* count_mode_name(CountMode mode) {
  switch (mode) {
    case CountMode::kItemsetKey: return "itemset_key";
    case CountMode::kCandidateId: return "candidate_id";
  }
  return "unknown";
}

/// How the per-pass candidate structure reaches the workers (shared by
/// both miners; see DESIGN "Memory model & graceful degradation").
enum class BroadcastMode {
  /// Broadcast while the candidate trees fit the executor-memory budget
  /// (engine::MemoryBudget); degrade to the partitioned candidate store
  /// when they would not.
  kAuto,
  /// Always broadcast the full trees. An over-budget payload keeps the
  /// linter's YL002 *error* semantics -- the pre-degradation behavior, and
  /// the CI beyond-memory lane's negative control.
  kFull,
  /// Always use the partitioned candidate store, budget or not.
  kPartitioned,
};

inline const char* broadcast_mode_name(BroadcastMode mode) {
  switch (mode) {
    case BroadcastMode::kAuto: return "auto";
    case BroadcastMode::kFull: return "full";
    case BroadcastMode::kPartitioned: return "partitioned";
  }
  return "unknown";
}

/// Deterministic hash for dense candidate ids (std::hash<u32> is
/// implementation-defined; shuffle partitioning must not depend on it).
struct DenseIdHash {
  size_t operator()(u32 id) const {
    return static_cast<size_t>(mix64(u64{id} + 0x9e3779b97f4a7c15ULL));
  }
};

/// The classic Apriori pass-2 counting structure, for a k = 2 candidate set
/// that is the complete, lexicographically ordered pair set over n distinct
/// items x_0 < ... < x_{n-1} -- which is what apriori_gen(L1, 2) returns.
/// Candidate (x_a, x_b), a < b, then has id row[a] + b with
/// row[a] = a(2n-a-1)/2 - a - 1 (the triangular index), so a transaction is
/// counted by ranking its items and bumping one cell per ranked pair: no
/// tree walk, no containment checks.
class PairIndex {
 public:
  /// The index of a k = 2 item arena (`size` pairs, 2 items each), or
  /// nullopt unless the pairs are complete and in order over their items
  /// and the rank table (one slot per item id up to x_{n-1}) is no wider
  /// than the arena itself.
  static std::optional<PairIndex> of(const Item* pairs, u32 size);

  /// Wire size when shipped next to its tree: header, rank table, rows.
  u64 serialized_bytes() const {
    return 16 + rank_.size() * sizeof(u32) + row_.size() * sizeof(i64);
  }

  /// Adds 1 to cells[id] for every candidate pair contained in `t`
  /// (canonical). One work unit per item looked up, one per pair counted.
  /// `ranks` is per-thread scratch.
  void count(const Transaction& t, std::vector<u32>& ranks, u64* cells) const;

 private:
  static constexpr u32 kNoRank = 0xffffffffu;

  std::vector<u32> rank_;  ///< item id -> rank, kNoRank if not a pair item
  std::vector<i64> row_;   ///< row_[a] + b = id of the pair of ranks (a, b)
};

class HashTree {
 public:
  /// All candidates must be canonical and of equal size k >= 1.
  /// `branching` is the interior fan-out (0 = auto-size from the candidate
  /// count, see default_branching()); `leaf_capacity` the bucket size that
  /// triggers a split (leaves at depth k never split).
  explicit HashTree(std::vector<Itemset> candidates, u32 branching = 0,
                    u32 leaf_capacity = 16);

  /// Fan-out that keeps depth-k leaves near leaf-capacity occupancy:
  /// roughly 2 * n^(1/k), clamped to [8, 1024]. With a fixed small fan-out
  /// a large C2 degenerates to huge leaves that every probe has to scan.
  static u32 default_branching(u64 num_candidates, u32 k);

  u32 k() const { return k_; }
  u32 size() const { return size_; }
  u32 num_leaves() const { return num_leaves_; }
  u32 num_nodes() const { return static_cast<u32>(nodes_.size()); }

  /// Candidate `idx`'s items, a k()-item run in the flat item arena. The
  /// zero-indirection accessor the hot paths (probe containment checks,
  /// bitmap AND loops) read.
  const Item* candidate_items(u32 idx) const {
    return item_arena_.data() + size_t{idx} * k_;
  }

  /// Candidate `idx` materialized as an owning Itemset (driver-side
  /// survivor materialization, MR reducers, tests).
  Itemset candidate(u32 idx) const {
    const Item* items = candidate_items(idx);
    return Itemset(items, items + k_);
  }

  /// All candidates, materialized (tests/debug only -- the tree itself
  /// stores just the arena).
  std::vector<Itemset> candidates() const;

  /// Batch-global id base for this tree's candidates: when several levels
  /// are counted in one pass (combine_passes), tree-local index `ci` maps
  /// to global id `id_offset() + ci` in the shared counting array.
  u64 id_offset() const { return id_offset_; }
  void set_id_offset(u64 offset) { id_offset_ = offset; }

  /// Assign consecutive id ranges to a batch of trees (offset of tree i =
  /// sum of sizes of trees 0..i-1) and return the total id-space width.
  static u64 assign_id_offsets(std::vector<HashTree>& trees) {
    u64 offset = 0;
    for (HashTree& tree : trees) {
      tree.set_id_offset(offset);
      offset += tree.size();
    }
    return offset;
  }

  /// Estimated wire size when broadcast to workers (candidate payload plus
  /// node structure; not the pair index, which only the paths that count
  /// through it ship and price).
  u64 serialized_bytes() const;

  /// The pass-2 pair index, derived with the tree when its candidates are
  /// a complete ordered pair set (PairIndex::of); null otherwise.
  const PairIndex* pair_index() const {
    return pair_index_ ? &*pair_index_ : nullptr;
  }

  /// Arena introspection (tests): every candidate id sits in exactly one
  /// leaf bucket, so the bucket arena holds exactly size() slots; the child
  /// arena holds branching() slots per interior node.
  u32 bucket_arena_size() const { return static_cast<u32>(bucket_arena_.size()); }
  u32 child_arena_size() const { return static_cast<u32>(child_arena_.size()); }
  u32 branching() const { return branching_; }

  /// Per-thread scratch for containment enumeration. Reusable across
  /// probes and across trees; never share one Probe between threads.
  /// The visit counters are probe-local running totals, flushed to the obs
  /// counter registry once per probed transaction (one relaxed atomic add
  /// instead of one per node) when tracing is enabled.
  struct Probe {
    std::vector<u64> leaf_stamp;
    u64 counter = 0;
    u64 nodes_visited = 0;
    u64 candidate_checks = 0;
  };

  /// Invoke fn(candidate_id) once for every candidate contained in `t`.
  /// Adds engine work units for every node visit and candidate check, so
  /// stage task costs reflect real probe effort.
  template <typename Fn>
  void for_each_contained(const Transaction& t, Probe& probe, Fn&& fn) const {
    if (size_ == 0 || t.size() < k_) return;
    ++probe.counter;
    if (probe.leaf_stamp.size() < num_leaves_) {
      probe.leaf_stamp.resize(num_leaves_, 0);
    }
    const u64 nodes_before = probe.nodes_visited;
    const u64 checks_before = probe.candidate_checks;
    walk(kRoot, t, 0, 0, probe, fn);
    if (obs::enabled()) {
      obs::count(obs::CounterId::kHashTreeNodesVisited,
                 probe.nodes_visited - nodes_before);
      obs::count(obs::CounterId::kHashTreeCandChecks,
                 probe.candidate_checks - checks_before);
    }
  }

  /// Reference containment enumeration without the tree (linear scan over
  /// all candidates); the property tests check the tree against this.
  template <typename Fn>
  void for_each_contained_linear(const Transaction& t, Fn&& fn) const {
    for (u32 i = 0; i < size_; ++i) {
      engine::work::add(1);
      if (contains_candidate(t, i)) fn(i);
    }
    obs::count(obs::CounterId::kHashTreeCandChecks, size_);
  }

 private:
  static constexpr u32 kNone = 0xffffffffu;
  static constexpr u32 kRoot = 0;

  /// Flat arena node: 12 bytes, no owned memory. Leaves (leaf_id != kNone)
  /// index `count` bucket slots starting at bucket_arena_[first]; interior
  /// nodes index branching_ child slots starting at child_arena_[first].
  struct Node {
    u32 first = 0;
    u32 count = 0;
    u32 leaf_id = kNone;
  };

  u32 child_slot(Item item) const { return item % branching_; }

  /// contains_all() against the item arena: linear merge of the (canonical)
  /// transaction and candidate `ci`'s k-item run.
  bool contains_candidate(const Transaction& t, u32 ci) const {
    const Item* c = candidate_items(ci);
    size_t ti = 0;
    for (u32 j = 0; j < k_; ++j) {
      while (ti < t.size() && t[ti] < c[j]) ++ti;
      if (ti == t.size() || t[ti] != c[j]) return false;
      ++ti;
    }
    return true;
  }

  template <typename Fn>
  void walk(u32 node_idx, const Transaction& t, size_t pos, u32 depth,
            Probe& probe, Fn& fn) const {
    const Node& node = nodes_[node_idx];
    engine::work::add(1);
    ++probe.nodes_visited;
    if (node.leaf_id != kNone) {
      if (probe.leaf_stamp[node.leaf_id] == probe.counter) return;
      probe.leaf_stamp[node.leaf_id] = probe.counter;
      const u32* bucket = bucket_arena_.data() + node.first;
      for (u32 b = 0; b < node.count; ++b) {
        engine::work::add(1);
        ++probe.candidate_checks;
        if (contains_candidate(t, bucket[b])) fn(bucket[b]);
      }
      return;
    }
    // Choose the next transaction item; keep enough items in reserve to
    // complete a k-path (candidates have exactly k items).
    const size_t remaining_needed = k_ - depth;
    const u32* children = child_arena_.data() + node.first;
    for (size_t i = pos; i + remaining_needed <= t.size(); ++i) {
      const u32 child = children[child_slot(t[i])];
      if (child != kNone) walk(child, t, i + 1, depth + 1, probe, fn);
    }
  }

  /// Candidate items, size_ * k_ entries; candidate ci at [ci*k_, ci*k_+k_).
  std::vector<Item> item_arena_;
  /// Leaf buckets, concatenated; exactly one slot per candidate.
  std::vector<u32> bucket_arena_;
  /// Interior child tables, concatenated; branching_ slots per interior.
  std::vector<u32> child_arena_;
  std::vector<Node> nodes_;
  u64 id_offset_ = 0;
  u32 size_ = 0;
  u32 k_ = 0;
  u32 branching_ = 8;
  u32 leaf_capacity_ = 16;
  u32 num_leaves_ = 0;
  std::optional<PairIndex> pair_index_;
};

// --- partitioned candidate store (broadcast fallback) --------------------
//
// When a pass's candidate trees would not fit next to what the memory
// ledger already places on the tightest executor, the miners shard the
// candidates over the cluster instead of broadcasting the whole structure:
// each shard holds a hash tree over a slice of the candidates, and
// transactions are re-partitioned to the shards they can reach.

/// Deterministic shard of a candidate, keyed on its first (smallest) item.
/// Any transaction containing the candidate also contains that item among
/// its own viable prefix positions, so routing a transaction to the shards
/// of those items reaches every candidate it could support exactly once.
inline u32 candidate_shard(Item first_item, u32 nshards) {
  return static_cast<u32>(mix64(u64{first_item} + 0x9e3779b97f4a7c15ULL) %
                          nshards);
}

/// One shard of the store: a hash tree over the shard's slice of one
/// level's candidates, plus the map from shard-local candidate index back
/// to the source tree's batch-global dense ids. Shard probes increment the
/// same counting cells a full-tree probe would -- which is what keeps the
/// fallback path bit-identical to the broadcast path.
struct TreeShard {
  HashTree tree;
  std::vector<u64> global_ids;
};

/// Split `tree`'s candidates over `nshards` by candidate_shard() of their
/// first item. Every candidate lands in exactly one shard; shards with no
/// candidates get an empty tree (size() == 0, probes return immediately).
std::vector<TreeShard> shard_hash_tree(const HashTree& tree, u32 nshards,
                                       u32 branching, u32 leaf_capacity);

}  // namespace yafim::fim
