#include "fim/hash_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace yafim::fim {

namespace {

/// Build-time node: owns its bucket/children vectors while the insert/split
/// algorithm is still moving candidates around. Flattened into the arena
/// representation (HashTree::Node + the two slot arenas) once the shape is
/// final, then discarded.
struct BuildNode {
  bool leaf = true;
  std::vector<u32> bucket;    ///< candidate ids (leaf only)
  std::vector<u32> children;  ///< branching slots -> node index (interior)
};

}  // namespace

std::optional<PairIndex> PairIndex::of(const Item* pairs, u32 size) {
  if (size == 0) return std::nullopt;
  // Row 0 pairs x_0 with every other item, so it names all n items.
  std::vector<Item> items{pairs[0]};
  for (u32 ci = 0; ci < size && pairs[2 * ci] == pairs[0]; ++ci) {
    items.push_back(pairs[2 * ci + 1]);
  }
  const u64 n = items.size();
  if (n * (n - 1) / 2 != size || items.back() >= u64{2} * size ||
      std::adjacent_find(items.begin(), items.end(),
                         std::greater_equal<>()) != items.end()) {
    return std::nullopt;
  }
  u32 ci = 0;
  for (u32 a = 0; a < n; ++a) {
    for (u32 b = a + 1; b < n; ++b, ++ci) {
      if (pairs[2 * ci] != items[a] || pairs[2 * ci + 1] != items[b]) {
        return std::nullopt;
      }
    }
  }
  PairIndex index;
  index.rank_.assign(items.back() + 1, kNoRank);
  index.row_.resize(n);
  for (u32 a = 0; a < n; ++a) {
    index.rank_[items[a]] = a;
    index.row_[a] = static_cast<i64>(a * (2 * n - a - 1) / 2) - a - 1;
  }
  return index;
}

void PairIndex::count(const Transaction& t, std::vector<u32>& ranks,
                      u64* cells) const {
  ranks.clear();
  size_t looked_up = 0;
  for (Item item : t) {
    if (item >= rank_.size()) break;  // sorted: no later item has a rank
    ++looked_up;
    if (rank_[item] != kNoRank) ranks.push_back(rank_[item]);
  }
  const size_t m = ranks.size();
  engine::work::add(looked_up + m * (m - 1) / 2);
  for (size_t a = 0; a + 1 < m; ++a) {
    const i64 row = row_[ranks[a]];
    for (size_t b = a + 1; b < m; ++b) ++cells[row + ranks[b]];
  }
}

u32 HashTree::default_branching(u64 num_candidates, u32 k) {
  if (num_candidates == 0 || k == 0) return 8;
  const double per_level =
      std::pow(static_cast<double>(num_candidates), 1.0 / k);
  const double fanout = std::ceil(2.0 * per_level);
  return static_cast<u32>(std::clamp(fanout, 8.0, 1024.0));
}

HashTree::HashTree(std::vector<Itemset> candidates, u32 branching,
                   u32 leaf_capacity)
    : branching_(branching), leaf_capacity_(leaf_capacity) {
  size_ = static_cast<u32>(candidates.size());
  if (branching_ == 0) {
    const u32 k =
        candidates.empty() ? 1 : static_cast<u32>(candidates.front().size());
    branching_ = default_branching(candidates.size(), k);
  }
  YAFIM_CHECK(branching_ >= 2, "branching must be >= 2");
  YAFIM_CHECK(leaf_capacity_ >= 1, "leaf capacity must be >= 1");
  if (!candidates.empty()) {
    k_ = static_cast<u32>(candidates.front().size());
    YAFIM_CHECK(k_ >= 1, "candidates must be non-empty itemsets");
    for (const Itemset& c : candidates) {
      YAFIM_CHECK(c.size() == k_, "all candidates must have equal size");
      YAFIM_DCHECK(is_canonical(c), "candidates must be canonical");
    }
  }

  item_arena_.reserve(size_t{size_} * k_);
  for (const Itemset& c : candidates) {
    item_arena_.insert(item_arena_.end(), c.begin(), c.end());
  }

  // Phase 1: grow the tree through vector-backed build nodes (the classic
  // insert-and-split loop). Candidate items are read from the arena so the
  // input vector is no longer needed past this point.
  std::vector<BuildNode> build;
  build.emplace_back();  // root starts as an empty leaf

  const auto insert = [&](u32 candidate_id) {
    const Item* items = candidate_items(candidate_id);
    u32 node_idx = kRoot;
    u32 depth = 0;
    // Descend through interior nodes along the candidate's own items.
    while (!build[node_idx].leaf) {
      const u32 slot = child_slot(items[depth]);
      u32 child = build[node_idx].children[slot];
      if (child == kNone) {
        child = static_cast<u32>(build.size());
        build.emplace_back();  // new empty leaf (may invalidate references)
        build[node_idx].children[slot] = child;
      }
      node_idx = child;
      ++depth;
    }
    build[node_idx].bucket.push_back(candidate_id);
    return std::pair<u32, u32>{node_idx, depth};
  };

  // A just-split child can itself overflow when many candidates share a
  // hash path; recurse (bounded by depth < k).
  const auto split = [&](auto&& self, u32 node_idx, u32 depth) -> void {
    std::vector<u32> bucket = std::move(build[node_idx].bucket);
    build[node_idx].bucket.clear();
    build[node_idx].leaf = false;
    build[node_idx].children.assign(branching_, kNone);

    for (u32 candidate_id : bucket) {
      const u32 slot = child_slot(candidate_items(candidate_id)[depth]);
      u32 child = build[node_idx].children[slot];
      if (child == kNone) {
        child = static_cast<u32>(build.size());
        build.emplace_back();
        build[node_idx].children[slot] = child;
      }
      build[child].bucket.push_back(candidate_id);
      if (build[child].bucket.size() > leaf_capacity_ && depth + 1 < k_) {
        self(self, child, depth + 1);
      }
    }
  };

  for (u32 i = 0; i < size_; ++i) {
    const auto [node_idx, depth] = insert(i);
    if (build[node_idx].bucket.size() > leaf_capacity_ && depth < k_) {
      split(split, node_idx, depth);
    }
  }

  // Phase 2: flatten. Node indices are preserved, so probe traversal order
  // (and leaf_id assignment, which follows node order) matches the build
  // tree exactly.
  nodes_.resize(build.size());
  bucket_arena_.reserve(size_);
  num_leaves_ = 0;
  for (size_t i = 0; i < build.size(); ++i) {
    const BuildNode& src = build[i];
    Node& dst = nodes_[i];
    if (src.leaf) {
      dst.first = static_cast<u32>(bucket_arena_.size());
      dst.count = static_cast<u32>(src.bucket.size());
      dst.leaf_id = num_leaves_++;
      bucket_arena_.insert(bucket_arena_.end(), src.bucket.begin(),
                           src.bucket.end());
    } else {
      dst.first = static_cast<u32>(child_arena_.size());
      dst.count = branching_;
      dst.leaf_id = kNone;
      child_arena_.insert(child_arena_.end(), src.children.begin(),
                          src.children.end());
    }
  }
  if (k_ == 2) pair_index_ = PairIndex::of(item_arena_.data(), size_);
}

std::vector<Itemset> HashTree::candidates() const {
  std::vector<Itemset> out;
  out.reserve(size_);
  for (u32 i = 0; i < size_; ++i) out.push_back(candidate(i));
  return out;
}

std::vector<TreeShard> shard_hash_tree(const HashTree& tree, u32 nshards,
                                       u32 branching, u32 leaf_capacity) {
  YAFIM_CHECK(nshards >= 1, "shard count must be >= 1");
  std::vector<std::vector<Itemset>> parts(nshards);
  std::vector<std::vector<u64>> ids(nshards);
  for (u32 ci = 0; ci < tree.size(); ++ci) {
    engine::work::add(1);
    const u32 s =
        nshards == 1 ? 0 : candidate_shard(tree.candidate_items(ci)[0], nshards);
    parts[s].push_back(tree.candidate(ci));
    ids[s].push_back(tree.id_offset() + ci);
  }
  std::vector<TreeShard> out;
  out.reserve(nshards);
  for (u32 s = 0; s < nshards; ++s) {
    out.push_back(TreeShard{HashTree(std::move(parts[s]), branching,
                                     leaf_capacity),
                            std::move(ids[s])});
  }
  return out;
}

u64 HashTree::serialized_bytes() const {
  // Matches the historical per-vector accounting byte for byte: 16-byte
  // header, (8 + 4k) per candidate itemset, 8 per node plus 4 per bucket or
  // child slot. Every candidate id occupies exactly one bucket slot and
  // every interior node carries branching_ child slots, so the arena sizes
  // are those same sums.
  return 16 + u64{size_} * (8 + u64{k_} * sizeof(Item)) +
         nodes_.size() * 8 + bucket_arena_.size() * sizeof(u32) +
         child_arena_.size() * sizeof(u32);
}

}  // namespace yafim::fim
