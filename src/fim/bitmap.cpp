#include "fim/bitmap.h"

#include <algorithm>
#include <bit>

#include "fim/hash_tree.h"

namespace yafim::fim {

u64 and_popcount(const u64* const* rows, u32 k, u32 nwords) {
  u64 sum = 0;
  for (u32 w = 0; w < nwords; ++w) {
    u64 word = rows[0][w];
    for (u32 i = 1; i < k; ++i) word &= rows[i][w];
    sum += static_cast<u64>(std::popcount(word));
  }
  return sum;
}

VerticalBitmapIndex::VerticalBitmapIndex(
    std::span<const Transaction> transactions)
    : num_transactions_(static_cast<u32>(transactions.size())),
      words_per_row_(static_cast<u32>((transactions.size() + 63) / 64)) {
  // Pass 1: the distinct-item universe of this partition, ascending so slot
  // order (and therefore the arena layout) is deterministic. Ids below the
  // dense limit are marked in the direct-indexed table and read back in id
  // order; only the rare larger ids are sorted.
  std::vector<Item> sparse;
  for (const Transaction& t : transactions) {
    for (Item i : t) {
      if (i >= kDenseSlotLimit) {
        sparse.push_back(i);
        continue;
      }
      if (i >= dense_slots_.size()) dense_slots_.resize(size_t{i} + 1, kNoSlot);
      dense_slots_[i] = 0;  // present; its slot is assigned below
    }
  }
  for (Item i = 0; i < dense_slots_.size(); ++i) {
    if (dense_slots_[i] == kNoSlot) continue;
    dense_slots_[i] = static_cast<u32>(items_.size());
    items_.push_back(i);
  }
  std::sort(sparse.begin(), sparse.end());
  sparse.erase(std::unique(sparse.begin(), sparse.end()), sparse.end());
  for (Item item : sparse) {
    // Sparse ids all sit above the dense ones, so items_ stays ascending.
    sparse_slots_.emplace_back(item, static_cast<u32>(items_.size()));
    items_.push_back(item);
  }

  // Pass 2: set bit `tid` in each contained item's row.
  words_.assign(u64{items_.size()} * words_per_row_, 0);
  for (u32 tid = 0; tid < transactions.size(); ++tid) {
    for (Item i : transactions[tid]) {
      u64* item_row = words_.data() + u64{slot_of(i)} * words_per_row_;
      item_row[tid >> 6] |= u64{1} << (tid & 63);
    }
  }

  // Building touches every item occurrence once (same unit as parsing) plus
  // the zero-fill of the arena at the word exchange rate.
  u64 occurrences = 0;
  for (const Transaction& t : transactions) occurrences += t.size();
  engine::work::add(occurrences + words_.size() / kBitmapWordsPerWorkUnit);
  obs::count(obs::CounterId::kBitmapIndexBytes, bytes());
}

u32 VerticalBitmapIndex::slot_of(Item item) const {
  if (item < kDenseSlotLimit) {
    return item < dense_slots_.size() ? dense_slots_[item] : kNoSlot;
  }
  const auto it = std::lower_bound(
      sparse_slots_.begin(), sparse_slots_.end(), item,
      [](const std::pair<Item, u32>& e, Item i) { return e.first < i; });
  if (it == sparse_slots_.end() || it->first != item) return kNoSlot;
  return it->second;
}

u64 VerticalBitmapIndex::bytes() const {
  return words_.size() * sizeof(u64) + items_.size() * sizeof(Item) +
         dense_slots_.size() * sizeof(u32) +
         sparse_slots_.size() * sizeof(std::pair<Item, u32>);
}

u64 VerticalBitmapIndex::support(const Item* items, u32 k) const {
  // k is small (mining depth); a fixed stack array keeps this allocation-free.
  constexpr u32 kMaxK = 64;
  const u64* rows[kMaxK];
  YAFIM_CHECK(k >= 1 && k <= kMaxK, "candidate size out of range");
  for (u32 i = 0; i < k; ++i) {
    rows[i] = row(items[i]);
    if (rows[i] == nullptr) return 0;
  }
  return and_popcount(rows, k, words_per_row_);
}

void VerticalBitmapIndex::count_candidates(const HashTree& tree,
                                           u64* cells) const {
  const u32 n = tree.size();
  if (n == 0) return;
  const u32 k = tree.k();
  u64 and_words = 0;
  u64 popcounts = 0;
  for (u32 ci = 0; ci < n; ++ci) {
    const u64 sup = support(tree.candidate_items(ci), k);
    cells[ci] += sup;
    // The absent-item early-out makes the true touched-word count
    // data-dependent; charging the full k*words keeps the sim price an
    // upper bound and deterministic either way.
    and_words += u64{k} * words_per_row_;
    popcounts += words_per_row_;
  }
  engine::work::add(n + (and_words + popcounts) / kBitmapWordsPerWorkUnit);
  if (obs::enabled()) {
    obs::count(obs::CounterId::kBitmapAndWords, and_words);
    obs::count(obs::CounterId::kBitmapPopcounts, popcounts);
  }
}

std::vector<u32> VerticalBitmapIndex::tidlist(Item item) const {
  std::vector<u32> out;
  const u64* words = row(item);
  if (words == nullptr) return out;
  for (u32 w = 0; w < words_per_row_; ++w) {
    u64 word = words[w];
    while (word) {
      const u32 bit = static_cast<u32>(std::countr_zero(word));
      out.push_back(w * 64 + bit);
      word &= word - 1;
    }
  }
  return out;
}

}  // namespace yafim::fim
