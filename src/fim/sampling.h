// Approximate mining by sampling (Toivonen) unified with SON behind one
// two-phase driver: a local-mining job over per-sample (or per-split)
// chunks, then a single global verification job over the full data --
// exactly two full-data passes, independent of the lattice depth.
//
//   Phase 1 (local mine):  one scan of the staged dataset tags every
//     transaction with the samples that draw it (engine::MultiSampleNode,
//     seeded per-partition Bernoulli streams), a shuffle gathers each
//     sample, and an in-memory Apriori (fim/apriori_seq.h) mines it at the
//     relaxed threshold s*r. Each sample also reports its *negative
//     border* -- the minimal itemsets it did NOT find frequent -- built
//     from the same candidate generator the exact miners use.
//   Phase 2 (global verify): the union of all locally frequent itemsets
//     and borders is counted once against the full dataset through the
//     shared counting core (fim/count_core.h), so both CountModes,
//     the partitioned broadcast fallback and the plan linter apply
//     unchanged. Survivors at MinSup are reported with exact supports.
//
// Exactness (Toivonen's guarantee): if some sample has *no* negative-
// border itemset globally frequent, every globally frequent itemset was
// locally frequent in that sample, so the verified output is the complete
// exact answer and the run is flagged `exact`. Otherwise the run reports
// the border survivors plus a Chernoff-style bound on the probability
// that any frequent itemset was missed.
//
// SON as a special case: SplitStrategy::kDisjointSplits with relax = 1
// partitions the data into n disjoint splits instead of sampling -- the
// SON property (a globally frequent itemset is locally frequent in at
// least one split) then guarantees completeness without any border, so
// the run is always exact and bit-identical to fim/son.h's son_mine.
#pragma once

#include <string>
#include <vector>

#include "engine/context.h"
#include "fim/dataset.h"
#include "fim/hash_tree.h"
#include "fim/result.h"
#include "simfs/simfs.h"

namespace yafim::fim {

enum class SplitStrategy {
  /// Toivonen: n_p independent Bernoulli(p) samples at threshold s*r,
  /// negative borders verified alongside the candidates.
  kBernoulliSamples,
  /// SON: n disjoint splits covering the data, mined at the full relative
  /// threshold (relax is forced to 1). Always exact, no border needed.
  kDisjointSplits,
};

struct SamplingOptions {
  /// Relative minimum support threshold in (0, 1].
  double min_support = 0.1;
  SplitStrategy strategy = SplitStrategy::kBernoulliSamples;
  /// Bernoulli keep probability p per sample, in (0, 1]. Ignored by
  /// kDisjointSplits (every transaction lands in exactly one split).
  double sample_fraction = 0.1;
  /// Number of samples n_p (or disjoint splits), in [1, 64].
  u32 num_samples = 4;
  /// Relaxation factor r in (0, 1]: samples are mined at support s*r.
  /// Smaller r admits more local candidates and makes an exact run more
  /// likely; r = 1 is no relaxation. Forced to 1 by kDisjointSplits.
  double relax = 0.5;
  /// Seed for the per-partition Bernoulli sample streams.
  u64 seed = 42;
  /// Partitions for the staged dataset; 0 = ctx.default_partitions().
  u32 partitions = 0;
  bool cache_transactions = true;
  /// Counting-path knobs, passed through to fim/count_core.h unchanged.
  bool use_hash_tree = true;
  CountMode count_mode = CountMode::kItemsetKey;
  BroadcastMode broadcast_mode = BroadcastMode::kAuto;
  u32 broadcast_shards = 0;
  u32 branching = 0;  // 0 = auto (HashTree::default_branching)
  u32 leaf_capacity = 16;
};

struct SamplingRun {
  /// Verified output: every itemset carries its *exact* full-data support
  /// (>= MinSup), whether it surfaced as a local candidate or as a border
  /// itemset that turned out to be globally frequent. run.passes has two
  /// entries: the sample/local-mine pass and the verification pass.
  MiningRun run;
  /// Distinct itemsets locally frequent in at least one sample.
  u64 candidate_union = 0;
  /// Distinct border-only itemsets (in some sample's negative border and
  /// no sample's frequent set).
  u64 border_union = 0;
  /// Locally frequent candidates that failed global verification.
  u64 false_candidates = 0;
  /// Distinct border itemsets that ARE globally frequent. Per Toivonen,
  /// the run is exact iff some sample contributed none of these.
  u64 border_survivors = 0;
  /// True when the verified output is provably the complete exact answer:
  /// some sample had no border survivor (kBernoulliSamples), or the
  /// splits cover the data (kDisjointSplits, always).
  bool exact = false;
  /// When not exact: Hoeffding bound on the probability that a fixed
  /// itemset with true support >= s was locally infrequent (below s*r) in
  /// every sample, prod_i exp(-2 * m_i * (s*(1-r))^2). 0 when exact.
  double miss_bound = 0.0;
  /// Transactions drawn by each sample (index = sample id).
  std::vector<u64> sample_sizes;
};

/// Negative border Bd^-(F) over `universe` (the distinct items of the
/// FULL dataset, sorted): the minimal itemsets not in F, i.e. every
/// itemset all of whose proper subsets are frequent but which is not
/// itself in F. Level 1 is the non-frequent universe items; level k > 1
/// is apriori_gen(F_{k-1}) minus F_k. `frequent` must be downward-closed
/// (any apriori_mine result is). Exposed for tests.
std::vector<Itemset> negative_border(const FrequentItemsets& frequent,
                                     const std::vector<Item>& universe);

/// Mine `input_path` (a staged TransactionDB) approximately -- or exactly,
/// when the exactness certificate holds -- in two full-data passes.
SamplingRun sampling_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const std::string& input_path,
                          const SamplingOptions& options);

/// Convenience overload staging `db` onto `fs` first.
SamplingRun sampling_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const TransactionDB& db,
                          const SamplingOptions& options);

}  // namespace yafim::fim
