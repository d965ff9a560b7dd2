#include "detsan_fixtures.h"

#include <atomic>
#include <vector>

#include "engine/rdd.h"

namespace yafim::detsan_fixtures {

SelftestResult run(engine::Context& ctx) {
  // Fixture 1: a deliberately non-commutative reduce. Subtraction's result
  // depends on the fold order, so the permuted replay fold must land on a
  // different accumulator and raise YL007 on the named node.
  {
    std::vector<i64> values;
    values.reserve(64);
    for (i64 i = 1; i <= 64; ++i) values.push_back(i * 3 + 1);
    auto rdd = ctx.parallelize(std::move(values), 4);
    rdd.named("noncommutative-fold");
    // detsan: intentional-divergence -- committed YL007 runtime fixture.
    (void)rdd.reduce([](i64 a, i64 b) { return a - b; },
                     "detsan-selftest:reduce");
  }

  // Fixture 2: a map closure capturing mutable non-local state by
  // reference. The replay re-runs the same closure instance, so the
  // counter keeps advancing past where the primary pass left it and the
  // outputs differ even under multiset comparison. (Atomic so concurrent
  // tasks stay well-defined; the impurity, not a data race, is the bug
  // under test.)
  {
    std::vector<i64> values(64);
    for (i64 i = 0; i < 64; ++i) values[static_cast<size_t>(i)] = i;
    auto rdd = ctx.parallelize(std::move(values), 4);
    std::atomic<i64> counter{0};
    // detsan: intentional-divergence -- committed YL007 runtime fixture.
    auto shifted = rdd.map([&counter](const i64& x) {
      return x * 8 + (counter.fetch_add(1, std::memory_order_relaxed) & 7);
    });
    shifted.named("stateful-map");
    (void)shifted.collect("detsan-selftest:collect");
  }

  SelftestResult out;
  out.tasks_replayed = ctx.detsan().tasks_replayed();
  out.divergences = ctx.detsan().divergences();
  return out;
}

}  // namespace yafim::detsan_fixtures
