// Negative-control fixtures for the YL008 closure-purity scan
// (scripts/closure_check.sh --fixtures). NOT compiled into any target --
// this file exists only to be scanned, so the detector's three impurity
// classes (ref-capture, rng, fp-reduce) each stay detectable as the
// matchers evolve. The runtime siblings live in
// examples/detsan_fixtures.cpp (rule YL007).
#include <cstdlib>
#include <ctime>
#include <random>
#include <utility>
#include <vector>

#include "engine/context.h"
#include "engine/rdd.h"

namespace yafim::fixtures {

void impure_closures(engine::Context& ctx) {
  std::vector<int> values(64, 1);
  auto rdd = ctx.parallelize(std::move(values), 4);

  // ref-capture: mutable non-local state captured by reference; a task
  // retry or DetSan replay re-runs the closure against advanced state.
  int counter = 0;
  auto stateful = rdd.map([&counter](const int& x) { return x + counter++; });

  // ref-capture (default capture form).
  int total = 0;
  auto defaulted = rdd.filter([&](const int& x) { return (total += x) > 10; });

  // rng: ambient randomness -- every execution sees different values.
  auto random_tag = rdd.map(
      [](const int& x) { return x + std::rand() % 7; });

  // rng: wall clock read inside a closure.
  auto stamped = rdd.map(
      [](const int& x) { return x + static_cast<int>(time(nullptr)); });

  // rng: hardware entropy source constructed per element.
  auto entropic = rdd.map([](const int& x) {
    std::random_device rd;
    return x + static_cast<int>(rd() & 3);
  });

  // fp-reduce: floating-point accumulation without a tolerance waiver;
  // FP addition is not associative, so the fold order leaks into the sum.
  auto doubled = rdd.map([](const int& x) { return x * 0.5; });
  (void)doubled.reduce([](double a, double b) { return a + b; });

  // The same shape WITH the waiver must not be flagged: the comment
  // acknowledges order-dependent rounding as tolerated.
  // detsan: tolerate-fp
  (void)doubled.reduce([](double a, double b) { return a + b; });

  (void)stateful;
  (void)defaulted;
  (void)random_tag;
  (void)stamped;
  (void)entropic;
}

}  // namespace yafim::fixtures
