// Committed negative-control fixtures for the determinism sanitizer. A
// target of their own (yafim_detsan_fixtures, examples/CMakeLists.txt),
// linked only into mine_cli and test_detsan, so the yafim libraries carry
// no impure closure.
//
// Two deliberately non-deterministic plans -- a non-commutative reduce and
// a map closure capturing mutable non-local state by reference -- that
// DetSan (engine/detsan.h) must flag as YL007. mine_cli exposes them via
// --detsan-selftest (the CI detsan lane's negative control: the process
// must exit nonzero under --detsan=error), and tests/test_detsan.cpp runs
// them directly. The impure closures below carry
// `// detsan: intentional-divergence` waivers so the static layer
// (scripts/closure_check.sh) keeps the production scan clean while still
// recognizing these as deliberate.
#pragma once

#include "util/common.h"

namespace yafim::engine {
class Context;
}

namespace yafim::detsan_fixtures {

struct SelftestResult {
  u64 tasks_replayed = 0;
  u64 divergences = 0;
};

/// Run both impure plans on `ctx` (which should have detsan enabled at
/// sample_rate 1.0 so every task replays). With fail_fast set the first
/// divergence throws DetSanError out of here; otherwise both plans run and
/// the context's counters are returned.
SelftestResult run(engine::Context& ctx);

}  // namespace yafim::detsan_fixtures
