// mine_cli: command-line frequent-itemset miner over FIMI-format files.
//
// Reads a transaction database in the classic text format (one transaction
// per line, space-separated integer item ids -- the format of the FIMI
// repository datasets the paper uses), mines it with a selectable engine,
// and prints the frequent itemsets and/or association rules.
//
//   $ ./examples/mine_cli --input=data.txt --minsup=0.35 --engine=yafim
//   $ ./examples/mine_cli --generate=mushroom --minsup=0.35 --rules=0.8
//   $ ./examples/mine_cli --trace out.json   # wall-clock Chrome trace
//
// Engines: yafim (default), mrapriori, apriori, fpgrowth, eclat.
// Without --input, --generate picks a built-in benchmark dataset
// (mushroom | t10 | chess | pumsb | medical).
// --trace FILE records wall-clock spans (stages, tasks, YAFIM passes) and
// counters, writes them as Chrome trace-event JSON (open in chrome://tracing
// or https://ui.perfetto.dev), and prints the per-stage summary table.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "datagen/benchmarks.h"
#include "detsan_fixtures.h"
#include "engine/context.h"
#include "engine/detsan.h"
#include "engine/lint.h"
#include "fim/apriori_seq.h"
#include "fim/checkpoint.h"
#include "fim/eclat.h"
#include "fim/fp_growth.h"
#include "fim/mr_apriori.h"
#include "fim/rules.h"
#include "fim/sampling.h"
#include "fim/yafim.h"
#include "obs/trace.h"
#include "stream/miner.h"
#include "util/log.h"
#include "util/stopwatch.h"

using namespace yafim;

namespace {

struct Options {
  std::string input;
  std::string generate;
  std::string engine = "yafim";
  double minsup = 0.1;
  double rules_confidence = 0.0;  // 0 = no rules
  u64 top = 20;
  bool quiet = false;
  /// Parse --input leniently: skip + count malformed lines instead of
  /// letting them degrade silently.
  bool lenient = false;
  /// Print the per-stage simulated-cost breakdown (parallel engines only).
  bool stages = false;
  /// Write a Chrome trace-event JSON of the run's wall-clock spans here.
  std::string trace_out;
  /// Persist a per-pass snapshot here and resume from the newest valid one
  /// (yafim / mrapriori only).
  std::string checkpoint_dir;
  /// Abandon the run after snapshotting this pass (crash simulation).
  u32 stop_after_pass = 0;
  /// Sleep this long after each snapshot -- widens the between-pass window
  /// so an external kill (the CI crash-recovery smoke test's SIGKILL)
  /// lands mid-run deterministically.
  u64 pass_sleep_ms = 0;
  /// Lint the lineage plan before each action/shuffle (yafim / mrapriori)
  /// and print the diagnostics.
  bool lint = false;
  /// With --lint=error, any warn-or-worse diagnostic makes the process
  /// exit 3 (notes -- e.g. an engaged broadcast fallback -- do not).
  bool lint_error = false;
  /// Determinism sanitizer (engine/detsan.h): re-execute a deterministic
  /// sample of tasks with permuted input order, compare canonical output
  /// hashes, and surface divergences as YL007 diagnostics plus
  /// detsan.tasks_replayed / detsan.divergences counters.
  bool detsan = false;
  /// With --detsan=error, the first divergence aborts the run (exit 4).
  bool detsan_error = false;
  /// Run the committed impure-plan fixtures (examples/detsan_fixtures.h)
  /// instead of mining, at sample rate 1.0. The sanitizer must flag both;
  /// the CI detsan lane uses this as its negative control.
  bool detsan_selftest = false;
  /// Run YAFIM without caching the transactions RDD (the paper's "what if
  /// we didn't cache" ablation; trips lint rule YL001 by design).
  bool no_cache = false;
  /// How candidate trees reach the workers when memory is tight
  /// (fim/hash_tree.h): auto degrades to the partitioned candidate store
  /// past the executor-memory budget, full always broadcasts (over budget
  /// keeps YL002's error), partitioned always shards.
  std::string broadcast_mode = "auto";
  /// Executor memory per node in GiB (0 = keep the cluster default).
  /// Fractional values are accepted: --memory-gb=0.001 is ~1 MiB.
  double memory_gb = 0.0;
  /// Per-node shuffle-buffer budget in MiB (0 = unbounded, never spill).
  u64 shuffle_buffer_mb = 0;
  /// Compress spilled shuffle blocks (the yz codec in util/bytes).
  bool spill_compress = true;
  /// Streaming micro-batch mode (stream/miner.h): replay the dataset as a
  /// windowed ingest feed and maintain the frequent itemsets incrementally.
  bool stream = false;
  u64 stream_batches = 20;
  double stream_window_s = 5.0;
  double stream_rate = 2000.0;
  u64 stream_seed = 42;
  /// Approximate mining (fim/sampling.h): mine Bernoulli samples at a
  /// relaxed threshold, verify candidates + negative borders in one full
  /// pass, and report Toivonen's exactness certificate.
  bool approx = false;
  double sample_fraction = 0.1;
  u64 approx_samples = 4;
  double relax = 0.5;
};

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [--input=FILE | --generate=NAME] [--minsup=F]\n"
      "          [--engine=yafim|mrapriori|apriori|fpgrowth|eclat]\n"
      "          [--rules=MIN_CONF] [--top=N] [--quiet] [--stages]\n"
      "          [--lenient] [--trace FILE] [--checkpoint-dir=DIR]\n"
      "          [--stop-after-pass=K] [--pass-sleep-ms=N]\n"
      "          [--lint[=error]] [--no-cache]\n"
      "          [--detsan[=error]] [--detsan-selftest]\n"
      "          [--broadcast-mode=auto|full|partitioned] [--memory-gb=F]\n"
      "          [--shuffle-buffer-mb=N] [--spill-compress=0|1]\n"
      "          [--stream] [--stream-batches=N] [--stream-window-s=F]\n"
      "          [--stream-rate=F] [--stream-seed=N]\n"
      "          [--approx] [--sample-fraction=F] [--samples=N] [--relax=F]\n"
      "generate names: mushroom t10 chess pumsb medical\n"
      "--lenient: skip + count malformed --input lines instead of\n"
      "  silently taking each line's numeric prefix\n"
      "--trace FILE: write wall-clock spans + counters as Chrome\n"
      "  trace-event JSON (chrome://tracing, Perfetto) and print the\n"
      "  per-stage summary table\n"
      "--checkpoint-dir=DIR: snapshot (Lk, pass stats) after every pass\n"
      "  and resume from the newest valid snapshot on rerun (yafim and\n"
      "  mrapriori). --stop-after-pass=K simulates a crash after pass K;\n"
      "  --pass-sleep-ms=N widens the between-pass window for kill tests\n"
      "--lint: check the lineage plan (rules YL001..YL005: uncached reuse,\n"
      "  oversized broadcast, dead cache, pushable filter, deep lineage)\n"
      "  before every action/shuffle and print the diagnostics;\n"
      "  --lint=error exits 3 on any warn-or-worse diagnostic\n"
      "  (yafim|mrapriori; notes such as an engaged fallback pass)\n"
      "--no-cache: skip caching the transactions RDD (yafim only; the\n"
      "  lineage re-reads HDFS every pass, and --lint reports YL001)\n"
      "--detsan: determinism sanitizer (yafim|mrapriori; composes with\n"
      "  --stream/--approx): re-execute a deterministic sample of tasks\n"
      "  with permuted input order, compare canonical output hashes, and\n"
      "  report divergences as YL007 (rule YL008 is the static layer,\n"
      "  scripts/closure_check.sh). --detsan=error exits 4 on the first\n"
      "  divergence; --detsan-selftest runs the committed impure fixtures\n"
      "  instead of mining (they MUST diverge)\n"
      "--broadcast-mode: how candidate trees reach workers when memory is\n"
      "  tight (yafim|mrapriori). auto falls back to the partitioned\n"
      "  candidate store past the executor budget; full always broadcasts\n"
      "  (over budget keeps YL002's error); partitioned always shards\n"
      "--memory-gb=F: executor memory per node in GiB (0 = cluster\n"
      "  default); --shuffle-buffer-mb=N: per-node shuffle-buffer budget\n"
      "  (0 = unbounded); --spill-compress=0|1: compress spilled shuffle\n"
      "  blocks (default 1)\n"
      "--stream: mine the dataset as a micro-batch stream (yafim only):\n"
      "  replay it as a windowed ingest feed (--stream-window-s seconds per\n"
      "  window at --stream-rate tx/s, arrival jitter from --stream-seed)\n"
      "  for --stream-batches batches, maintaining L1/Lk incrementally with\n"
      "  batch-boundary snapshots (--checkpoint-dir) and backpressure.\n"
      "  A YAFIM_FAULT_STREAM_* kill exits 9; rerun to resume\n"
      "--approx: approximate mining by Toivonen sampling (yafim only):\n"
      "  mine --samples=N (default 4) Bernoulli samples of fraction\n"
      "  --sample-fraction=F (default 0.1) at the relaxed threshold\n"
      "  minsup * --relax=R (default 0.5), then verify the candidate\n"
      "  union plus every sample's negative border in ONE full counting\n"
      "  pass -- two full-data passes total, any lattice depth. Prints a\n"
      "  '# approx:' line with the certificate: exact=true means the\n"
      "  output is provably the complete exact answer; otherwise\n"
      "  border_survivors and miss_bound quantify what may be missing\n"
      "exit codes: 0 success; 2 bad flags; 3 --lint=error diagnostic;\n"
      "  4 --detsan=error divergence; 9 stream killed at an injected kill\n"
      "  point\n",
      argv0);
}

/// All flag errors funnel through here: say what was wrong, show the
/// usage, exit 2. (An earlier version exited without the usage text on
/// some paths, e.g. an unknown --generate name.)
[[noreturn]] void usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
  print_usage(stderr, argv0);
  std::exit(2);
}

/// lo < x <= hi, false for NaN -- so a NaN flag value fails every range
/// check below instead of slipping past a pair of negated comparisons.
bool in_range(double x, double lo, double hi) { return lo < x && x <= hi; }

/// Upper bound of the open-ended flags: rejects inf along with NaN.
constexpr double kMaxFlag = std::numeric_limits<double>::max();

/// The value of an unsigned flag: a whole decimal in [0, max] -- digits
/// only, so "abc", "5x" and "-1" (which strtoull reads as 0, 5 and
/// 2^64-1) are flag errors, as is anything above `max`.
u64 unsigned_flag(const char* argv0, const std::string& flag,
                  const char* text,
                  u64 max = std::numeric_limits<u64>::max()) {
  const char* end = text + std::strlen(text);
  u64 v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || v > max) {
    usage(argv0, flag + " takes a whole number in [0, " +
                     std::to_string(max) + "]");
  }
  return v;
}

/// The value of a real-valued flag: the whole text must parse as a
/// decimal or scientific number, so trailing junk ("0.35x", "1e") is a flag
/// error rather than silently dropped. Ranges are checked by the caller.
double double_flag(const char* argv0, const std::string& flag,
                   const char* text) {
  const char* end = text + std::strlen(text);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end) {
    usage(argv0, flag + " takes a number");
  }
  return v;
}

bool known_engine(const std::string& engine) {
  return engine == "yafim" || engine == "mrapriori" || engine == "apriori" ||
         engine == "fpgrowth" || engine == "eclat";
}

bool known_generate(const std::string& name) {
  return name == "mushroom" || name == "t10" || name == "chess" ||
         name == "pumsb" || name == "medical";
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else if (arg.rfind("--input=", 0) == 0) {
      opt.input = value("--input=");
    } else if (arg.rfind("--generate=", 0) == 0) {
      opt.generate = value("--generate=");
    } else if (arg.rfind("--engine=", 0) == 0) {
      opt.engine = value("--engine=");
    } else if (arg.rfind("--minsup=", 0) == 0) {
      opt.minsup = double_flag(argv[0], "--minsup", value("--minsup="));
    } else if (arg.rfind("--rules=", 0) == 0) {
      opt.rules_confidence = double_flag(argv[0], "--rules", value("--rules="));
      if (!in_range(opt.rules_confidence, 0.0, 1.0)) {
        usage(argv[0], "--rules must be in (0, 1]");
      }
    } else if (arg.rfind("--top=", 0) == 0) {
      opt.top = unsigned_flag(argv[0], "--top", value("--top="));
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--lenient") {
      opt.lenient = true;
    } else if (arg == "--stages") {
      opt.stages = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_out = value("--trace=");
    } else if (arg == "--trace" && i + 1 < argc) {
      opt.trace_out = argv[++i];
    } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      opt.checkpoint_dir = value("--checkpoint-dir=");
    } else if (arg.rfind("--stop-after-pass=", 0) == 0) {
      opt.stop_after_pass = static_cast<u32>(
          unsigned_flag(argv[0], "--stop-after-pass",
                        value("--stop-after-pass="),
                        std::numeric_limits<u32>::max()));
    } else if (arg.rfind("--pass-sleep-ms=", 0) == 0) {
      // At most what std::chrono::milliseconds can hold.
      opt.pass_sleep_ms = unsigned_flag(
          argv[0], "--pass-sleep-ms", value("--pass-sleep-ms="),
          static_cast<u64>(std::chrono::milliseconds::max().count()));
    } else if (arg == "--lint") {
      opt.lint = true;
    } else if (arg == "--lint=error") {
      opt.lint = true;
      opt.lint_error = true;
    } else if (arg.rfind("--lint=", 0) == 0) {
      usage(argv[0], "--lint takes no value other than 'error'");
    } else if (arg == "--detsan") {
      opt.detsan = true;
    } else if (arg == "--detsan=error") {
      opt.detsan = true;
      opt.detsan_error = true;
    } else if (arg.rfind("--detsan=", 0) == 0) {
      usage(argv[0], "--detsan takes no value other than 'error'");
    } else if (arg == "--detsan-selftest") {
      opt.detsan_selftest = true;
      opt.detsan = true;
    } else if (arg == "--no-cache") {
      opt.no_cache = true;
    } else if (arg.rfind("--broadcast-mode=", 0) == 0) {
      opt.broadcast_mode = value("--broadcast-mode=");
    } else if (arg.rfind("--memory-gb=", 0) == 0) {
      opt.memory_gb =
          double_flag(argv[0], "--memory-gb", value("--memory-gb="));
    } else if (arg.rfind("--shuffle-buffer-mb=", 0) == 0) {
      // At most what `<< 20` can turn into bytes without overflowing.
      opt.shuffle_buffer_mb =
          unsigned_flag(argv[0], "--shuffle-buffer-mb",
                        value("--shuffle-buffer-mb="),
                        std::numeric_limits<u64>::max() >> 20);
    } else if (arg == "--stream") {
      opt.stream = true;
    } else if (arg.rfind("--stream-batches=", 0) == 0) {
      opt.stream_batches = unsigned_flag(argv[0], "--stream-batches",
                                         value("--stream-batches="));
    } else if (arg.rfind("--stream-window-s=", 0) == 0) {
      opt.stream_window_s = double_flag(argv[0], "--stream-window-s",
                                        value("--stream-window-s="));
    } else if (arg.rfind("--stream-rate=", 0) == 0) {
      opt.stream_rate =
          double_flag(argv[0], "--stream-rate", value("--stream-rate="));
    } else if (arg.rfind("--stream-seed=", 0) == 0) {
      opt.stream_seed =
          unsigned_flag(argv[0], "--stream-seed", value("--stream-seed="));
    } else if (arg == "--approx") {
      opt.approx = true;
    } else if (arg.rfind("--sample-fraction=", 0) == 0) {
      opt.sample_fraction = double_flag(argv[0], "--sample-fraction",
                                        value("--sample-fraction="));
    } else if (arg.rfind("--samples=", 0) == 0) {
      opt.approx_samples =
          unsigned_flag(argv[0], "--samples", value("--samples="));
    } else if (arg.rfind("--relax=", 0) == 0) {
      opt.relax = double_flag(argv[0], "--relax", value("--relax="));
    } else if (arg.rfind("--spill-compress=", 0) == 0) {
      const std::string v = value("--spill-compress=");
      if (v != "0" && v != "1") {
        usage(argv[0], "--spill-compress takes 0 or 1");
      }
      opt.spill_compress = v == "1";
    } else {
      usage(argv[0], "unknown flag: " + arg);
    }
  }
  // Validate everything here so every bad invocation gets the same
  // usage-and-exit-2 treatment, before any work happens.
  if (!in_range(opt.minsup, 0.0, 1.0)) {
    usage(argv[0], "--minsup must be in (0, 1]");
  }
  if (!known_engine(opt.engine)) {
    usage(argv[0], "unknown --engine: " + opt.engine);
  }
  if (opt.input.empty() && opt.generate.empty()) opt.generate = "mushroom";
  if (!opt.generate.empty() && !known_generate(opt.generate)) {
    usage(argv[0], "unknown --generate name: " + opt.generate);
  }
  if (!opt.checkpoint_dir.empty() && opt.engine != "yafim" &&
      opt.engine != "mrapriori") {
    usage(argv[0], "--checkpoint-dir requires --engine=yafim|mrapriori");
  }
  if ((opt.stop_after_pass || opt.pass_sleep_ms) &&
      opt.checkpoint_dir.empty()) {
    usage(argv[0],
          "--stop-after-pass/--pass-sleep-ms require --checkpoint-dir");
  }
  if (opt.lint && opt.engine != "yafim" && opt.engine != "mrapriori") {
    usage(argv[0], "--lint requires --engine=yafim|mrapriori");
  }
  if (opt.detsan && opt.engine != "yafim" && opt.engine != "mrapriori") {
    usage(argv[0], "--detsan requires --engine=yafim|mrapriori");
  }
  if (opt.detsan_selftest && (opt.stream || opt.approx)) {
    usage(argv[0], "--detsan-selftest runs fixture plans, not a miner; "
                   "drop --stream/--approx");
  }
  if (opt.no_cache && opt.engine != "yafim") {
    usage(argv[0], "--no-cache requires --engine=yafim");
  }
  if (opt.broadcast_mode != "auto" && opt.broadcast_mode != "full" &&
      opt.broadcast_mode != "partitioned") {
    usage(argv[0], "--broadcast-mode must be auto, full or partitioned");
  }
  if (!(0.0 <= opt.memory_gb && opt.memory_gb <= kMaxFlag)) {
    usage(argv[0], "--memory-gb must be >= 0");
  }
  if ((opt.broadcast_mode != "auto" || opt.memory_gb > 0.0 ||
       opt.shuffle_buffer_mb > 0) &&
      opt.engine != "yafim" && opt.engine != "mrapriori") {
    usage(argv[0],
          "--broadcast-mode/--memory-gb/--shuffle-buffer-mb require "
          "--engine=yafim|mrapriori");
  }
  if (opt.stream && opt.engine != "yafim") {
    usage(argv[0], "--stream requires --engine=yafim");
  }
  if (opt.stream && opt.stop_after_pass) {
    usage(argv[0], "--stop-after-pass is a batch-miner flag; streaming "
                   "kills are injected via YAFIM_FAULT_STREAM_*");
  }
  if (!opt.stream && (opt.stream_batches != 20 ||
                      opt.stream_window_s != 5.0 ||
                      opt.stream_rate != 2000.0 || opt.stream_seed != 42)) {
    usage(argv[0], "--stream-* flags require --stream");
  }
  if (opt.stream && (opt.stream_batches == 0 ||
                     !in_range(opt.stream_window_s, 0.0, kMaxFlag) ||
                     !in_range(opt.stream_rate, 0.0, kMaxFlag))) {
    usage(argv[0], "--stream-batches/--stream-window-s/--stream-rate "
                   "must be positive");
  }
  if (opt.approx && opt.engine != "yafim") {
    usage(argv[0], "--approx requires --engine=yafim");
  }
  if (opt.approx && opt.stream) {
    usage(argv[0], "--approx and --stream are mutually exclusive");
  }
  if (opt.approx && !opt.checkpoint_dir.empty()) {
    usage(argv[0], "--checkpoint-dir is not supported with --approx "
                   "(the run has no per-pass snapshots)");
  }
  if (!opt.approx && (opt.sample_fraction != 0.1 || opt.approx_samples != 4 ||
                      opt.relax != 0.5)) {
    usage(argv[0], "--sample-fraction/--samples/--relax require --approx");
  }
  if (opt.approx && !in_range(opt.sample_fraction, 0.0, 1.0)) {
    usage(argv[0], "--sample-fraction must be in (0, 1]");
  }
  if (opt.approx && !in_range(opt.relax, 0.0, 1.0)) {
    usage(argv[0], "--relax must be in (0, 1]");
  }
  if (opt.approx && (opt.approx_samples == 0 || opt.approx_samples > 64)) {
    usage(argv[0], "--samples must be in [1, 64]");
  }
  return opt;
}

fim::TransactionDB load(const Options& opt, double* minsup) {
  if (!opt.input.empty()) {
    std::ifstream file(opt.input);
    YAFIM_CHECK(file.good(), "cannot open --input file");
    std::ostringstream text;
    text << file.rdbuf();
    auto db = fim::TransactionDB::from_text(
        text.str(), opt.lenient ? fim::TransactionDB::ParseMode::kLenient
                                : fim::TransactionDB::ParseMode::kStrict);
    const fim::ParseStats& p = db.parse_stats();
    if (p.malformed() > 0 && !opt.quiet) {
      std::fprintf(stderr,
                   "# skipped %llu malformed lines of %llu "
                   "(bad tokens %llu, non-canonical %llu, overlong %llu)\n",
                   (unsigned long long)p.malformed(),
                   (unsigned long long)p.lines_total,
                   (unsigned long long)p.bad_token_lines,
                   (unsigned long long)p.noncanonical_lines,
                   (unsigned long long)p.overlong_lines);
    }
    return db;
  }
  datagen::BenchmarkDataset bench;
  if (opt.generate == "mushroom") {
    bench = datagen::make_mushroom();
  } else if (opt.generate == "t10") {
    bench = datagen::make_t10i4d100k();
  } else if (opt.generate == "chess") {
    bench = datagen::make_chess();
  } else if (opt.generate == "pumsb") {
    bench = datagen::make_pumsb_star();
  } else {  // "medical" -- parse() already rejected unknown names
    bench = datagen::make_medical();
  }
  // Use the paper's threshold unless the user set one explicitly.
  if (*minsup == 0.1) *minsup = bench.paper_min_support;
  return std::move(bench.db);
}

/// DirCheckpointStore wrapper that dawdles after each snapshot. The CI
/// crash-recovery smoke test SIGKILLs the process somewhere inside one of
/// these sleeps, guaranteeing the kill lands between passes k and k+1
/// rather than before the first snapshot or after the run finished.
class SleepyCheckpointStore final : public fim::CheckpointStore {
 public:
  SleepyCheckpointStore(fim::CheckpointStore& inner, u64 sleep_ms)
      : inner_(inner), sleep_ms_(sleep_ms) {}

  void put(const std::string& name, const std::vector<u8>& bytes) override {
    inner_.put(name, bytes);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
  }
  std::optional<std::vector<u8>> get(const std::string& name) override {
    return inner_.get(name);
  }
  std::vector<std::string> list() override { return inner_.list(); }
  void remove(const std::string& name) override { inner_.remove(name); }

 private:
  fim::CheckpointStore& inner_;
  u64 sleep_ms_;
};

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  Options opt = parse(argc, argv);
  const fim::TransactionDB db = load(opt, &opt.minsup);
  const auto stats = db.stats();
  if (!opt.quiet) {
    std::printf("# %llu transactions, %u items, avg length %.1f; "
                "minsup %.4g (count %llu); engine %s\n",
                (unsigned long long)stats.num_transactions, stats.num_items,
                stats.avg_length, opt.minsup,
                (unsigned long long)db.min_support_count(opt.minsup),
                opt.engine.c_str());
  }

  const bool tracing = !opt.trace_out.empty();
  if (tracing) {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().start();
    obs::Tracer::instance().set_thread_name("driver");
  }

  Stopwatch wall;
  fim::MiningRun run;
  double sim_seconds = -1.0;
  std::vector<engine::LintDiagnostic> lint_diags;
  if (opt.engine == "yafim" || opt.engine == "mrapriori") {
    engine::ContextOptions ctx_opt;
    ctx_opt.lint.enabled = opt.lint;
    ctx_opt.detsan.enabled = opt.detsan;
    ctx_opt.detsan.fail_fast = opt.detsan_error;
    // The selftest must replay every task so both fixtures are observed.
    if (opt.detsan_selftest) ctx_opt.detsan.sample_rate = 1.0;
    if (opt.memory_gb > 0.0) {
      ctx_opt.cluster.executor_memory_bytes =
          static_cast<u64>(opt.memory_gb * (1ull << 30));
    }
    ctx_opt.cluster.shuffle_buffer_bytes = opt.shuffle_buffer_mb << 20;
    engine::Context ctx(ctx_opt);
    ctx.set_spill_compress(opt.spill_compress);
    // Printed even under --quiet: the CI detsan lane greps
    // tasks_replayed=/divergences= and the YL007 rule id out of this block.
    auto print_detsan = [&ctx]() {
      for (const auto& diag : ctx.linter().diagnostics()) {
        if (diag.rule == "YL007") {
          std::printf("# detsan: %s\n",
                      engine::PlanLinter::format(diag).c_str());
        }
      }
      const engine::DetSan& ds = ctx.detsan();
      std::printf("# detsan: tasks_replayed=%llu divergences=%llu\n",
                  (unsigned long long)ds.tasks_replayed(),
                  (unsigned long long)ds.divergences());
    };
    if (opt.detsan_selftest) {
      // Negative control: both committed fixtures are impure, so the
      // sanitizer must observe divergences. Exit 4 under --detsan=error
      // (the first divergence throws), 0 when observing them, 1 if the
      // fixtures somehow ran clean (the sanitizer itself is broken).
      detsan_fixtures::SelftestResult self;
      try {
        self = detsan_fixtures::run(ctx);
      } catch (const engine::DetSanError& e) {
        std::printf("# detsan: %s\n", e.what());
        print_detsan();
        return 4;
      }
      print_detsan();
      if (self.divergences == 0) {
        std::fprintf(stderr,
                     "detsan selftest failed: impure fixtures ran clean\n");
        return 1;
      }
      return 0;
    }
    simfs::SimFS fs(ctx.cluster());
    const fim::BroadcastMode bmode =
        opt.broadcast_mode == "full"          ? fim::BroadcastMode::kFull
        : opt.broadcast_mode == "partitioned" ? fim::BroadcastMode::kPartitioned
                                              : fim::BroadcastMode::kAuto;

    std::unique_ptr<fim::DirCheckpointStore> dir_store;
    std::unique_ptr<SleepyCheckpointStore> sleepy_store;
    fim::CheckpointStore* store = nullptr;
    if (!opt.checkpoint_dir.empty()) {
      dir_store = std::make_unique<fim::DirCheckpointStore>(opt.checkpoint_dir);
      store = dir_store.get();
      if (opt.pass_sleep_ms > 0) {
        sleepy_store = std::make_unique<SleepyCheckpointStore>(
            *dir_store, opt.pass_sleep_ms);
        store = sleepy_store.get();
      }
    }

    try {
      if (opt.stream) {
        stream::StreamOptions mine_opt;
        mine_opt.min_support = opt.minsup;
        mine_opt.num_batches = opt.stream_batches;
        mine_opt.source.window_s = opt.stream_window_s;
        mine_opt.source.ingest_rate = opt.stream_rate;
        mine_opt.source.seed = opt.stream_seed;
        mine_opt.broadcast_mode = bmode;
        mine_opt.checkpoint = store;
        stream::StreamResult sres;
        try {
          sres = stream::stream_mine(ctx, fs, db, mine_opt);
        } catch (const stream::StreamKilledError& killed) {
          std::printf("# stream: killed at batch %llu phase %s\n",
                      (unsigned long long)killed.batch(),
                      stream::stream_phase_name(killed.phase()));
          return 9;
        }
        // Printed even under --quiet: CI diffs this line between the
        // kill-resume run and the uninterrupted one, and perf_gate.py
        // checks the steady-state latency against the ingest interval.
        std::printf(
            "# stream: batches=%zu transactions=%llu minsup_count=%llu "
            "steady_batch_s=%.3f interval_s=%.2f window_factor=%u "
            "slack=%.2f widenings=%llu slack_raises=%llu reverified=%llu "
            "deferred_drained=%llu\n",
            sres.batches.size(), (unsigned long long)sres.total_transactions,
            (unsigned long long)sres.min_support_count,
            sres.steady_batch_seconds(), sres.ingest_interval_s,
            sres.window_factor, sres.reverify_slack,
            (unsigned long long)sres.widenings,
            (unsigned long long)sres.slack_raises,
            (unsigned long long)sres.reverifications,
            (unsigned long long)sres.deferred_at_close);
        if (sres.resumed_batch > 0 && !opt.quiet) {
          std::printf(
              "# resumed from stream checkpoint: batches 1..%llu restored\n",
              (unsigned long long)sres.resumed_batch);
        }
        run.itemsets = std::move(sres.itemsets);
      } else if (opt.approx) {
        fim::SamplingOptions mine_opt;
        mine_opt.min_support = opt.minsup;
        mine_opt.sample_fraction = opt.sample_fraction;
        mine_opt.num_samples = static_cast<u32>(opt.approx_samples);
        mine_opt.relax = opt.relax;
        mine_opt.cache_transactions = !opt.no_cache;
        mine_opt.broadcast_mode = bmode;
        fim::SamplingRun sres = fim::sampling_mine(ctx, fs, db, mine_opt);
        // Printed even under --quiet: the CI approx-smoke lane greps
        // exact=/border_survivors= out of this line, and the negative
        // control asserts the certificate is refused.
        std::printf(
            "# approx: samples=%llu fraction=%g relax=%g candidates=%llu "
            "border=%llu verified=%llu false=%llu border_survivors=%llu "
            "exact=%s miss_bound=%.3g\n",
            (unsigned long long)opt.approx_samples, opt.sample_fraction,
            opt.relax, (unsigned long long)sres.candidate_union,
            (unsigned long long)sres.border_union,
            (unsigned long long)sres.run.itemsets.total(),
            (unsigned long long)sres.false_candidates,
            (unsigned long long)sres.border_survivors,
            sres.exact ? "true" : "false", sres.miss_bound);
        run = std::move(sres.run);
      } else if (opt.engine == "yafim") {
        fim::YafimOptions mine_opt;
        mine_opt.min_support = opt.minsup;
        mine_opt.checkpoint = store;
        mine_opt.stop_after_pass = opt.stop_after_pass;
        mine_opt.cache_transactions = !opt.no_cache;
        mine_opt.broadcast_mode = bmode;
        run = fim::yafim_mine(ctx, fs, db, mine_opt);
      } else {
        fim::MrAprioriOptions mine_opt;
        mine_opt.min_support = opt.minsup;
        mine_opt.checkpoint = store;
        mine_opt.stop_after_pass = opt.stop_after_pass;
        mine_opt.broadcast_mode = bmode;
        run = fim::mr_apriori_mine(ctx, fs, db, mine_opt);
      }
    } catch (const engine::DetSanError& e) {
      // fail_fast throws on the first divergence; the YL007 diagnostic
      // was recorded before the throw, so the block below names it.
      std::printf("# detsan: %s\n", e.what());
      print_detsan();
      return 4;
    }
    sim_seconds = opt.stream ? ctx.sim_seconds() : run.total_seconds();
    {
      // Printed even under --quiet: CI greps the degradation counters out
      // of this line (beyond-memory smoke lane).
      const engine::MemoryBudget& mb = ctx.memory_budget();
      std::printf(
          "# memory: fallbacks=%llu spill_blocks=%llu spill_raw=%llu "
          "spill_stored=%llu spill_reads=%llu shrinks=%llu\n",
          (unsigned long long)mb.broadcast_fallbacks(),
          (unsigned long long)mb.spill_blocks_written(),
          (unsigned long long)mb.spill_bytes_raw(),
          (unsigned long long)mb.spill_bytes_stored(),
          (unsigned long long)mb.spill_blocks_read(),
          (unsigned long long)mb.mem_shrinks_applied());
    }
    if (opt.detsan) print_detsan();
    if (store && !opt.quiet) {
      // Per-pass provenance: the crash-recovery harness asserts restored
      // passes were skipped, not re-mined, from these lines.
      if (run.resumed_pass > 0) {
        std::printf("# resumed from checkpoint: passes 1..%u restored\n",
                    run.resumed_pass);
      }
      for (const auto& pass : run.passes) {
        std::printf("# pass %u: candidates=%llu frequent=%llu%s\n", pass.k,
                    (unsigned long long)pass.candidates,
                    (unsigned long long)pass.frequent,
                    pass.k <= run.resumed_pass ? " (restored)" : " (mined)");
      }
    }
    if (opt.stages) {
      std::fputs(
          sim::format_report(ctx.report(), ctx.cost_model()).c_str(),
          stdout);
    }
    if (opt.lint) {
      ctx.linter().finalize();
      lint_diags = ctx.linter().diagnostics();
    }
  } else if (opt.engine == "apriori") {
    fim::AprioriOptions mine_opt;
    mine_opt.min_support = opt.minsup;
    run = fim::apriori_mine(db, mine_opt);
  } else if (opt.engine == "fpgrowth") {
    run = fim::fp_growth_mine(db, opt.minsup);
  } else {  // "eclat" -- parse() already rejected unknown engines
    run = fim::eclat_mine(db, opt.minsup);
  }

  if (opt.lint) {
    // Printed even under --quiet: CI greps rule ids out of this block.
    for (const auto& diag : lint_diags) {
      std::printf("# lint: %s\n", engine::PlanLinter::format(diag).c_str());
    }
    std::printf("# lint: %zu diagnostic%s\n", lint_diags.size(),
                lint_diags.size() == 1 ? "" : "s");
  }

  if (tracing) {
    obs::Tracer::instance().stop();
    if (!obs::Tracer::instance().write_chrome_json(opt.trace_out)) {
      std::fprintf(stderr, "cannot write --trace file %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
    std::fputs(obs::Tracer::instance().summary().c_str(), stdout);
    if (!opt.quiet) {
      std::printf("# trace written to %s (open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  opt.trace_out.c_str());
    }
  }

  if (!opt.quiet) {
    std::printf("# mined %llu frequent itemsets (max size %u) in %.2fs "
                "host time",
                (unsigned long long)run.itemsets.total(),
                run.itemsets.max_k(), wall.seconds());
    if (sim_seconds >= 0.0) {
      std::printf(", %.1fs simulated cluster time", sim_seconds);
    }
    std::printf("\n");
  }

  const auto sorted = run.itemsets.sorted();
  const size_t show = opt.top == 0
                          ? sorted.size()
                          : std::min<size_t>(opt.top, sorted.size());
  for (size_t i = 0; i < show; ++i) {
    for (size_t j = 0; j < sorted[i].first.size(); ++j) {
      std::printf("%s%u", j ? " " : "", sorted[i].first[j]);
    }
    std::printf("  (%llu)\n", (unsigned long long)sorted[i].second);
  }
  if (show < sorted.size()) {
    std::printf("... %zu more (raise --top or pass --top=0 for all)\n",
                sorted.size() - show);
  }

  if (opt.rules_confidence > 0.0) {
    fim::RuleOptions rule_opt;
    rule_opt.min_confidence = opt.rules_confidence;
    const auto rules = fim::generate_rules(run.itemsets, rule_opt);
    std::printf("# %zu rules at confidence >= %.2f\n", rules.size(),
                opt.rules_confidence);
    const size_t rshow = opt.top == 0
                             ? rules.size()
                             : std::min<size_t>(opt.top, rules.size());
    for (size_t i = 0; i < rshow; ++i) {
      std::printf("%s => %s  conf %.2f lift %.2f sup %llu\n",
                  fim::to_string(rules[i].antecedent).c_str(),
                  fim::to_string(rules[i].consequent).c_str(),
                  rules[i].confidence, rules[i].lift,
                  (unsigned long long)rules[i].support);
    }
  }
  if (opt.lint_error) {
    // Notes (e.g. YL002 downgraded because the partitioned fallback
    // engaged) describe graceful degradation, not plan defects -- only
    // warnings and errors fail the process.
    for (const auto& diag : lint_diags) {
      if (diag.severity >= engine::LintSeverity::kWarn) return 3;
    }
  }
  return 0;
}
