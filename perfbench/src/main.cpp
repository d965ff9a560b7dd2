// perfbench: end-to-end benchmark of the YAFIM and MRApriori miners.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--spans FILE] [--commit SHA]
//
// One process runs one named workload as a closed loop: a single client
// submits a mining job, waits for its MiningRun, then submits the next,
// until S seconds have been measured. Every job gets a fresh
// engine::Context and a fresh simfs::SimFS already holding the serialized
// input; the first job is an untimed warm-up. Every job is checked against
// an FP-Growth reference mined once at set-up, and its simulated seconds
// against the warm-up's.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a separate traced
// pass (replay.h) and prints the per-layer metrics. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exit code
// 0 = all jobs correct, 1 = some job wrong (result still printed),
// 2 = refused to run (bad arguments or environment; nothing printed).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datagen/benchmarks.h"
#include "engine/context.h"
#include "fim/fp_growth.h"
#include "fim/mr_apriori.h"
#include "fim/yafim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay.h"
#include "simfs/simfs.h"
#include "spans.h"
#include "util/rng.h"
#include "util/stopwatch.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fim = yafim::fim;
namespace engine = yafim::engine;
namespace sim = yafim::sim;
namespace datagen = yafim::datagen;
namespace obs = yafim::obs;
using yafim::Stopwatch;

constexpr double kMiB = 1024.0 * 1024.0;
const std::string kInputPath = "hdfs://perfbench/input";

enum class Miner { kYafim, kMrApriori };

struct Workload {
  const char* name;
  Miner miner;
  datagen::BenchmarkDataset (*make)(double scale, yafim::u64 seed);
  /// The dataset's datagen default seed.
  yafim::u64 generator_seed;
};

// Each dataset is generated with its datagen default seed: the generators'
// random pattern draws move the frequent-itemset structure (|C2|, pass
// count) by several percent between generator seeds, which would swamp
// the run-to-run spread. --seed varies the input through seeded_input().
const Workload kWorkloads[] = {
    {"t10_sparse", Miner::kYafim, datagen::make_t10i4d100k, 2},
    {"pumsb_dense", Miner::kYafim, datagen::make_pumsb_star, 4},
    {"t10_mrapriori", Miner::kMrApriori, datagen::make_t10i4d100k, 2},
};

/// The workload input for `seed`: the generated dataset with its
/// transactions in a seeded order, so each seed gives the miners different
/// partition contents and per-task work while the frequent-itemset
/// structure stays fixed. (Relabelling item ids as well was tried: it
/// moves hash-tree collisions enough to swing Pumsb_star's simulated
/// seconds between 8.3 and 11.1.) Seed 0 keeps the order as generated.
fim::TransactionDB seeded_input(fim::TransactionDB db, yafim::u64 seed) {
  if (seed == 0) return db;
  std::vector<fim::Transaction> tx = db.release();
  yafim::Rng rng(yafim::mix64(seed));
  for (size_t i = tx.size(); i > 1; --i) std::swap(tx[i - 1], tx[rng.below(i)]);
  return fim::TransactionDB(std::move(tx));
}

struct Args {
  std::string workload;
  yafim::u64 seed = 0;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
  std::string spans_out;
  std::string commit = "unknown";
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) refuse("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = a.seconds > 0;
    } else if (flag == "--trace") {
      a.trace = value == "1" ? 1 : value == "0" ? 0 : -1;
      have_trace = a.trace >= 0;
    } else if (flag == "--scale") {
      a.scale = std::strtod(value.c_str(), &end);
      if (!(a.scale > 0 && a.scale <= 1)) refuse("--scale must be in (0, 1]");
    } else if (flag == "--spans") {
      a.spans_out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      refuse("unknown flag " + flag);
    }
    if (end && *end != '\0') refuse("malformed value for " + flag);
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    refuse(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--scale F] [--spans FILE] [--commit SHA]");
  }
  return a;
}

/// Ambient fault injection or a dataset cache would change what is timed:
/// injection adds retries and recomputes, and a cache hit turns dataset
/// generation into a file read (set-up time would be bimodal).
void check_environment() {
  for (char** e = environ; *e; ++e) {
    const std::string_view var(*e);
    if (var.starts_with("YAFIM_FAULT_") ||
        var.starts_with("YAFIM_DATASET_CACHE=")) {
      refuse("refusing to run with " +
             std::string(var.substr(0, var.find('='))) + " set");
    }
  }
#ifndef NDEBUG
  refuse("refusing to time a build without NDEBUG (configure Release)");
#endif
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest percentile (multiple of 5) with at least ten samples beyond it;
/// 0 when there are fewer than 20 samples.
int reportable_percentile(size_t n) {
  for (int p = 95; p >= 50; p -= 5) {
    if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0) return p;
  }
  return 0;
}

double percentile(std::vector<double> v, int p) {
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(p / 100.0 * v.size())) - 1);
  return v[idx];
}

/// num / den, or 0 for an empty denominator.
double share(yafim::u64 num, yafim::u64 den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- one job --------------------------------------------------------------

/// A fresh driver + filesystem holding the staged input.
struct Staged {
  std::unique_ptr<engine::Context> ctx;
  std::unique_ptr<yafim::simfs::SimFS> fs;
};

Staged stage_job(const std::vector<yafim::u8>& serialized, unsigned threads) {
  engine::ContextOptions opts;
  opts.host_threads = threads;
  opts.fault = engine::FaultProfile{};  // explicitly disabled
  Staged s;
  s.ctx = std::make_unique<engine::Context>(opts);
  s.fs = std::make_unique<yafim::simfs::SimFS>(opts.cluster,
                                               sim::CorruptionProfile{});
  s.fs->write(kInputPath, serialized);
  return s;
}

struct JobResult {
  double setup_s = 0, mine_s = 0, cpu_s = 0, sim_s = 0;
  fim::MiningRun run;
  sim::SimReport report;
};

fim::MiningRun mine(const Workload& w, double min_support, Staged& s) {
  if (w.miner == Miner::kYafim) {
    fim::YafimOptions opt;
    opt.min_support = min_support;
    return fim::yafim_mine(*s.ctx, *s.fs, kInputPath, opt);
  }
  fim::MrAprioriOptions opt;
  opt.min_support = min_support;
  return fim::mr_apriori_mine(*s.ctx, *s.fs, kInputPath, opt);
}

JobResult run_job(const Workload& w, double min_support,
                  const std::vector<yafim::u8>& serialized, unsigned threads) {
  JobResult r;
  Stopwatch setup;
  Staged s = stage_job(serialized, threads);
  r.setup_s = setup.seconds();
  const double cpu0 = cpu_seconds();
  Stopwatch wall;
  r.run = mine(w, min_support, s);
  r.mine_s = wall.seconds();
  r.cpu_s = cpu_seconds() - cpu0;
  r.sim_s = r.run.total_seconds();
  r.report = s.ctx->report();
  return r;
}

// ---- SimReport-derived (deterministic) metrics -----------------------------

bool same_report(const sim::SimReport& a, const sim::SimReport& b) {
  const auto& x = a.stages();
  const auto& y = b.stages();
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    const sim::StageRecord& p = x[i];
    const sim::StageRecord& q = y[i];
    if (p.label != q.label || p.kind != q.kind || p.pass != q.pass ||
        p.shuffle_bytes != q.shuffle_bytes ||
        p.broadcast_bytes != q.broadcast_bytes ||
        p.naive_ship_bytes != q.naive_ship_bytes ||
        p.dfs_read_bytes != q.dfs_read_bytes ||
        p.dfs_write_bytes != q.dfs_write_bytes ||
        p.driver_work != q.driver_work ||
        p.fixed_overhead_s != q.fixed_overhead_s ||
        p.tasks.size() != q.tasks.size()) {
      return false;
    }
    for (size_t t = 0; t < p.tasks.size(); ++t) {
      if (p.tasks[t].work != q.tasks[t].work ||
          p.tasks[t].attempts != q.tasks[t].attempts ||
          p.tasks[t].wasted_work != q.tasks[t].wasted_work ||
          p.tasks[t].speculative != q.tasks[t].speculative) {
        return false;
      }
    }
  }
  return true;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// A counting stage: cluster work in a pass >= 2 (probe/map and reduce).
bool counting_stage(const sim::StageRecord& s) {
  return s.pass >= 2 && s.kind != sim::StageKind::kOverhead && !s.tasks.empty();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void add_report_metrics(const sim::SimReport& report, const fim::MiningRun& run,
                        const Workload& w, std::vector<Metric>& m) {
  const sim::CostModel model(sim::ClusterConfig::paper());
  double load = 0, phase1 = 0, startup = 0, map = 0, reduce = 0;
  double skew_max = 0, skew_mean = 0;
  yafim::u64 tasks = 0, jobs = 0, read = 0, write = 0;
  for (const sim::StageRecord& s : report.stages()) {
    const double sec = sim::stage_seconds(s, model);
    tasks += s.tasks.size();
    read += s.dfs_read_bytes;
    write += s.dfs_write_bytes;
    if (w.miner == Miner::kYafim && s.pass == 0) load += sec;
    if (w.miner == Miner::kYafim && s.pass == 1) phase1 += sec;
    if (s.kind == sim::StageKind::kMapPhase) map += sec;
    if (s.kind == sim::StageKind::kReducePhase) reduce += sec;
    if (w.miner == Miner::kMrApriori && ends_with(s.label, ":startup")) {
      startup += sec;
      ++jobs;
    }
    if (counting_stage(s)) {
      yafim::u64 mx = 0, sum = 0;
      for (const sim::TaskRecord& t : s.tasks) {
        mx = std::max(mx, t.work);
        sum += t.work;
      }
      skew_max += static_cast<double>(mx);
      skew_mean += static_cast<double>(sum) / static_cast<double>(s.tasks.size());
    }
  }
  yafim::u64 cand = 0, freq = 0;
  for (const fim::PassStats& p : run.passes) {
    if (p.k < 2) continue;
    cand += p.candidates;
    freq += p.frequent;
  }
  m.push_back({"simfs.read_mb", read / kMiB, "MB"});
  m.push_back({"simfs.write_mb", write / kMiB, "MB"});
  m.push_back({"sim.load_s", load, "s"});
  m.push_back({"sim.phase1_s", phase1, "s"});
  m.push_back({"engine.shuffle_mb", report.total_shuffle_bytes() / kMiB, "MB"});
  m.push_back(
      {"engine.broadcast_mb", report.total_broadcast_bytes() / kMiB, "MB"});
  m.push_back({"engine.tasks", static_cast<double>(tasks), "count"});
  m.push_back({"engine.task_skew", skew_mean > 0 ? skew_max / skew_mean : 0,
               "ratio"});
  m.push_back({"count_core.yield", share(freq, cand), "ratio"});
  m.push_back({"mapreduce.jobs", static_cast<double>(jobs), "count"});
  m.push_back({"mapreduce.startup_sim_s", startup, "s"});
  m.push_back({"mapreduce.map_sim_s", w.miner == Miner::kMrApriori ? map : 0,
               "s"});
  m.push_back({"mapreduce.reduce_sim_s",
               w.miner == Miner::kMrApriori ? reduce : 0, "s"});
}

/// Total task work of the counting stages (denominator of ns_per_work).
double counting_work(const sim::SimReport& report) {
  double work = 0;
  for (const sim::StageRecord& s : report.stages()) {
    if (!counting_stage(s)) continue;
    for (const sim::TaskRecord& t : s.tasks) work += static_cast<double>(t.work);
  }
  return work;
}

// ---- obs counters (traced run only) -----------------------------------------

struct Counters {
  yafim::u64 hits = 0, misses = 0, generated = 0, pruned = 0, visited = 0,
             checks = 0, array_bytes = 0;
};

void begin_counting() {
  obs::Tracer::instance().reset();
  obs::set_enabled(true);
}

Counters end_counting() {
  obs::set_enabled(false);
  using obs::CounterId;
  Counters c;
  c.hits = obs::counter_value(CounterId::kCacheHits);
  c.misses = obs::counter_value(CounterId::kCacheMisses);
  c.generated = obs::counter_value(CounterId::kCandidatesGenerated);
  c.pruned = obs::counter_value(CounterId::kCandidatesPruned);
  c.visited = obs::counter_value(CounterId::kHashTreeNodesVisited);
  c.checks = obs::counter_value(CounterId::kHashTreeCandChecks);
  c.array_bytes = obs::counter_value(CounterId::kArrayReduceBytes);
  obs::Tracer::instance().reset();
  return c;
}

/// Per-job sums of span self time by span name.
std::map<yafim::u64, std::map<std::string, double>> self_by_job(
    const SpanLog& log) {
  const std::vector<SpanRecord> all = log.spans();
  const std::map<u32, double> self = SpanLog::self_seconds(all);
  std::map<yafim::u64, std::map<std::string, double>> out;
  for (const SpanRecord& s : all) out[s.job][s.name] += self.at(s.id);
  return out;
}

// ---- output -----------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, size_t attempted, size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string describe_env(const Args& a, const Workload& w, unsigned threads,
                         double min_support) {
  std::string s = "\"workload\": \"" + std::string(w.name) + "\"";
  s += ", \"seed\": " + std::to_string(a.seed);
  s += ", \"generator_seed\": " + std::to_string(w.generator_seed);
  s += ", \"scale\": " + num(a.scale);
  s += ", \"min_support\": " + num(min_support);
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"host_threads\": " + std::to_string(threads);
  s += ", \"compiler\": \"" + std::string(__VERSION__) + "\"";
  s += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  s += ", \"commit\": \"" + a.commit + "\"";
  return s;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (!found) refuse("unknown workload '" + args.workload + "'");
  const Workload& w = *found;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(4u, nproc);

  // ---- set-up: generate + serialize (several times; median), reference
  std::vector<double> datagen_s;
  datagen::BenchmarkDataset ds;
  std::vector<yafim::u8> serialized;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch sw;
    datagen::BenchmarkDataset fresh = w.make(args.scale, w.generator_seed);
    fresh.db = seeded_input(std::move(fresh.db), args.seed);
    std::vector<yafim::u8> bytes = fresh.db.serialize();
    datagen_s.push_back(sw.seconds());
    if (rep == 0) {
      ds = std::move(fresh);
      serialized = std::move(bytes);
    } else if (bytes != serialized) {
      refuse("dataset generation is not deterministic for this seed");
    }
  }
  const double min_support = ds.paper_min_support;
  const std::string env = describe_env(args, w, threads, min_support);
  std::printf("# perfbench {%s}\n", env.c_str());
  Stopwatch ref_clock;
  const fim::MiningRun reference = fim::fp_growth_mine(ds.db, min_support);
  std::printf("# reference: fp_growth %llu itemsets in %.3f s (not in setup_s)\n",
              static_cast<unsigned long long>(reference.itemsets.total()),
              ref_clock.seconds());
  ds.db = fim::TransactionDB();  // the jobs only see the serialized input

  size_t attempted = 0, failed = 0;
  double first_sim = 0;
  auto check = [&](const fim::MiningRun& run, double sim_s) {
    ++attempted;
    const bool ok = run.itemsets.same_itemsets(reference.itemsets) &&
                    (attempted == 1 || sim_s == first_sim);
    if (attempted == 1) first_sim = sim_s;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: job %zu wrong (itemsets %llu vs %llu, "
                   "sim_s %.17g vs %.17g)\n", attempted,
                   static_cast<unsigned long long>(run.itemsets.total()),
                   static_cast<unsigned long long>(reference.itemsets.total()),
                   sim_s, first_sim);
    }
  };

  // ---- warm-up (untimed, checked) -------------------------------------
  JobResult warm = run_job(w, min_support, serialized, threads);
  check(warm.run, warm.sim_s);
  std::printf("# warm-up: mine %.3f s, sim %.3f s, %llu itemsets\n",
              warm.mine_s, warm.sim_s,
              static_cast<unsigned long long>(warm.run.itemsets.total()));

  std::vector<double> setup_s, mine_s, cpu_s, sim_s;
  auto timed_job = [&] {
    JobResult r = run_job(w, min_support, serialized, threads);
    check(r.run, r.sim_s);
    setup_s.push_back(r.setup_s);
    mine_s.push_back(r.mine_s);
    cpu_s.push_back(r.cpu_s);
    sim_s.push_back(r.sim_s);
  };

  // Traced jobs (replay.h). The counted one runs with the library's obs
  // counters on (their values are deterministic); the others run with
  // counters off and give the span timings.
  SpanLog log;
  Counters counters;
  LayerWork work;
  bool faithful = true;
  auto traced_job = [&](yafim::u64 job, bool counted) {
    Staged s = stage_job(serialized, threads);
    log.begin_job(job);
    if (counted) begin_counting();
    if (w.miner == Miner::kYafim) {
      YafimReplay replay =
          replay_yafim(*s.ctx, *s.fs, kInputPath, min_support, log);
      // The replay is the benchmark's code, not the miner's: a mismatch
      // marks the per-layer numbers stale instead of counting a wrong job.
      faithful = faithful && replay.itemsets.same_itemsets(warm.run.itemsets) &&
                 same_report(s.ctx->report(), warm.report);
      work = std::move(replay.work);
      if (counted) counters = end_counting();
    } else {
      SpanLog::Scoped root(log, "job");
      fim::MiningRun mined;
      {
        SpanLog::Scoped call(log, "mr_apriori_mine");
        mined = mine(w, min_support, s);
      }
      if (counted) counters = end_counting();
      faithful = faithful && same_report(s.ctx->report(), warm.report);
      // The miner reads and parses its input once for |D| and once per
      // MapReduce job; replay those calls to time them.
      yafim::u64 reads = 1;
      for (const sim::StageRecord& st : s.ctx->report().stages()) {
        reads += ends_with(st.label, ":startup");
      }
      for (yafim::u64 i = 0; i < reads; ++i) {
        std::vector<yafim::u8> raw;
        {
          SpanLog::Scoped span(log, "simfs.read");
          raw = s.fs->read(kInputPath);
        }
        SpanLog::Scoped span(log, "dataset.parse");
        (void)fim::TransactionDB::deserialize(raw);
      }
      work = replay_levels(mined.itemsets, log);
      std::vector<std::pair<u32, yafim::u64>> passes;
      for (const fim::PassStats& p : mined.passes) {
        if (p.k >= 2) passes.emplace_back(p.k, p.candidates);
      }
      faithful = faithful && passes == work.per_pass;
      check(mined, mined.total_seconds());
    }
  };

  Stopwatch budget;
  if (args.trace) {
    // Untraced and traced jobs alternate, so load drift on the host hits
    // both sides of the tracing-overhead difference alike.
    traced_job(1, true);
    for (yafim::u64 job = 2; job <= 4 || budget.seconds() < args.seconds;
         ++job) {
      timed_job();
      traced_job(job, false);
    }
  } else {
    while (mine_s.size() < 5 || budget.seconds() < args.seconds) timed_job();
  }
  const double mine_median = median(mine_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::printf("# closed loop, 1 client: %zu timed jobs after 1 warm-up\n",
                mine_s.size());
    std::printf("# mine_s samples:");
    for (double v : mine_s) std::printf(" %.4f", v);
    std::printf("\n");
    const int p = reportable_percentile(mine_s.size());
    if (p) {
      std::printf("# mine_s p%d = %.6f s, cpu_s p%d = %.6f s\n", p,
                  percentile(mine_s, p), p, percentile(cpu_s, p));
    }
    metrics.push_back({"mine_s", mine_median, "s"});
    metrics.push_back({"cpu_s", median(cpu_s), "s"});
    metrics.push_back({"sim_s", median(sim_s), "s"});
    metrics.push_back({"setup_s", median(datagen_s) + median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back({"success_rate", share(attempted - failed, attempted),
                       "ratio"});
    print_result(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
  }

  // ---- traced run: per-layer metrics ------------------------------------
  // Layer times: median over the counter-free jobs of each job's summed
  // self time per span name.
  const auto by_job = self_by_job(log);
  auto layer = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& [job, sums] : by_job) {
      if (job == 1) continue;
      auto it = sums.find(name);
      v.push_back(it == sums.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  std::vector<double> root_wall;
  for (const SpanRecord& s : log.spans()) {
    const bool root = w.miner == Miner::kYafim ? s.name == "job"
                                               : s.name == "mr_apriori_mine";
    if (root && s.job != 1) root_wall.push_back(s.seconds());
  }
  // Materialization runs on pool threads inside Phase I; its wall share is
  // the summed task time divided by the host threads.
  const double materialize = layer("engine.materialize") / threads;
  const double pass2 = layer("count_core.pass2");
  const double late = layer("count_core.late");
  const double read_s = layer("simfs.read"), parse_s = layer("dataset.parse");
  const double gen_s = layer("candidate_gen"), tree_s = layer("hash_tree.build");

  if (!args.spans_out.empty()) {
    const std::string header = std::string("\"env\": {") + env +
                               "}, \"replay_faithful\": " +
                               (faithful ? "true" : "false");
    if (!log.write_json(args.spans_out, header)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
  }

  add_report_metrics(warm.report, warm.run, w, metrics);
  const double cw = counting_work(warm.report);
  metrics.push_back({"datagen.s", median(datagen_s), "s"});
  metrics.push_back({"setup.stage_s", median(setup_s), "s"});
  metrics.push_back({"trace.replay_faithful", faithful ? 1.0 : 0.0, "bool"});

  // Span-derived and replay-derived numbers: dropped when the replay no
  // longer matches the miner, rather than printed as wrong attributions.
  std::vector<Metric> replayed;
  replayed.push_back({"simfs.read_s", read_s, "s"});
  replayed.push_back({"dataset.parse_s", parse_s, "s"});
  replayed.push_back({"engine.load_s",
                      w.miner == Miner::kYafim
                          ? layer("engine.load") + materialize : 0.0,
                      "s"});
  replayed.push_back({"engine.phase1_s",
                      w.miner == Miner::kYafim
                          ? layer("engine.phase1") - materialize : 0.0,
                      "s"});
  replayed.push_back({"candidate_gen.s", gen_s, "s"});
  replayed.push_back({"candidate_gen.candidates",
                      static_cast<double>(work.candidates), "count"});
  replayed.push_back({"candidate_gen.prune_ratio",
                      share(counters.pruned, counters.generated + counters.pruned),
                      "ratio"});
  replayed.push_back({"engine.cache_hit_ratio",
                      share(counters.hits, counters.hits + counters.misses),
                      "ratio"});
  replayed.push_back({"hash_tree.build_s", tree_s, "s"});
  replayed.push_back({"hash_tree.mb", work.tree_bytes / kMiB, "MB"});
  replayed.push_back({"hash_tree.nodes_visited",
                      static_cast<double>(counters.visited), "count"});
  replayed.push_back({"hash_tree.candidate_checks",
                      static_cast<double>(counters.checks), "count"});
  replayed.push_back({"count_core.pass2_s", pass2, "s"});
  replayed.push_back({"count_core.late_s", late, "s"});
  replayed.push_back(
      {"count_core.ns_per_work",
       w.miner == Miner::kYafim && cw > 0 ? (pass2 + late) * 1e9 / cw : 0.0,
       "ns"});
  replayed.push_back({"engine.array_reduce_mb", counters.array_bytes / kMiB,
                      "MB"});
  replayed.push_back(
      {"mapreduce.host_s",
       w.miner == Miner::kMrApriori
           ? std::max(0.0, layer("mr_apriori_mine") -
                               (read_s + parse_s + gen_s + tree_s))
           : 0.0,
       "s"});
  replayed.push_back({"trace.overhead_s", median(root_wall) - mine_median, "s"});
  if (faithful) {
    metrics.insert(metrics.end(), replayed.begin(), replayed.end());
  } else {
    std::fprintf(stderr,
                 "perfbench: STALE replay -- the traced replay no longer "
                 "matches the miner's itemsets/SimReport; %zu per-layer "
                 "metrics withheld\n",
                 replayed.size());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::check_environment();
  return perfbench::run(args);
}
