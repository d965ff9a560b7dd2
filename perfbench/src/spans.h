// In-memory span log for the traced run.
//
// Each span carries a name (the layer it times), start/end on the steady
// clock, the span that caused it, the job it belongs to and a small thread
// id. Spans are opened and closed on the driver thread through the Scoped
// guard; pool threads append finished intervals with add(). Nothing is
// written until the benchmark exits (write_json), so recording costs one
// clock read per boundary and one vector append.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.h"

namespace perfbench {

using yafim::u32;
using yafim::u64;

inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  u32 id = 0;
  u32 parent = 0;  // 0 = no parent (a job root)
  u64 job = 0;
  std::string name;
  u64 start_ns = 0;
  u64 end_ns = 0;
  u32 tid = 0;  // 0 = driver thread

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  /// RAII span on the driver thread; nests under the innermost open one.
  class Scoped {
   public:
    Scoped(SpanLog& log, std::string name) : log_(log) {
      id_ = log_.open(std::move(name));
    }
    ~Scoped() { log_.close(id_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    u32 id() const { return id_; }

   private:
    SpanLog& log_;
    u32 id_;
  };

  void begin_job(u64 job) {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
  }

  /// Record an already finished interval (any thread).
  void add(std::string name, u32 parent, u64 start_ns, u64 end_ns, u32 tid) {
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord r;
    r.id = static_cast<u32>(spans_.size()) + 1;
    r.parent = parent;
    r.job = job_;
    r.name = std::move(name);
    r.start_ns = start_ns;
    r.end_ns = end_ns;
    r.tid = tid;
    spans_.push_back(std::move(r));
  }

  /// Copy of every span recorded so far.
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Self time per span id: duration minus the union of the intervals its
  /// children on the same thread cover (clipped to the span). Children on
  /// pool threads run concurrently with their parent and are attributed by
  /// the caller instead.
  static std::map<u32, double> self_seconds(const std::vector<SpanRecord>& all) {
    std::map<u32, u32> tid_of;
    for (const SpanRecord& s : all) tid_of[s.id] = s.tid;
    std::map<u32, std::vector<std::pair<u64, u64>>> kids;
    for (const SpanRecord& s : all) {
      if (s.parent && tid_of[s.parent] == s.tid) {
        kids[s.parent].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::map<u32, double> out;
    for (const SpanRecord& s : all) {
      u64 covered = 0;
      auto it = kids.find(s.id);
      if (it != kids.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        u64 cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
          } else {
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
          }
        }
        if (open) covered += cur_hi - cur_lo;
      }
      out[s.id] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return out;
  }

  /// Write every span as JSON (one object per span, times relative to the
  /// first span). Returns false when the file cannot be written.
  bool write_json(const std::string& path, const std::string& header) const {
    std::vector<SpanRecord> all = spans();
    const std::map<u32, double> self = self_seconds(all);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    u64 t0 = all.empty() ? 0 : all.front().start_ns;
    for (const SpanRecord& s : all) t0 = std::min(t0, s.start_ns);
    std::fprintf(f, "{%s,\n\"spans\": [\n", header.c_str());
    for (size_t i = 0; i < all.size(); ++i) {
      const SpanRecord& s = all[i];
      std::fprintf(f,
                   "  {\"id\": %u, \"parent\": %u, \"job\": %llu, "
                   "\"name\": \"%s\", \"tid\": %u, \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"self_us\": %.3f}%s\n",
                   s.id, s.parent, static_cast<unsigned long long>(s.job),
                   s.name.c_str(), s.tid, (s.start_ns - t0) * 1e-3,
                   (s.end_ns - t0) * 1e-3, self.at(s.id) * 1e6,
                   i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  /// The innermost span open on the driver thread (0 when none).
  u32 current() const { return stack_.empty() ? 0 : stack_.back(); }

  u32 open(std::string name) {
    const u32 parent = current();
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord r;
    r.id = static_cast<u32>(spans_.size()) + 1;
    r.parent = parent;
    r.job = job_;
    r.name = std::move(name);
    r.start_ns = now_ns();
    spans_.push_back(std::move(r));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(u32 id) {
    const u64 end = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = end;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<u32> stack_;  // driver thread only
  u64 job_ = 0;
};

}  // namespace perfbench
