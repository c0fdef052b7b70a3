#pragma once
// In-memory span recorder for the benchmark's traced run.  Spans are
// recorded from the benchmark's own code around its calls into each layer
// (the library is not instrumented), kept in memory, and written at exit
// as Chrome trace-event JSON that Perfetto and chrome://tracing load.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Escapes a string for a JSON string literal.
inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

struct Span {
  std::string name;
  int track = 0;
  std::int64_t start_ns = 0;  // since the tracer's origin
  std::int64_t dur_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  // Track layout: the coordinating thread, one track per shard, one per
  // sweep worker (worker 0 is the coordinating thread's trials).
  static constexpr int kMainTrack = 1;
  static constexpr int kShardTrack0 = 100;
  static constexpr int kWorkerTrack0 = 200;

  Tracer() : origin_(Clock::now()), owner_(std::this_thread::get_id()) {}

  std::uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  /// Records a finished span; `id` comes from new_id() so children can
  /// name their parent before the parent itself ends.
  void add(std::string name, int track, Clock::time_point start, Clock::time_point end,
           std::uint64_t id, std::uint64_t parent,
           std::vector<std::pair<std::string, double>> args = {}) {
    Span s{std::move(name), track, ns(start), ns(end) - ns(start), id, parent, std::move(args)};
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(std::move(s));
  }

  /// The calling thread's sweep-worker track: the coordinating thread is
  /// worker 0, pool threads are numbered in the order they first record.
  int worker_track() {
    const std::thread::id me = std::this_thread::get_id();
    if (me == owner_) return kWorkerTrack0;
    std::lock_guard<std::mutex> lock(m_);
    auto [it, fresh] = workers_.try_emplace(me, static_cast<int>(workers_.size()) + 1);
    (void)fresh;
    return kWorkerTrack0 + it->second;
  }

  /// Drops recorded spans (track numbering is kept).
  void clear() {
    std::lock_guard<std::mutex> lock(m_);
    spans_.clear();
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(m_);
    return spans_;
  }

  /// Self time by span name, in seconds: each span's duration minus the
  /// part of its interval its children cover (children on other threads
  /// included, overlapping children counted once).
  std::map<std::string, double> self_seconds() const {
    const std::vector<Span> all = spans();
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
    for (const Span& s : all) {
      if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.start_ns + s.dur_ns});
    }
    std::map<std::string, double> out;
    for (const Span& s : all) {
      const std::int64_t lo = s.start_ns;
      const std::int64_t hi = s.start_ns + s.dur_ns;
      std::int64_t covered = 0;
      if (auto it = kids.find(s.id); it != kids.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur_lo = 0;
        std::int64_t cur_hi = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, lo);
          b = std::min(b, hi);
          if (b <= a) continue;
          if (a > cur_hi) {
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
          } else {
            cur_hi = std::max(cur_hi, b);
          }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      }
      out[s.name] += static_cast<double>(s.dur_ns - covered) * 1e-9;
    }
    return out;
  }

  /// Writes the spans as Chrome trace-event JSON: one complete ("X") event
  /// per span on its track, thread-name metadata per track, and
  /// `other_data` (string pairs) under "otherData".
  bool write_chrome_json(const std::string& path,
                         const std::vector<std::pair<std::string, std::string>>& other_data) const {
    const std::vector<Span> all = spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
    for (std::size_t i = 0; i < other_data.size(); ++i) {
      std::fprintf(f, "%s\"%s\": \"%s\"", i ? ", " : "", json_escape(other_data[i].first).c_str(),
                   json_escape(other_data[i].second).c_str());
    }
    std::fprintf(f, "},\n\"traceEvents\": [\n");
    std::map<int, std::string> tracks;
    for (const Span& s : all) tracks[s.track] = track_name(s.track);
    bool first = true;
    for (const auto& [tid, name] : tracks) {
      std::fprintf(f,
                   "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \"thread_name\", "
                   "\"args\": {\"name\": \"%s\"}}",
                   first ? "" : ",\n", tid, json_escape(name).c_str());
      first = false;
    }
    for (const Span& s : all) {
      const std::string cat = s.name.substr(0, s.name.find('.'));
      std::fprintf(f,
                   "%s{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", \"cat\": \"%s\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu",
                   first ? "" : ",\n", s.track, json_escape(s.name).c_str(),
                   json_escape(cat).c_str(), static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      for (const auto& [k, v] : s.args) {
        std::fprintf(f, ", \"%s\": %.17g", json_escape(k).c_str(), v);
      }
      std::fprintf(f, "}}");
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::string track_name(int track) {
    if (track >= kWorkerTrack0) return "sweep worker " + std::to_string(track - kWorkerTrack0);
    if (track >= kShardTrack0) return "shard " + std::to_string(track - kShardTrack0);
    return "main";
  }

  const Clock::time_point origin_;
  const std::thread::id owner_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex m_;  // guards spans_ and workers_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> workers_;
};

}  // namespace perfbench
