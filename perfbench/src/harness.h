// Shared pieces of the benchmark program: command-line arguments, the
// result report (the final JSON line), statistics over raw samples,
// process resource usage, and the span tracer of traced runs.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace perfbench {

using wrs::TimeNs;

/// Monotonic wall clock in ns (the tracer's and the set-up timer's clock).
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time at process start; a run's time budget counts from here.
std::int64_t process_start_ns();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (created on demand).
  std::string trace_dir = ".bench_build/traces";
};

// --- statistics ------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50);
}

/// Process CPU time (user + system, every thread) in seconds.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Wall ms of a fixed, seedless reference kernel written here, independent
/// of the library: ordered-map updates of short strings and heap churn
/// over a few MB, the allocation- and cache-bound mix the simulator runs.
/// On a shared VM its time follows the simulator's wall time as the
/// neighbours' memory traffic comes and goes (a pure-ALU loop does not).
double reference_ms();

/// Peak resident set size of this process in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- report ----------------------------------------------------------------

/// Collects metrics and correctness verdicts; prints a table and, as the
/// last line of stdout, the JSON result object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  /// A failed correctness check: the run reports correct=false.
  void check(bool ok, const std::string& what) {
    std::cout << (ok ? "[check] ok   " : "[check] FAIL ") << what << "\n";
    if (!ok) correct_ = false;
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void print() const {
    std::cout << "\n" << std::left << std::setw(34) << "metric" << std::right
              << std::setw(16) << "value" << "  unit\n";
    for (const auto& [name, vu] : metrics_) {
      std::cout << std::left << std::setw(34) << name << std::right
                << std::setw(16) << number(vu.first) << "  " << vu.second
                << "\n";
    }
    std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, vu] = metrics_[i];
      std::cout << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
                << number(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  /// Shortest text that reads back as the same double (every digit kept).
  static std::string number(double v) {
    if (!(v == v) || v > 1e300 || v < -1e300) v = 0;  // JSON has no NaN/inf
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- tracing ---------------------------------------------------------------

/// In-memory span recorder for traced runs. Spans are recorded by the
/// benchmark around its calls into each layer's public API (the library
/// itself is not instrumented): name ("<layer>.<what>"), wall-clock start
/// and end, parent span, and the op id the span served. Recording is
/// switched per episode with set_active(), so a traced run also measures
/// untraced episodes and reports the tracing overhead.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t parent;
    std::uint64_t op;
    std::int64_t start;
    std::int64_t end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  bool active() const { return active_.load(std::memory_order_relaxed); }
  void set_active(bool on) {
    active_.store(enabled_ && on, std::memory_order_relaxed);
  }

  /// Span that callbacks running during the current simulated second
  /// hang under.
  void set_root(std::uint64_t id) {
    root_.store(id, std::memory_order_relaxed);
  }
  std::uint64_t root() const { return root_.load(std::memory_order_relaxed); }

  /// Opens a span (id 0 when not recording); close() stamps its end.
  std::uint64_t open(const char* name, std::uint64_t parent = 0,
                     std::uint64_t op = 0) {
    if (!active()) return 0;
    std::int64_t now = wall_ns();
    std::lock_guard lock(mu_);
    spans_.push_back(Span{name, parent, op, now, now});
    return spans_.size();
  }
  void close(std::uint64_t id) {
    if (id == 0) return;
    std::int64_t now = wall_ns();
    std::lock_guard lock(mu_);
    spans_[id - 1].end = now;
  }
  std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  /// Writes every span as one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;

  struct LayerTime {
    std::uint64_t spans = 0;
    double total_ms = 0;  ///< summed span durations
    double self_ms = 0;   ///< durations minus the time children cover
  };
  /// Self time per layer (the name prefix before the first '.').
  std::map<std::string, LayerTime> layer_times() const;

 private:
  const bool enabled_;
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> root_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; span id = index + 1
};

/// RAII span around one call.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::uint64_t parent = 0,
         std::uint64_t op = 0)
      : t_(t), id_(t.open(name, parent, op)) {}
  ~Scoped() { t_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint64_t id_;
};

/// Writes the spans of a traced run and prints each layer's self time
/// next to the tracing overhead; no-op for untraced runs.
void finish_trace(const Tracer& tracer, const Args& args,
                  double overhead_pct);

}  // namespace perfbench
