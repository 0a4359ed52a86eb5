// Shared helpers for the experiment harnesses in bench/.
//
// Each binary prints its experiments as tables on stdout, checks its own
// results through gate(), and with `--json <path>` appends them as JSON
// lines. Simulator runs are seeded and deterministic.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "common/metrics.h"
#include "core/config.h"
#include "runtime/sim_env.h"
#include "storage/dynamic_node.h"
#include "workload/wan_profiles.h"
#include "workload/workload.h"

namespace wrs::bench {

inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n==== " << id << ": " << title << " ====\n\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

#ifndef WRS_GIT_SHA
#define WRS_GIT_SHA "unknown"
#endif

/// One table of results. Each cell is set once and renders twice: as a
/// console column under its header, and as a JSON field named after the
/// header ("read p50 (ms)" -> "read_p50_ms", "msgs/transfer" ->
/// "msgs_per_transfer"). A row opened with row(msgs) also records `msgs`,
/// the messages its run sent, as its last column. Every row has the
/// columns of the first one, in the same order; a row that differs
/// aborts the program, naming the experiment and the column.
class Report {
 public:
  explicit Report(std::string experiment, std::string caption = "")
      : experiment_(std::move(experiment)), caption_(std::move(caption)) {}

  Report& row(std::int64_t msgs) { return open(msgs); }
  /// A row that records no run's messages: a breakdown of a row counted
  /// in another table, or a wall-clock measurement.
  Report& row() { return open(std::nullopt); }
  /// Numeric cell, shown with `precision` decimals.
  Report& num(const std::string& header, double value, int precision = 2) {
    return add({header, Table::fmt(value, precision), value});
  }
  /// Text cell: labels, rationals, "25/25".
  Report& text(const std::string& header, std::string value) {
    return add({header, std::move(value), std::nullopt});
  }

  std::int64_t msgs() const {
    std::int64_t total = 0;
    for (const Row& r : rows_) total += r.msgs.value_or(0);
    return total;
  }

  void print() const {
    if (rows_.empty()) return;
    check_last_row();
    if (!caption_.empty()) std::cout << caption_ << "\n";
    std::vector<std::string> headers;
    for (const Cell& c : rows_.front().cells) headers.push_back(c.header);
    if (rows_.front().msgs) headers.push_back("msgs");
    Table table(std::move(headers));
    for (const Row& r : rows_) {
      std::vector<std::string> shown;
      for (const Cell& c : r.cells) shown.push_back(c.shown);
      if (r.msgs) shown.push_back(std::to_string(*r.msgs));
      table.add_row(std::move(shown));
    }
    table.print();
  }

  /// Appends the table to `path` as one JSON line (several tables share a
  /// file):
  ///
  ///   {"experiment": ..., "git_sha": "...", "seed": ..., "rows": [{...}]}
  ///
  /// `git_sha` is baked in at configure time and `seed` is the run's
  /// master seed (null when it is unseeded), so every recorded line is
  /// reproducible: check out the SHA, rerun with the seed. Returns false,
  /// and says so, when the file cannot be written.
  bool write(const std::string& path,
             std::optional<std::uint64_t> seed) const {
    check_last_row();
    std::ostringstream os;
    os << "{\"experiment\":\"" << escape(experiment_) << "\",\"git_sha\":\""
       << escape(WRS_GIT_SHA) << "\",\"seed\":"
       << (seed ? std::to_string(*seed) : "null") << ",\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << (r ? ",{" : "{");
      for (std::size_t c = 0; c < rows_[r].cells.size(); ++c) {
        const Cell& cell = rows_[r].cells[c];
        os << (c ? ",\"" : "\"") << key(cell.header) << "\":";
        if (cell.value) {
          os << number(*cell.value);
        } else {
          os << '"' << escape(cell.shown) << '"';
        }
      }
      if (rows_[r].msgs) {
        os << (rows_[r].cells.empty() ? "" : ",") << "\"msgs\":"
           << *rows_[r].msgs;
      }
      os << "}";
    }
    os << "]}";
    std::ofstream out(path, std::ios::app);
    out << os.str() << "\n";
    out.flush();
    if (!out) {
      std::cerr << "[json] ERROR: cannot write " << experiment_ << " to "
                << path << "\n";
      return false;
    }
    std::cout << "[json] " << experiment_ << " -> " << path << "\n";
    return true;
  }

 private:
  struct Cell {
    std::string header;
    std::string shown;
    std::optional<double> value;  // absent for text cells
  };
  struct Row {
    std::vector<Cell> cells;
    std::optional<std::int64_t> msgs;
  };

  Report& open(std::optional<std::int64_t> msgs) {
    check_last_row();
    if (!rows_.empty() && msgs.has_value() != rows_.front().msgs.has_value()) {
      ragged("msgs");
    }
    rows_.push_back({{}, msgs});
    return *this;
  }

  Report& add(Cell cell) {
    const std::vector<Cell>& first = rows_.front().cells;
    const std::size_t at = rows_.back().cells.size();
    if (rows_.size() > 1 &&
        (at >= first.size() || first[at].header != cell.header)) {
      ragged(cell.header);
    }
    rows_.back().cells.push_back(std::move(cell));
    return *this;
  }

  /// The open row must not stop short of the first row's columns.
  void check_last_row() const {
    if (rows_.size() < 2) return;
    const std::size_t have = rows_.back().cells.size();
    if (have < rows_.front().cells.size()) {
      ragged(rows_.front().cells[have].header);
    }
  }

  [[noreturn]] void ragged(const std::string& header) const {
    std::cerr << "bench::Report " << experiment_ << ": row "
              << rows_.size() << " does not match the first row's columns at '"
              << header << "'\n";
    std::abort();
  }

  /// Integral values below 2^53 print exactly ("7687120", not
  /// "7.68712e+06"); other values keep the stream's six significant
  /// digits. JSON has no NaN or infinity literals.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    if (v == std::trunc(v) && std::fabs(v) < 0x1p53) {
      os << static_cast<std::int64_t>(v);
    } else {
      os << v;
    }
    return os.str();
  }

  static std::string key(const std::string& header) {
    std::string out;
    auto separate = [&out] {
      if (!out.empty() && out.back() != '_') out.push_back('_');
    };
    for (char ch : header) {
      if (std::isalnum(static_cast<unsigned char>(ch))) {
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch))));
      } else if (ch == '/') {
        separate();
        out += "per_";
      } else if (ch == '%') {
        separate();
        out += "pct_";
      } else {
        separate();
      }
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    return out;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        out.push_back('\\');
        out.push_back(ch);
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
        out += buf;
      } else {
        out.push_back(ch);
      }
    }
    return out;
  }

  std::string experiment_;
  std::string caption_;
  std::vector<Row> rows_;
};

/// `--json <path>` from a bench binary's argv; empty when absent. A
/// dangling `--json` with no path is a usage error, not a silent no-op.
inline std::string json_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    if (i + 1 >= argc) {
      std::cerr << "usage: " << argv[0] << " [--json <path>]\n";
      std::exit(2);
    }
    return argv[i + 1];
  }
  return {};
}

/// One pass/fail check a bench enforces on its own measurements: prints
/// the value next to the bound it must meet and returns whether it held,
/// so a binary ANDs its gates into its exit status. `op` is one of
/// ">=", ">", "<=", "<", "==".
inline bool gate(const std::string& what, double value, const std::string& op,
                 double bound) {
  bool pass = false;
  if (op == ">=") {
    pass = value >= bound;
  } else if (op == ">") {
    pass = value > bound;
  } else if (op == "<=") {
    pass = value <= bound;
  } else if (op == "<") {
    pass = value < bound;
  } else if (op == "==") {
    pass = value == bound;
  } else {
    std::cerr << "gate: unknown comparison '" << op << "'\n";
    std::abort();
  }
  std::cout << "[gate] " << (pass ? "PASS " : "FAIL ") << what << ": "
            << value << " (want " << op << " " << bound << ")\n";
  return pass;
}

// --- sharded open-loop deployments (EXP-SH1, SH2, SH2R, SH3, SH3R) -------
//
// Shards keep a fixed size (n=3, f=1) under a fixed aggregate offered
// load. Every storage server models a serial per-request service time
// (ClusterBuilder::service_time, an M/D/1-style busy-until queue), so one
// shard has a finite capacity of roughly (1/service_time)/2 ops/s: a
// write costs every group server one R and one W request (a read whose
// phase-1 quorum is unanimous skips the W). Adding shards multiplies that
// capacity, independent of the benchmarking host's core count.

constexpr std::uint32_t kPerShardN = 3;
constexpr std::uint32_t kPerShardF = 1;
constexpr std::uint32_t kClients = 4;
constexpr std::size_t kOpsPerClient = 600;  // arrivals
constexpr TimeNs kServiceTime = ms(1);
constexpr double kOfferedOpsPerSec = 4000;  // aggregate, across clients

// EXP-SH3: the batching point must not be capacity-bound (a saturated
// shard throttles the per-client frame rate and with it the coalescing
// opportunity), so it runs 2 shards at 0.1ms/request under 8000 ops/s
// aggregate (~0.8 per-server utilization) with a 2ms batch window.
constexpr std::uint32_t kBatchShards = 2;
constexpr std::uint32_t kBatchClients = 2;
constexpr TimeNs kBatchServiceTime = us(100);
constexpr double kBatchOfferedOpsPerSec = 8000;
constexpr TimeNs kBatchDelay = ms(2);

/// One sharded deployment's knobs.
struct PointCfg {
  std::uint32_t shards = 1;
  std::size_t ops = kOpsPerClient;
  double zipf_theta = 0;
  std::uint32_t clients = kClients;
  double offered_ops_per_sec = kOfferedOpsPerSec;
  TimeNs service_time = kServiceTime;
  std::size_t max_in_flight = 32;
  std::uint32_t batch_window = 1;  // 1 = unbatched wire protocol
  TimeNs batch_delay = 0;
  std::size_t num_keys = 512;
  /// EXP-SH2R: pre-migrate the `pack_hot` hottest keys ("k0"..) onto
  /// shard 0 before measuring: the adversarial placement a hash map can
  /// stumble into (FNV anti-clusters consecutive small keys, so the
  /// natural map never concentrates the zipf head; a rebalancer's worst
  /// case has to be constructed).
  std::uint32_t pack_hot = 0;
  bool rebalance = false;  ///< run the skew-triggered rebalancer
  double read_ratio = 0.5;
};

/// What one deployment measured, in aggregate and per shard.
struct ShardPoint {
  struct Shard {
    std::size_t completed = 0;
    Histogram latency;
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
  };
  std::size_t completed = 0;
  std::size_t shed = 0;
  double ops_per_sec = 0;
  double sum_client_ops_per_sec = 0;
  Histogram latency;
  Histogram corrected;  // from intended start times
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  std::uint64_t envelopes = 0;  // batch envelopes sent
  std::uint64_t frames = 0;     // frames they carried
  std::int64_t fast_path_reads = 0;
  MigrationStats migration;  // zero on one shard
  RebalanceStats rebalance;  // zero without the rebalancer
  std::vector<Shard> shards;

  double msgs_per_op() const {
    return completed > 0 ? static_cast<double>(msgs) /
                               static_cast<double>(completed)
                         : 0;
  }
};

/// Runs one deployment to quiescence (a simulated one on 100-500us
/// links).
inline ShardPoint run_point(Runtime rt, const PointCfg& cfg,
                            std::uint64_t seed) {
  WorkloadParams wp;
  wp.num_ops = cfg.ops;
  wp.read_ratio = cfg.read_ratio;
  wp.value_size = 16;
  wp.num_keys = cfg.num_keys;
  wp.zipf_theta = cfg.zipf_theta;
  wp.target_ops_per_sec = cfg.offered_ops_per_sec / cfg.clients;
  wp.max_in_flight = cfg.max_in_flight;
  wp.seed = seed;

  ClusterBuilder b = Cluster::builder()
                         .servers(kPerShardN)
                         .faults(kPerShardF)
                         .shards(cfg.shards)
                         .clients(cfg.clients)
                         .workload(wp)
                         .service_time(cfg.service_time)
                         .runtime(rt)
                         .seed(seed);
  if (cfg.batch_window > 1) b.batching(cfg.batch_window, cfg.batch_delay);
  if (cfg.rebalance) {
    // Calm controller: long windows with a real sample, settle between
    // rounds (the engine's in-flight guard), and a threshold above the
    // zipf head's indivisible share so it stops once spread.
    RebalanceParams rp;
    rp.period = ms(50);
    rp.skew_threshold = 1.5;
    rp.top_k = 4;
    rp.min_window_ops = 200;
    b.rebalance(rp);
  }
  if (rt == Runtime::kSim) {
    b.uniform_latency(us(100), us(500));
  }
  Cluster c = b.build();

  TimeNs t0 = c.now();
  // Adversarial hotspot: pack the zipf head onto shard 0 while the
  // workload ramps (the handoffs finish within the first few ms of a
  // multi-second run). Racing rebalancer attempts can refuse one; the
  // controller then owns that key's placement, which is the point.
  for (std::uint32_t i = 0; i < cfg.pack_hot; ++i) {
    c.migrate_key(std::string("k").append(std::to_string(i)), 0).get();
  }
  for (std::uint32_t k = 0; k < cfg.clients; ++k) {
    c.workload_done(k).get();
  }
  TimeNs t1 = c.now();
  // The periodic tick would keep the simulator from quiescing (same
  // convention as set_anti_entropy(0) for the anti-entropy timer).
  if (cfg.rebalance) c.rebalancer().stop();
  c.quiesce(seconds(60));

  ShardPoint p;
  p.shards.resize(cfg.shards);
  for (std::uint32_t k = 0; k < cfg.clients; ++k) {
    WorkloadClient& w = c.workload(k);
    p.completed += w.completed();
    p.shed += w.shed();
    p.sum_client_ops_per_sec += w.achieved_ops_per_sec();
    p.latency.merge(w.op_latency());
    p.corrected.merge(w.corrected_op_latency());
    p.envelopes += w.router().batches_sent();
    p.frames += w.router().batched_frames();
    for (ShardId g = 0; g < cfg.shards; ++g) {
      p.shards[g].completed += w.shard_completed(g);
      p.shards[g].latency.merge(w.shard_latency(g));
    }
  }
  for (ShardId g = 0; g < cfg.shards; ++g) {
    p.shards[g].msgs = c.shard_traffic(g).get("msgs");
    p.shards[g].bytes = c.shard_traffic(g).get("bytes");
  }
  p.ops_per_sec = t1 > t0 ? static_cast<double>(p.completed) * 1e9 /
                                static_cast<double>(t1 - t0)
                          : 0;
  p.msgs = c.traffic().get("msgs");
  p.bytes = c.traffic().get("bytes");
  p.fast_path_reads = c.traffic().get("reads.fast_path");
  if (cfg.shards > 1) p.migration = c.migration_stats();
  if (cfg.rebalance) p.rebalance = c.rebalance_stats();
  return p;
}

/// Writes `p` as a row of `t` and each of its shards as a row of
/// `per_shard`; every row starts with the cells `label` writes. The shard
/// rows record no messages: `t`'s row counts them once. Returns `t` with
/// the row open, so a scenario can append its own cells.
template <typename Label>
Report& point_rows(Report& t, Report& per_shard, const ShardPoint& p,
                   Label label) {
  for (std::size_t g = 0; g < p.shards.size(); ++g) {
    const ShardPoint::Shard& s = p.shards[g];
    label(per_shard.row());
    per_shard.num("shard", static_cast<double>(g), 0)
        .num("ops completed", static_cast<double>(s.completed), 0)
        .num("p50 (ms)", s.latency.percentile(50) / 1e6)
        .num("p95 (ms)", s.latency.percentile(95) / 1e6)
        .num("msgs", static_cast<double>(s.msgs), 0)
        .num("bytes", static_cast<double>(s.bytes), 0)
        .num("msgs/op", s.completed > 0 ? static_cast<double>(s.msgs) /
                                              static_cast<double>(s.completed)
                                        : 0);
  }
  label(t.row(p.msgs));
  return t.num("ops completed", static_cast<double>(p.completed), 0)
      .num("ops shed", static_cast<double>(p.shed), 0)
      .num("ops/sec", p.ops_per_sec)
      .num("sum client ops/sec", p.sum_client_ops_per_sec)
      .num("p50 (ms)", p.latency.percentile(50) / 1e6)
      .num("p95 (ms)", p.latency.percentile(95) / 1e6)
      .num("p99 (ms)", p.latency.percentile(99) / 1e6)
      .num("corrected p50 (ms)", p.corrected.percentile(50) / 1e6)
      .num("corrected p95 (ms)", p.corrected.percentile(95) / 1e6)
      .num("corrected p99 (ms)", p.corrected.percentile(99) / 1e6)
      .num("msgs/op", p.msgs_per_op())
      .num("bytes", static_cast<double>(p.bytes), 0)
      .num("fast path reads", static_cast<double>(p.fast_path_reads), 0);
}

inline constexpr char kScaleSweepSetup[] =
    "sharded scale-out: 1, 2 and 4 shards of n=3, f=1 at 1 ms/request; "
    "4 open-loop clients offer 4000 ops/s in all, 600 arrivals each";
inline constexpr char kBatchSweepSetup[] =
    "batched wire protocol: 2 shards at 0.1 ms/request, 2 clients offering "
    "8000 ops/s in all, batch window 1 (unbatched) and 8 (2 ms delay)";

/// EXP-SH1: 1, 2 and 4 shards under the same offered load, one row each;
/// returns the 4-shard point's throughput over the 1-shard point's.
inline double scale_sweep(Runtime rt, std::uint64_t seed, Report& t,
                          Report& per_shard) {
  double base = 0;
  double speedup = 0;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    PointCfg cfg;
    cfg.shards = shards;
    const ShardPoint p = run_point(rt, cfg, seed);
    if (base <= 0) base = p.ops_per_sec;
    speedup = base > 0 ? p.ops_per_sec / base : 0;
    point_rows(t, per_shard, p, [shards](Report& r) {
      r.num("shards", shards, 0);
    }).num("speedup vs first", speedup);
  }
  return speedup;
}

/// EXP-SH3: the batched wire protocol at window 1 (unbatched) and 8, one
/// row each; returns both points.
inline std::vector<ShardPoint> batch_sweep(Runtime rt, std::uint64_t seed,
                                           Report& t, Report& per_shard) {
  std::vector<ShardPoint> points;
  for (std::uint32_t window : {1u, 8u}) {
    PointCfg cfg;
    cfg.shards = kBatchShards;
    cfg.clients = kBatchClients;
    cfg.offered_ops_per_sec = kBatchOfferedOpsPerSec;
    cfg.service_time = kBatchServiceTime;
    cfg.max_in_flight = 64;
    cfg.batch_window = window;
    cfg.batch_delay = window > 1 ? kBatchDelay : 0;
    const ShardPoint& p = points.emplace_back(run_point(rt, cfg, seed));
    const double base = points.front().msgs_per_op();
    point_rows(t, per_shard, p, [window](Report& r) {
      r.num("batch window", window, 0);
    })
        .num("batch envelopes", static_cast<double>(p.envelopes), 0)
        .num("batch frames", static_cast<double>(p.frames), 0)
        .num("msgs/op reduction vs first",
             p.msgs_per_op() > 0 ? base / p.msgs_per_op() : 0);
  }
  return points;
}

}  // namespace wrs::bench
