// EXP-SH1/SH2: sharded keyspace scale-out. EXP-SH3: batched wire
// protocol.
//
// EXP-SH1 sweeps 1 -> 8 shards at FIXED per-shard cluster size (n=3,
// f=1) under a fixed aggregate offered load, on both runtimes. Every
// storage server models a serial per-request service time
// (Cluster::Builder::service_time, an M/D/1-style busy-until queue —
// think SSD access or a CPU-bound storage engine), so one shard has a
// finite capacity of roughly (1/service_time)/2 ops/s: a write costs
// every group server one R and one W request (a read whose phase-1
// quorum is unanimous skips the W, so reads cost less). Adding shards
// multiplies that capacity — the measured near-linear aggregate-
// throughput scaling is the system's behavior against the modeled
// per-node bottleneck, independent of the benchmarking host's core count.
//
// Reported per (runtime, shard count):
//   * aggregate row — completed ops, achieved ops/s, shed arrivals,
//     p50/p95/p99 latency (plus coordinated-omission-corrected
//     percentiles from intended-start times), total msgs/bytes,
//     msgs/op, speedup vs the 1-shard run;
//   * one row per shard — ops routed there, per-shard p50/p95, and the
//     shard's msgs/bytes from the runtime's per-shard traffic counters.
//
// EXP-SH2 repeats the 4-shard sim point with Zipfian key popularity
// (theta = 0.99) to show skewed-load imbalance across shards.
//
// EXP-SH3 sweeps the batched wire protocol's window (--batch, default
// 1,8) at 2 shards under a lighter service time (0.1ms, so the point is
// offered-load- rather than capacity-bound and frames genuinely
// coalesce): batching(w, 2ms) must cut msgs/op by ~w while atomicity,
// throughput, and the modeled per-frame CPU stay unchanged.
//
// EXP-SH3R runs one read-heavy point (read ratio 0.9, 1 shard,
// unbatched): reads whose phase-1 quorum is unanimous complete in one
// round, so msgs/op falls well below a write's 12.
//
// EXP-SNAP measures cross-shard atomic snapshots at 4 shards. The quiet
// point issues sequential ClientHandle::snapshot() cuts against a
// written keyspace — every cut must be a clean double collect (exactly
// 2 rounds, no fallback), which pins the per-cut message budget. The
// mixed point races cuts against the open-loop write workload on the
// same keys (WorkloadParams::snapshot_every_ops) and reports realized
// rounds/cut, fenced-fallback rate, and cut latency.
//
//   shard_scaleout [--json <path>] [--ops <per-client arrivals>]
//                  [--runtime sim|threads|both] [--shards 1,2,4,8]
//                  [--batch 1,8]
//
// The binary gates its own results and exits nonzero when one fails (each
// gate prints its value and bound; thresholds live in check_gates()):
// SH1 1->4-shard speedup, SH3 batch-8/batch-1 msgs/op and the threads
// batch-1 throughput floor, SH2R rebalanced speedup, the SH3R msgs/op
// budget and one-round read count, and the EXP-SNAP budgets. A gate
// whose runs were left out (--runtime other than both, --shards without
// 1 and 4, --batch without 1 and 8) fails as missing.
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace wrs::bench {
namespace {

constexpr std::uint64_t kSeed = 20260727;
constexpr std::uint32_t kPerShardN = 3;
constexpr std::uint32_t kPerShardF = 1;
constexpr std::uint32_t kClients = 4;
constexpr TimeNs kServiceTime = ms(1);
constexpr double kOfferedOpsPerSec = 4000;  // aggregate, across clients

// EXP-SH3: the batching point must not be capacity-bound (a saturated
// shard throttles the per-client frame rate and with it the coalescing
// opportunity), so it runs 2 shards at 0.1ms/request under 8000 ops/s
// aggregate — ~0.8 per-server utilization — with a 2ms batch window.
constexpr std::uint32_t kBatchShards = 2;
constexpr std::uint32_t kBatchClients = 2;
constexpr TimeNs kBatchServiceTime = us(100);
constexpr double kBatchOfferedOpsPerSec = 8000;
constexpr TimeNs kBatchDelay = ms(2);

/// One deployment's knobs (EXP-SH1/SH2 scale shards; EXP-SH3 scales the
/// batch window at fixed shards).
struct PointCfg {
  std::uint32_t shards = 1;
  std::size_t ops = 2000;  // per-client arrivals
  double zipf_theta = 0;
  std::uint32_t clients = kClients;
  double offered_ops_per_sec = kOfferedOpsPerSec;
  TimeNs service_time = kServiceTime;
  std::size_t max_in_flight = 32;
  std::uint32_t batch_window = 1;  // 1 = unbatched wire protocol
  TimeNs batch_delay = 0;
  std::size_t num_keys = 512;
  /// EXP-SH2R: pre-migrate the `pack_hot` hottest keys ("k0"..) onto
  /// shard 0 before measuring — the adversarial placement a hash map can
  /// stumble into (FNV anti-clusters consecutive small keys, so the
  /// natural map never concentrates the zipf head; a rebalancer's worst
  /// case has to be constructed).
  std::uint32_t pack_hot = 0;
  bool rebalance = false;  ///< run the skew-triggered rebalancer
  double read_ratio = 0.5;
};

struct SweepPoint {
  std::uint32_t shards = 1;
  double ops_per_sec = 0;
  std::size_t completed = 0;
  double msgs_per_op = 0;
  double corrected_p99_ms = 0;
  double fast_path_reads = 0;  ///< reads completed in one round
};

/// Swept points keyed by (runtime, shard count or batch window).
using Sweep = std::map<std::pair<Runtime, std::uint32_t>, SweepPoint>;

/// `field` of point `num` over point `den` of one runtime's sweep;
/// nullopt when either point was not run.
std::optional<double> ratio(const Sweep& sweep, Runtime rt, std::uint32_t num,
                            std::uint32_t den, double SweepPoint::*field) {
  auto a = sweep.find({rt, num});
  auto b = sweep.find({rt, den});
  if (a == sweep.end() || b == sweep.end() || b->second.*field <= 0) {
    return std::nullopt;
  }
  return a->second.*field / b->second.*field;
}

/// The quiet and mixed EXP-SNAP points' gated results.
struct SnapPoint {
  double issued = 0;
  double done = 0;
  double fallbacks = 0;
  double rounds_per_cut = 0;
  double msgs_per_cut = 0;
};

std::string runtime_name(Runtime rt) {
  return rt == Runtime::kSim ? "sim" : "threads";
}

/// One deployment; returns the achieved aggregate throughput and msgs/op
/// and appends its rows to `report`.
SweepPoint run_point(Runtime rt, const PointCfg& cfg, JsonReport& report) {
  WorkloadParams wp;
  wp.num_ops = cfg.ops;
  wp.read_ratio = cfg.read_ratio;
  wp.value_size = 16;
  wp.num_keys = cfg.num_keys;
  wp.zipf_theta = cfg.zipf_theta;
  wp.target_ops_per_sec = cfg.offered_ops_per_sec / cfg.clients;
  wp.max_in_flight = cfg.max_in_flight;
  wp.seed = kSeed;

  ClusterBuilder b = Cluster::builder()
                         .servers(kPerShardN)
                         .faults(kPerShardF)
                         .shards(cfg.shards)
                         .clients(cfg.clients)
                         .workload(wp)
                         .service_time(cfg.service_time)
                         .runtime(rt)
                         .seed(kSeed);
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
  // multi-second run). Racing rebalancer attempts can refuse one — the
  // controller then owns that key's placement, which is the point.
  for (std::uint32_t i = 0; i < cfg.pack_hot; ++i) {
    c.migrate_key("k" + std::to_string(i), 0).get();
  }
  for (std::uint32_t k = 0; k < cfg.clients; ++k) {
    c.workload_done(k).get();
  }
  TimeNs t1 = c.now();
  // The periodic tick would keep the simulator from quiescing (same
  // convention as set_anti_entropy(0) for the anti-entropy timer).
  if (cfg.rebalance) c.rebalancer().stop();
  c.quiesce(seconds(60));

  SweepPoint point;
  point.shards = cfg.shards;
  Histogram latency;
  Histogram corrected;
  std::size_t shed = 0;
  double sum_client_rate = 0;
  std::uint64_t envelopes = 0, frames = 0;
  std::vector<std::size_t> shard_ops(cfg.shards, 0);
  std::vector<Histogram> shard_latency(cfg.shards);
  for (std::uint32_t k = 0; k < cfg.clients; ++k) {
    WorkloadClient& w = c.workload(k);
    point.completed += w.completed();
    shed += w.shed();
    sum_client_rate += w.achieved_ops_per_sec();
    latency.merge(w.op_latency());
    corrected.merge(w.corrected_op_latency());
    envelopes += w.router().batches_sent();
    frames += w.router().batched_frames();
    for (ShardId g = 0; g < cfg.shards; ++g) {
      shard_ops[g] += w.shard_completed(g);
      shard_latency[g].merge(w.shard_latency(g));
    }
  }
  point.ops_per_sec = t1 > t0 ? static_cast<double>(point.completed) * 1e9 /
                                    static_cast<double>(t1 - t0)
                              : 0;
  if (point.completed > 0) {
    point.msgs_per_op = static_cast<double>(c.traffic().get("msgs")) /
                        static_cast<double>(point.completed);
  }
  point.corrected_p99_ms = corrected.percentile(99) / 1e6;
  point.fast_path_reads =
      static_cast<double>(c.traffic().get("reads.fast_path"));

  for (ShardId g = 0; g < cfg.shards; ++g) {
    const Counters& t = c.shard_traffic(g);
    report.shard_row(g)
        .field("runtime", runtime_name(rt))
        .field("shards", static_cast<double>(cfg.shards))
        .field("zipf_theta", cfg.zipf_theta)
        .field("batch_window", static_cast<double>(cfg.batch_window))
        .field("ops_completed", static_cast<double>(shard_ops[g]))
        .field("p50_ms",
               shard_latency[g].empty()
                   ? 0.0
                   : shard_latency[g].percentile(50) / 1e6)
        .field("p95_ms",
               shard_latency[g].empty()
                   ? 0.0
                   : shard_latency[g].percentile(95) / 1e6)
        .counters(t);
  }

  // The aggregate row is opened LAST so the caller can append
  // cross-point fields (the speedup) to it.
  report.shard_row(-1)
      .field("runtime", runtime_name(rt))
      .field("shards", static_cast<double>(cfg.shards))
      .field("servers_per_shard", static_cast<double>(kPerShardN))
      .field("clients", static_cast<double>(cfg.clients))
      .field("service_time_ms", to_ms(cfg.service_time))
      .field("offered_ops_per_sec", cfg.offered_ops_per_sec)
      .field("zipf_theta", cfg.zipf_theta)
      .field("batch_window", static_cast<double>(cfg.batch_window))
      .field("batch_delay_ms", to_ms(cfg.batch_delay))
      .field("batch_envelopes", static_cast<double>(envelopes))
      .field("batch_frames", static_cast<double>(frames))
      .field("ops_completed", static_cast<double>(point.completed))
      .field("ops_shed", static_cast<double>(shed))
      .field("ops_per_sec", point.ops_per_sec)
      .field("sum_client_ops_per_sec", sum_client_rate)
      .field("p50_ms", latency.percentile(50) / 1e6)
      .field("p95_ms", latency.percentile(95) / 1e6)
      .field("p99_ms", latency.percentile(99) / 1e6)
      .field("corrected_p50_ms", corrected.percentile(50) / 1e6)
      .field("corrected_p95_ms", corrected.percentile(95) / 1e6)
      .field("corrected_p99_ms", point.corrected_p99_ms)
      .field("msgs", static_cast<double>(c.traffic().get("msgs")))
      .field("bytes", static_cast<double>(c.traffic().get("bytes")))
      .field("num_keys", static_cast<double>(cfg.num_keys))
      .field("packed_hot_keys", static_cast<double>(cfg.pack_hot))
      .field("rebalance", cfg.rebalance ? 1.0 : 0.0)
      .field("read_ratio", cfg.read_ratio)
      .field("fast_path_reads", point.fast_path_reads);
  if (cfg.shards > 1) {
    MigrationStats mig = c.migration_stats();
    report.field("migrations_committed", static_cast<double>(mig.committed));
    report.field("map_epoch", static_cast<double>(mig.epoch));
  }
  if (cfg.rebalance) {
    RebalanceStats rbs = c.rebalance_stats();
    report.field("rebalance_rounds", static_cast<double>(rbs.rounds));
    report.field("rebalance_skewed", static_cast<double>(rbs.skewed));
    report.field("rebalance_moved", static_cast<double>(rbs.moved));
  }
  return point;
}

void sweep(Runtime rt, const std::vector<std::uint32_t>& shard_counts,
           std::size_t ops, JsonReport& report, Table& table, Sweep& out) {
  double base = 0;
  for (std::uint32_t shards : shard_counts) {
    PointCfg cfg;
    cfg.shards = shards;
    cfg.ops = ops;
    SweepPoint p = run_point(rt, cfg, report);
    out[{rt, shards}] = p;
    if (base <= 0) base = p.ops_per_sec;
    double speedup = base > 0 ? p.ops_per_sec / base : 0;
    // Lands on the aggregate ("all") row, which run_point opened last.
    report.field("speedup_vs_first", speedup);
    table.add_row({runtime_name(rt), std::to_string(shards),
                   std::to_string(p.completed), Table::fmt(p.ops_per_sec),
                   Table::fmt(speedup)});
  }
}

void batch_sweep(Runtime rt, const std::vector<std::uint32_t>& windows,
                 std::size_t ops, JsonReport& report, Table& table,
                 Sweep& out) {
  double base_msgs_per_op = 0;
  for (std::uint32_t window : windows) {
    PointCfg cfg;
    cfg.shards = kBatchShards;
    cfg.ops = ops;
    cfg.clients = kBatchClients;
    cfg.offered_ops_per_sec = kBatchOfferedOpsPerSec;
    cfg.service_time = kBatchServiceTime;
    cfg.max_in_flight = 64;
    cfg.batch_window = window;
    // The window-1 baseline runs genuinely unbatched; recording the
    // sweep's delay on its row would mislabel the artifact.
    cfg.batch_delay = window > 1 ? kBatchDelay : 0;
    SweepPoint p = run_point(rt, cfg, report);
    out[{rt, window}] = p;
    if (base_msgs_per_op <= 0) base_msgs_per_op = p.msgs_per_op;
    double reduction =
        p.msgs_per_op > 0 ? base_msgs_per_op / p.msgs_per_op : 0;
    report.field("msgs_per_op_reduction_vs_first", reduction);
    table.add_row({runtime_name(rt), std::to_string(window),
                   std::to_string(p.completed), Table::fmt(p.ops_per_sec),
                   Table::fmt(p.msgs_per_op), Table::fmt(reduction)});
  }
}

/// Every threshold this bench enforces, evaluated over the runs it made.
bool check_gates(const Sweep& scale, const Sweep& batch,
                 double rebalanced_speedup, const SweepPoint& readheavy,
                 const SnapPoint& quiet, const SnapPoint& mixed) {
  banner("gates", "thresholds on the runs above");
  bool ok = true;
  for (Runtime rt : {Runtime::kSim, Runtime::kThread}) {
    ok &= gate("EXP-SH1 " + runtime_name(rt) + " 1->4 shard speedup",
               ratio(scale, rt, 4, 1, &SweepPoint::ops_per_sec), ">=", 1.5);
  }
  for (Runtime rt : {Runtime::kSim, Runtime::kThread}) {
    ok &= gate("EXP-SH3 " + runtime_name(rt) + " batch-8/batch-1 msgs/op",
               ratio(batch, rt, 8, 1, &SweepPoint::msgs_per_op), "<=", 0.5);
  }
  std::optional<double> floor_ops, floor_p99;
  if (auto it = batch.find({Runtime::kThread, 1}); it != batch.end()) {
    floor_ops = it->second.ops_per_sec;
    floor_p99 = it->second.corrected_p99_ms;
  }
  ok &= gate("EXP-SH3 threads batch-1 ops/s", floor_ops, ">=", 7000);
  ok &= gate("EXP-SH3 threads batch-1 corrected p99 ms", floor_p99, "<", 50);
  ok &= gate("EXP-SH2R rebalanced/static ops/s", rebalanced_speedup, ">=", 2);
  ok &= gate("EXP-SH3R msgs/op", readheavy.msgs_per_op, "<=", 7);
  ok &= gate("EXP-SH3R fast_path_reads", readheavy.fast_path_reads, ">", 0);
  ok &= gate("EXP-SNAP quiet cuts issued", quiet.issued, ">", 0);
  ok &= gate("EXP-SNAP quiet cuts done", quiet.done, "==", quiet.issued);
  ok &= gate("EXP-SNAP quiet fallbacks", quiet.fallbacks, "==", 0);
  ok &= gate("EXP-SNAP quiet rounds/cut", quiet.rounds_per_cut, "==", 2);
  ok &= gate("EXP-SNAP quiet msgs/cut", quiet.msgs_per_cut, ">", 0);
  ok &= gate("EXP-SNAP quiet msgs/cut", quiet.msgs_per_cut, "<=", 96);
  ok &= gate("EXP-SNAP mixed cuts issued", mixed.issued, ">", 0);
  ok &= gate("EXP-SNAP mixed cuts done", mixed.done, "==", mixed.issued);
  ok &= gate("EXP-SNAP mixed rounds/cut", mixed.rounds_per_cut, ">=", 2);
  return ok;
}

std::vector<std::uint32_t> parse_list(const char* arg) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    out.push_back(
        static_cast<std::uint32_t>(std::strtoul(tok.c_str(), nullptr, 10)));
  }
  return out;
}

}  // namespace
}  // namespace wrs::bench

int main(int argc, char** argv) {
  using namespace wrs;
  using namespace wrs::bench;

  std::string json = json_path(argc, argv);
  std::size_t ops = 2000;
  std::string runtime = "both";
  std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};
  std::vector<std::uint32_t> batch_windows = {1, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--runtime") == 0 && i + 1 < argc) {
      runtime = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts = parse_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch_windows = parse_list(argv[++i]);
    }
  }
  bool run_sim = runtime == "sim" || runtime == "both";
  bool run_threads = runtime == "threads" || runtime == "both";

  banner("EXP-SH1", "sharded keyspace scale-out (fixed per-shard size n=" +
                        std::to_string(kPerShardN) + ", service time " +
                        std::to_string(to_ms(kServiceTime)) + "ms/request)");
  note("offered load " + Table::fmt(kOfferedOpsPerSec) +
       " ops/s across " + std::to_string(kClients) +
       " open-loop clients; capacity ~= shards * (1/service_time)/2");

  Table table({"runtime", "shards", "ops", "ops/s", "speedup"});
  JsonReport scaleout("EXP-SH1 shard scale-out");
  scaleout.seed(kSeed);
  Sweep scale;
  if (run_sim) sweep(Runtime::kSim, shard_counts, ops, scaleout, table, scale);
  if (run_threads) {
    sweep(Runtime::kThread, shard_counts, ops, scaleout, table, scale);
  }
  table.print();

  banner("EXP-SH2", "zipfian key popularity across shards (theta=0.99)");
  JsonReport zipf("EXP-SH2 zipfian shard skew");
  zipf.seed(kSeed);
  {
    Table zt({"shards", "zipf", "ops", "ops/s"});
    PointCfg cfg;
    cfg.shards = 4;
    cfg.ops = ops;
    cfg.zipf_theta = 0.99;
    SweepPoint p = run_point(Runtime::kSim, cfg, zipf);
    zt.add_row({"4", "0.99", std::to_string(p.completed),
                Table::fmt(p.ops_per_sec)});
    zt.print();
    note("per-shard ops in the JSON rows show the skew (hottest keys "
         "concentrate on their shards)");
  }

  banner("EXP-SH2R",
         "elastic resharding of an adversarial hotspot (4 shards, "
         "theta=0.99, 64 keys, zipf head packed onto one shard)");
  note("the 24 hottest keys (~4/5 of the zipf mass) are migrated onto "
       "shard 0 up front; the static point then holds the map fixed "
       "(hot-shard-bound), the rebalanced point lets the controller "
       "disperse them — gated at rebalanced/static ops/s >= 2x");
  JsonReport resharded("EXP-SH2R rebalanced zipfian hotspot");
  resharded.seed(kSeed);
  double rebalanced_speedup = 0;
  {
    Table rbt({"mode", "ops", "ops/s", "moved", "speedup"});
    PointCfg cfg;
    cfg.shards = 4;
    // 8x the sweep's per-client arrivals: the controller's detect +
    // disperse ramp is a fixed ~300ms, so the measured average needs a
    // long post-rebalance tail to reflect the steady state.
    cfg.ops = ops * 8;
    cfg.zipf_theta = 0.99;
    cfg.num_keys = 64;
    cfg.pack_hot = 24;
    SweepPoint st = run_point(Runtime::kSim, cfg, resharded);
    resharded.field("speedup_rebalanced_vs_static", 1.0);
    cfg.rebalance = true;
    SweepPoint rb = run_point(Runtime::kSim, cfg, resharded);
    double speedup = st.ops_per_sec > 0 ? rb.ops_per_sec / st.ops_per_sec : 0;
    resharded.field("speedup_rebalanced_vs_static", speedup);
    rebalanced_speedup = speedup;
    rbt.add_row({"static", std::to_string(st.completed),
                 Table::fmt(st.ops_per_sec), "0", "1.00"});
    rbt.add_row({"rebalanced", std::to_string(rb.completed),
                 Table::fmt(rb.ops_per_sec), "-", Table::fmt(speedup)});
    rbt.print();
  }

  banner("EXP-SH3",
         "batched wire protocol (" + std::to_string(kBatchShards) +
             " shards, service time " + std::to_string(to_ms(kBatchServiceTime)) +
             "ms/request, batch delay " + std::to_string(to_ms(kBatchDelay)) +
             "ms)");
  note("same-shard phase broadcasts coalesce into BatchRequest envelopes; "
       "msgs/op should fall ~linearly with the realized batch size while "
       "throughput holds (per-frame M/D/1 service cost)");
  JsonReport batched("EXP-SH3 batched wire protocol");
  batched.seed(kSeed);
  Sweep batch;
  {
    Table bt({"runtime", "batch", "ops", "ops/s", "msgs/op", "reduction"});
    if (run_sim) {
      batch_sweep(Runtime::kSim, batch_windows, ops, batched, bt, batch);
    }
    if (run_threads) {
      batch_sweep(Runtime::kThread, batch_windows, ops, batched, bt, batch);
    }
    bt.print();
  }

  banner("EXP-SH3R",
         "read-heavy one-round reads (read ratio 0.9, unbatched)");
  note("a read whose phase-1 quorum unanimously reports the max tag "
       "skips the write-back, so msgs/op falls toward half of a write's");
  JsonReport readheavy("EXP-SH3R one-round reads");
  readheavy.seed(kSeed);
  SweepPoint heavy;
  {
    Table rt({"runtime", "ops", "ops/s", "msgs/op", "p50 ms",
              "1-round reads"});
    PointCfg cfg;
    cfg.shards = 1;
    cfg.ops = ops;
    cfg.read_ratio = 0.9;
    heavy = run_point(Runtime::kSim, cfg, readheavy);
    rt.add_row({"sim", std::to_string(heavy.completed),
                Table::fmt(heavy.ops_per_sec), Table::fmt(heavy.msgs_per_op),
                Table::fmt(readheavy.last_field("p50_ms"), 2),
                Table::fmt(heavy.fast_path_reads, 0)});
    rt.print();
  }

  banner("EXP-SNAP",
         "cross-shard atomic snapshots (4 shards, 8 keys/cut)");
  note("quiet: sequential snapshot() cuts over a written keyspace — a "
       "clean double collect is exactly 2 rounds and pins msgs/cut; "
       "mixed: cuts race the open-loop write workload on the same keys");
  JsonReport snapshots("EXP-SNAP atomic snapshots");
  snapshots.seed(kSeed);
  SnapPoint quiet, mixed;
  {
    constexpr std::uint32_t kSnapShards = 4;
    constexpr std::size_t kSnapKeysPerCut = 8;
    constexpr std::size_t kSnapKeyspace = 64;
    Table st({"mode", "cuts", "rounds/cut", "fallbacks", "msgs/cut",
              "p50 ms", "p99 ms"});

    {  // Quiet point: sequential cuts, nothing else in flight.
      constexpr std::size_t kQuietCuts = 32;
      ClusterBuilder b = Cluster::builder()
                             .servers(kPerShardN)
                             .faults(kPerShardF)
                             .shards(kSnapShards)
                             .clients(1)
                             .runtime(Runtime::kSim)
                             .seed(kSeed);
      b.uniform_latency(us(100), us(500));
      Cluster c = b.build();
      std::vector<std::pair<RegisterKey, Value>> puts;
      for (std::size_t i = 0; i < kSnapKeyspace; ++i) {
        puts.emplace_back(std::string("k").append(std::to_string(i)),
                          std::string("v").append(std::to_string(i)));
      }
      for (auto& aw : c.client(0).write_batch(std::move(puts))) aw.get();

      std::uint64_t msgs0 = c.traffic().get("msgs");
      Histogram lat;
      std::uint64_t rounds = 0;
      std::size_t fallbacks = 0;
      for (std::size_t i = 0; i < kQuietCuts; ++i) {
        // Rotate through the keyspace so cuts cross every shard.
        std::vector<RegisterKey> keys;
        for (std::size_t j = 0; j < kSnapKeysPerCut; ++j) {
          keys.push_back(std::string("k").append(std::to_string(
              (i * kSnapKeysPerCut + j) % kSnapKeyspace)));
        }
        TimeNs t0 = c.now();
        ShardRouter::SnapshotResult r =
            c.client(0).snapshot(std::move(keys)).get();
        lat.add_time(c.now() - t0);
        rounds += r.rounds;
        if (r.used_fallback) ++fallbacks;
      }
      double msgs_per_cut =
          static_cast<double>(c.traffic().get("msgs") - msgs0) / kQuietCuts;
      double rounds_per_cut = static_cast<double>(rounds) / kQuietCuts;
      quiet = {static_cast<double>(kQuietCuts),
               static_cast<double>(kQuietCuts),
               static_cast<double>(fallbacks), rounds_per_cut, msgs_per_cut};
      snapshots.row()
          .field("mode", std::string("quiet"))
          .field("runtime", std::string("sim"))
          .field("shards", static_cast<double>(kSnapShards))
          .field("keys_per_cut", static_cast<double>(kSnapKeysPerCut))
          .field("num_keys", static_cast<double>(kSnapKeyspace))
          .field("snapshots_issued", static_cast<double>(kQuietCuts))
          .field("snapshots_done", static_cast<double>(kQuietCuts))
          .field("fallbacks", static_cast<double>(fallbacks))
          .field("rounds_per_cut", rounds_per_cut)
          .field("msgs_per_cut", msgs_per_cut)
          .field("p50_ms", lat.percentile(50) / 1e6)
          .field("p95_ms", lat.percentile(95) / 1e6)
          .field("p99_ms", lat.percentile(99) / 1e6);
      st.add_row({"quiet", std::to_string(kQuietCuts),
                  Table::fmt(rounds_per_cut), std::to_string(fallbacks),
                  Table::fmt(msgs_per_cut), Table::fmt(lat.percentile(50) / 1e6),
                  Table::fmt(lat.percentile(99) / 1e6)});
    }

    {  // Mixed point: cuts race the open-loop write workload.
      WorkloadParams wp;
      wp.num_ops = ops;
      wp.read_ratio = 0.5;
      wp.value_size = 16;
      wp.num_keys = kSnapKeyspace;
      wp.target_ops_per_sec = kOfferedOpsPerSec / kClients;
      wp.max_in_flight = 32;
      wp.seed = kSeed;
      wp.snapshot_every_ops = 25;
      wp.snapshot_keys = kSnapKeysPerCut;
      ClusterBuilder b = Cluster::builder()
                             .servers(kPerShardN)
                             .faults(kPerShardF)
                             .shards(kSnapShards)
                             .clients(kClients)
                             .workload(wp)
                             .service_time(kServiceTime)
                             .runtime(Runtime::kSim)
                             .seed(kSeed);
      b.uniform_latency(us(100), us(500));
      Cluster c = b.build();
      for (std::uint32_t k = 0; k < kClients; ++k) {
        c.workload_done(k).get();
      }
      c.quiesce(seconds(60));
      std::size_t issued = 0, done = 0, fallbacks = 0, completed = 0;
      std::uint64_t rounds = 0;
      Histogram lat;
      for (std::uint32_t k = 0; k < kClients; ++k) {
        WorkloadClient& w = c.workload(k);
        issued += w.snapshots_issued();
        done += w.snapshots_done();
        fallbacks += w.snapshot_fallbacks();
        rounds += w.snapshot_rounds();
        completed += w.completed();
        lat.merge(w.snapshot_latency());
      }
      double rounds_per_cut =
          done > 0 ? static_cast<double>(rounds) / static_cast<double>(done)
                   : 0;
      mixed = {static_cast<double>(issued), static_cast<double>(done),
               static_cast<double>(fallbacks), rounds_per_cut, 0};
      snapshots.row()
          .field("mode", std::string("mixed"))
          .field("runtime", std::string("sim"))
          .field("shards", static_cast<double>(kSnapShards))
          .field("keys_per_cut", static_cast<double>(kSnapKeysPerCut))
          .field("num_keys", static_cast<double>(kSnapKeyspace))
          .field("offered_ops_per_sec", kOfferedOpsPerSec)
          .field("ops_completed", static_cast<double>(completed))
          .field("snapshots_issued", static_cast<double>(issued))
          .field("snapshots_done", static_cast<double>(done))
          .field("fallbacks", static_cast<double>(fallbacks))
          .field("rounds_per_cut", rounds_per_cut)
          .field("p50_ms", lat.percentile(50) / 1e6)
          .field("p95_ms", lat.percentile(95) / 1e6)
          .field("p99_ms", lat.percentile(99) / 1e6);
      st.add_row({"mixed", std::to_string(done), Table::fmt(rounds_per_cut),
                  std::to_string(fallbacks), "-",
                  Table::fmt(lat.percentile(50) / 1e6),
                  Table::fmt(lat.percentile(99) / 1e6)});
    }
    st.print();
  }

  bool ok = true;
  if (!json.empty()) {
    ok = scaleout.write(json);
    ok = zipf.write(json) && ok;
    ok = resharded.write(json) && ok;
    ok = batched.write(json) && ok;
    ok = readheavy.write(json) && ok;
    ok = snapshots.write(json) && ok;
  }
  ok = check_gates(scale, batch, rebalanced_speedup, heavy, quiet, mixed) &&
       ok;
  return ok ? 0 : 1;
}
