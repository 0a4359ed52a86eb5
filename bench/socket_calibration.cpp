// EXP-NET1: sim-vs-real calibration of the socket runtime.
//
// Replays the EXP-SH3 scenario (2 shards x 3 servers, 100us modeled
// service time, open-loop offered load, batched and unbatched wire
// protocol) twice:
//
//  * REAL: two forked wrs-node server processes on loopback TCP, driven
//    by socket workload clients — wall-clock time, real serialization,
//    real kernel round trips; wire bytes/op measured from the frames
//    that actually crossed the socket.
//  * SIM:  the same deployment on the deterministic simulator, with a
//    latency model in the loopback range — the model's prediction.
//
// Methodology: the M/D/1 service-time model bounds per-shard capacity at
// 1/service_time on both substrates, and the offered rate sits below
// that bound, so predicted and achieved throughput should agree closely;
// latency percentiles differ by scheduling noise and the latency-model
// fit. Every runtime charges a message's encoded frame size, so the sim
// and the socket count the same bytes per message and bytes/op differs
// only where msgs/op does (retransmits, batch fill). The run FAILS
// (exit 1) if achieved throughput or bytes/op is off the prediction by
// more than 2x — the acceptance band CI gates on — and always records
// both sides plus the ratios in BENCH_socket_calibration.json.
#include "bench_util.h"

#ifdef __linux__
#include <memory>
#include <vector>

#include "api/await.h"
#include "deploy/node_runner.h"
#include "net/socket_addr.h"
#include "runtime/socket_env.h"
#include "shard/shard_map.h"
#endif

using namespace wrs;
using namespace wrs::bench;

namespace {

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kPerShardN = 3;
constexpr std::uint32_t kPerShardF = 1;
constexpr std::uint32_t kClients = 2;
constexpr std::size_t kOpsPerClient = 1500;
constexpr double kOfferedOpsPerSec = 3000;  // well under 2 * 1/100us
constexpr TimeNs kServiceTime = us(100);
constexpr std::uint64_t kSeed = 7;

struct PhaseResult {
  double ops_per_sec = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double msgs_per_op = 0;
  double bytes_per_op = 0;
  std::size_t completed = 0;
};

WorkloadParams make_params() {
  WorkloadParams wp;
  wp.num_ops = kOpsPerClient;
  wp.read_ratio = 0.5;
  wp.value_size = 16;
  wp.num_keys = 512;
  wp.target_ops_per_sec = kOfferedOpsPerSec / kClients;
  wp.max_in_flight = 32;
  wp.seed = kSeed;
  return wp;
}

/// The simulator's prediction for one batch window.
PhaseResult run_sim(std::size_t batch_window) {
  ClusterBuilder b = Cluster::builder()
                         .servers(kPerShardN)
                         .faults(kPerShardF)
                         .shards(kShards)
                         .clients(kClients)
                         .workload(make_params())
                         .service_time(kServiceTime)
                         .runtime(Runtime::kSim)
                         // Loopback-range delays: tens of microseconds.
                         .uniform_latency(us(10), us(80))
                         .seed(kSeed);
  if (batch_window > 1) b.batching(batch_window, ms(1));
  Cluster c = b.build();

  TimeNs t0 = c.now();
  for (std::uint32_t k = 0; k < kClients; ++k) {
    c.workload_done(k).get();
  }
  TimeNs t1 = c.now();
  c.quiesce(seconds(60));

  PhaseResult r;
  Histogram lat;
  for (std::uint32_t k = 0; k < kClients; ++k) {
    r.completed += c.workload(k).completed();
    lat.merge(c.workload(k).op_latency());
  }
  r.ops_per_sec = t1 > t0 ? static_cast<double>(r.completed) * 1e9 /
                                static_cast<double>(t1 - t0)
                          : 0;
  r.p50_ms = lat.percentile(50) / 1e6;
  r.p95_ms = lat.percentile(95) / 1e6;
  r.p99_ms = lat.percentile(99) / 1e6;
  if (r.completed > 0) {
    r.msgs_per_op = static_cast<double>(c.traffic().get("msgs")) /
                    static_cast<double>(r.completed);
    r.bytes_per_op = static_cast<double>(c.traffic().get("bytes")) /
                     static_cast<double>(r.completed);
  }
  return r;
}

#ifdef __linux__

/// The same scenario against real forked server processes.
PhaseResult run_sockets(std::size_t batch_window,
                        const std::vector<deploy::SpawnedNode>& groups) {
  ShardMap map = ShardMap::uniform(kShards, kPerShardN, kPerShardF);
  SocketEnv::Options eo;
  eo.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
  eo.seed = kSeed;
  SocketEnv env(eo);
  for (std::uint32_t g = 0; g < kShards; ++g) {
    for (ProcessId s : map.servers(g)) {
      env.add_route(s, net::SocketAddr::parse(groups[g].addr));
    }
  }

  WorkloadParams wp = make_params();
  std::vector<std::unique_ptr<WorkloadClient>> clients;
  std::vector<Await<bool>> done;
  for (std::uint32_t k = 0; k < kClients; ++k) {
    auto c = std::make_unique<WorkloadClient>(env, client_id(k), map, wp);
    c->router().set_retry_interval(ms(100));
    if (batch_window > 1) c->router().set_batching(batch_window, ms(1));
    Await<bool> aw;
    c->set_on_done([aw] { aw.fulfill(true); });
    env.register_process(client_id(k), c.get());
    clients.push_back(std::move(c));
    done.push_back(aw);
  }

  TimeNs t0_wall = env.now();
  env.start();
  for (auto& aw : done) aw.get(seconds(300));
  TimeNs t1_wall = env.now();

  PhaseResult r;
  Histogram lat;
  for (std::uint32_t k = 0; k < kClients; ++k) {
    r.completed += clients[k]->completed();
    lat.merge(clients[k]->op_latency());
  }
  r.ops_per_sec = t1_wall > t0_wall
                      ? static_cast<double>(r.completed) * 1e9 /
                            static_cast<double>(t1_wall - t0_wall)
                      : 0;
  r.p50_ms = lat.percentile(50) / 1e6;
  r.p95_ms = lat.percentile(95) / 1e6;
  r.p99_ms = lat.percentile(99) / 1e6;
  if (r.completed > 0) {
    // Real wire traffic seen by this env: frames out plus frames in
    // (server replies), in actually-encoded bytes.
    double msgs = static_cast<double>(env.traffic().get("msgs") +
                                      env.traffic().get("msgs.in"));
    double bytes = static_cast<double>(env.traffic().get("bytes") +
                                       env.traffic().get("bytes.in"));
    r.msgs_per_op = msgs / static_cast<double>(r.completed);
    r.bytes_per_op = bytes / static_cast<double>(r.completed);
  }
  env.stop();
  return r;
}

#endif  // __linux__

void report_phase(JsonReport& report, const std::string& substrate,
                  std::size_t batch_window, const PhaseResult& r) {
  report.row()
      .field("substrate", substrate)
      .field("batch_window", static_cast<double>(batch_window))
      .field("shards", static_cast<double>(kShards))
      .field("servers_per_shard", static_cast<double>(kPerShardN))
      .field("service_time_ms", to_ms(kServiceTime))
      .field("offered_ops_per_sec", kOfferedOpsPerSec)
      .field("ops_completed", static_cast<double>(r.completed))
      .field("ops_per_sec", r.ops_per_sec)
      .field("p50_ms", r.p50_ms)
      .field("p95_ms", r.p95_ms)
      .field("p99_ms", r.p99_ms)
      .field("wire_msgs_per_op", r.msgs_per_op)
      .field("wire_bytes_per_op", r.bytes_per_op);
}

double ratio(double real, double predicted) {
  if (predicted <= 0) return 0;
  return real / predicted;
}

}  // namespace

int main() {
  banner("EXP-NET1", "socket runtime calibration vs simulator prediction");

#ifndef __linux__
  note("socket runtime requires Linux; recording sim prediction only");
  JsonReport report("EXP-NET1 socket calibration");
  report.seed(kSeed);
  report_phase(report, "sim", 1, run_sim(1));
  report.write("BENCH_socket_calibration.json");
  return 0;
#else
  // Fork every server process before anything in this process starts a
  // thread (the SocketEnvs and the sim phases come after).
  std::vector<deploy::SpawnedNode> groups;
  for (std::uint32_t g = 0; g < kShards; ++g) {
    deploy::NodeOptions opts;
    opts.shard = g;
    opts.num_shards = kShards;
    opts.servers_per_shard = kPerShardN;
    opts.faults = kPerShardF;
    opts.service_time = kServiceTime;
    opts.retry = ms(20);
    opts.seed = kSeed + g;
    groups.push_back(deploy::spawn_node_group(opts));
    note("shard " + std::to_string(g) + " -> " + groups.back().addr);
  }

  JsonReport report("EXP-NET1 socket calibration");
  report.seed(kSeed);
  Table table({"batch", "substrate", "ops/s", "p50 ms", "p95 ms", "p99 ms",
               "bytes/op"});
  bool within_band = true;

  for (std::size_t window : {std::size_t{1}, std::size_t{8}}) {
    PhaseResult real = run_sockets(window, groups);
    PhaseResult sim = run_sim(window);
    report_phase(report, "socket", window, real);
    report_phase(report, "sim", window, sim);

    double tput_ratio = ratio(real.ops_per_sec, sim.ops_per_sec);
    double bytes_ratio = ratio(real.bytes_per_op, sim.bytes_per_op);
    double p50_ratio = ratio(real.p50_ms, sim.p50_ms);
    report.row()
        .field("substrate", std::string("calibration"))
        .field("batch_window", static_cast<double>(window))
        .field("throughput_ratio", tput_ratio)
        .field("bytes_per_op_ratio", bytes_ratio)
        .field("p50_ratio", p50_ratio)
        .field("p99_ratio", ratio(real.p99_ms, sim.p99_ms));

    for (const auto& [name, r] :
         {std::pair<std::string, PhaseResult>{"socket", real},
          std::pair<std::string, PhaseResult>{"sim", sim}}) {
      table.add_row({std::to_string(window), name, Table::fmt(r.ops_per_sec),
                     Table::fmt(r.p50_ms), Table::fmt(r.p95_ms),
                     Table::fmt(r.p99_ms), Table::fmt(r.bytes_per_op)});
    }
    note("batch=" + std::to_string(window) +
         ": throughput ratio " + Table::fmt(tput_ratio) +
         ", bytes/op ratio " + Table::fmt(bytes_ratio) + ", p50 ratio " +
         Table::fmt(p50_ratio));

    // The acceptance band: real within 2x of predicted, both directions.
    if (tput_ratio < 0.5 || tput_ratio > 2.0 || bytes_ratio < 0.5 ||
        bytes_ratio > 2.0) {
      within_band = false;
    }
  }
  table.print();

  for (const auto& g : groups) deploy::stop_node_group(g);
  bool wrote = report.write("BENCH_socket_calibration.json");
  if (!within_band) {
    note("CALIBRATION OUT OF BAND: real deviates from prediction by > 2x");
    return 1;
  }
  return wrote ? 0 : 1;
#endif
}
