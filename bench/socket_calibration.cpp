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
using bench::banner;
using bench::note;
using bench::Report;

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

void report_phase(Report& report, const std::string& substrate,
                  std::size_t batch_window, const PhaseResult& r) {
  report.row()
      .text("substrate", substrate)
      .num("batch window", static_cast<double>(batch_window), 0)
      .num("ops completed", static_cast<double>(r.completed), 0)
      .num("ops/sec", r.ops_per_sec)
      .num("p50 (ms)", r.p50_ms)
      .num("p95 (ms)", r.p95_ms)
      .num("p99 (ms)", r.p99_ms)
      .num("wire msgs/op", r.msgs_per_op)
      .num("wire bytes/op", r.bytes_per_op);
}

double ratio(double real, double predicted) {
  if (predicted <= 0) return 0;
  return real / predicted;
}

}  // namespace

int main() {
  banner("EXP-NET1", "socket runtime calibration vs simulator prediction");
  note("the EXP-SH3 deployment: " + std::to_string(kShards) + " shards of " +
       std::to_string(kPerShardN) + " servers at " +
       Table::fmt(to_ms(kServiceTime), 1) + " ms/request, " +
       Table::fmt(kOfferedOpsPerSec, 0) + " ops/s offered");
  Report phases("EXP-NET1 socket calibration");

#ifndef __linux__
  note("socket runtime requires Linux; recording sim prediction only");
  report_phase(phases, "sim", 1, run_sim(1));
  phases.print();
  phases.write("BENCH_socket_calibration.json", kSeed);
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

  Report ratios("EXP-NET1 calibration ratios", "\nsocket / sim:");
  bool within_band = true;

  for (std::size_t window : {std::size_t{1}, std::size_t{8}}) {
    PhaseResult real = run_sockets(window, groups);
    PhaseResult sim = run_sim(window);
    report_phase(phases, "socket", window, real);
    report_phase(phases, "sim", window, sim);

    double tput_ratio = ratio(real.ops_per_sec, sim.ops_per_sec);
    double bytes_ratio = ratio(real.bytes_per_op, sim.bytes_per_op);
    ratios.row()
        .num("batch window", static_cast<double>(window), 0)
        .num("throughput ratio", tput_ratio)
        .num("bytes/op ratio", bytes_ratio)
        .num("p50 ratio", ratio(real.p50_ms, sim.p50_ms))
        .num("p99 ratio", ratio(real.p99_ms, sim.p99_ms));

    // The acceptance band: real within 2x of predicted, both directions.
    if (tput_ratio < 0.5 || tput_ratio > 2.0 || bytes_ratio < 0.5 ||
        bytes_ratio > 2.0) {
      within_band = false;
    }
  }
  phases.print();
  ratios.print();

  for (const auto& g : groups) deploy::stop_node_group(g);
  bool wrote = phases.write("BENCH_socket_calibration.json", kSeed);
  wrote = ratios.write("BENCH_socket_calibration.json", kSeed) && wrote;
  if (!within_band) {
    note("CALIBRATION OUT OF BAND: real deviates from prediction by > 2x");
    return 1;
  }
  return wrote ? 0 : 1;
#endif
}
