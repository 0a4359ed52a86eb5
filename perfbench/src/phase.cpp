// Per-layer readings shared by the workloads, and the episode loop of
// the simulator workloads.
#include "quorum/wmqs.h"
#include "runtime/msg_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Sums of the router and server counters the per-layer metrics use.
struct LayerCounters {
  double restarts = 0;
  double retransmits = 0;
  double redirects = 0;
  double fence_parked = 0;
  double snap_fences = 0;
};

LayerCounters read_counters(wrs::Cluster& cluster) {
  LayerCounters c;
  for (std::size_t k = 0; k < cluster.num_clients(); ++k) {
    wrs::ClientHandle h = cluster.client(k);
    wrs::ShardRouter* r = &h.router();
    run_in(cluster, h.id(), [&c, r] {
      c.restarts += static_cast<double>(r->restarts());
      c.retransmits += static_cast<double>(r->retransmits());
      c.redirects += static_cast<double>(r->redirects());
    });
  }
  for (wrs::ProcessId s : cluster.all_server_ids()) {
    wrs::AbdServer* srv = &cluster.storage_node(s).server();
    run_in(cluster, s, [&c, srv] {
      c.fence_parked += static_cast<double>(srv->frozen_parked());
      c.snap_fences += static_cast<double>(srv->snap_fences_installed());
    });
  }
  return c;
}

}  // namespace

PhaseCost begin_cost(wrs::Cluster& cluster) {
  PhaseCost b;
  b.traffic_before = cluster.traffic();
  LayerCounters c = read_counters(cluster);
  b.restarts = c.restarts;
  b.retransmits = c.retransmits;
  b.redirects = c.redirects;
  b.fence_parked = c.fence_parked;
  b.snap_fences = c.snap_fences;
  b.cpu_before = cpu_seconds();
  return b;
}

void end_cost(wrs::Cluster& cluster, const PhaseCost& b, double ops,
              double cuts, Tracer& tracer, Metrics& m) {
  const double cpu = cpu_seconds() - b.cpu_before;
  const wrs::Counters after = cluster.traffic();
  const LayerCounters c = read_counters(cluster);
  ops = std::max(ops, 1.0);
  cuts = std::max(cuts, 1.0);
  const wrs::Counters& before = b.traffic_before;

  m["runtime.cpu_us_per_op"] = cpu * 1e6 / ops;
  m["runtime.msgs_per_op"] = delta(after, before, "msgs") / ops;
  m["net.bytes_per_op"] = delta(after, before, "bytes") / ops;
  m["shard.snap_msgs_per_cut"] =
      (delta(after, before, "msg.SNAP") + delta(after, before, "msg.SNAP_A") +
       delta(after, before, "msg.SNAP_FRZ") +
       delta(after, before, "msg.SNAP_REL")) /
      cuts;
  m["storage.restarts_per_op"] = (c.restarts - b.restarts) / ops;
  m["storage.retransmits_per_op"] = (c.retransmits - b.retransmits) / ops;
  m["shard.redirects_per_op"] = (c.redirects - b.redirects) / ops;
  m["storage.fence_parked"] = c.fence_parked - b.fence_parked;
  m["storage.snap_fences"] = c.snap_fences - b.snap_fences;

  const wrs::MsgPool::Stats pool = wrs::MsgPool::instance().stats();
  m["runtime.pool_heap_allocs"] = static_cast<double>(pool.heap_allocs);
  m["runtime.pool_slabs"] = static_cast<double>(pool.slabs);
  if (cluster.num_shards() > 1) {
    m["rebalance.refused"] =
        static_cast<double>(cluster.migration_stats().refused);
  }

  const wrs::WeightMap weights =
      cluster.server(0).weights_snapshot().get(wrs::seconds(10));
  if (!m.count("quorum.min_size_degraded")) {
    m["quorum.min_size_degraded"] =
        static_cast<double>(wrs::Wmqs(weights).min_quorum_size());
  }

  if (!tracer.active()) return;
  // Probes timed by the benchmark itself: the codec on this phase's
  // storage frame mix, and the quorum check on shard 0's live weights.
  wrs::Counters mix;
  for (const char* key : {"msg.R", "msg.R_A", "msg.W", "msg.W_A"}) {
    mix.inc(key, static_cast<std::int64_t>(delta(after, before, key)));
  }
  const CodecCost codec = codec_cost(
      mix, 64, static_cast<std::uint32_t>(cluster.servers_per_shard()),
      tracer);
  m["net.encode_ns_per_frame"] = codec.encode_ns;
  m["net.decode_ns_per_frame"] = codec.decode_ns;
  m["quorum.is_quorum_ns"] = is_quorum_ns(weights, tracer);
}

SetupTimer::SetupTimer()
    : ref_before_ms_(reference_ms()), start_ns_(wall_ns()) {}

void SetupTimer::finish(Metrics& m) const {
  constexpr double kReferenceMs = 30;
  const double wall_s = static_cast<double>(wall_ns() - start_ns_) / 1e9;
  const double ref_ms = (ref_before_ms_ + reference_ms()) / 2;
  m["api.setup_wall_s"] = wall_s;
  m["setup_s"] = wall_s * kReferenceMs / ref_ms;
}

std::uint64_t episode_seed(std::uint64_t seed, int episode) {
  return seed * 1000003ull + static_cast<std::uint64_t>(episode) * 7919ull + 1;
}

Metrics run_episodes(const Args& args, Tracer& tracer, int min_episodes,
                     const std::function<Metrics(int episode)>& episode) {
  const std::int64_t t_end =
      process_start_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<Metrics> runs;
  for (int e = 0; e < 200 && (e < min_episodes || wall_ns() < t_end); ++e) {
    const bool traced = tracer.enabled() && e % 2 == 0;
    tracer.set_active(traced);
    Metrics m = episode(e);
    tracer.set_active(false);
    std::cout << "[" << args.workload << " episode " << e
              << (traced ? ", traced" : "") << "]";
    for (const char* k : {"setup_s", "api.setup_wall_s", "ops_s", "ok_ratio", "op_p50_ms",
                          "op_p99_ms", "degraded_p99_ms", "recovery_s",
                          "snap_p50_ms", "snap_p99_ms"}) {
      if (m.count(k)) std::cout << " " << k << "=" << m.at(k);
    }
    std::cout << "\n";
    if (traced) {
      m["ops_s_traced"] = m["ops_s"];
      m.erase("ops_s");
    }
    runs.push_back(std::move(m));
  }
  Metrics out = median_over(runs);
  // The process peak and the MsgPool counters are process-wide and only
  // grow from episode to episode, so a median over a speed-dependent
  // episode count would drift; the first episode's reading is the same
  // every run.
  for (const char* k :
       {"peak_rss_mb", "runtime.pool_heap_allocs", "runtime.pool_slabs"}) {
    if (runs.front().count(k)) out[k] = runs.front().at(k);
  }
  if (tracer.enabled() && out.count("ops_s") && out.count("ops_s_traced")) {
    out["trace.overhead_pct"] =
        (1.0 - out["ops_s_traced"] / out["ops_s"]) * 100.0;
  }
  return out;
}

}  // namespace perfbench
