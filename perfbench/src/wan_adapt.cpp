// wan-adapt: the paper's EXP-A1 under load, on the simulator. Five
// AdaptiveNode servers weighted (1.4, 1.4, 0.8, 0.7, 0.7) sit on the
// continental WAN profile with adaptation on; the heavy servers s0 and s1
// are slowed 25x for the middle half of the timed phase. One client
// offers an open loop of 80% reads over 256 keys, a second client takes
// an 8-key snapshot every 25 ms, and server s2 runs read_changes(s0)
// once per simulated second.
//
// Latencies are simulated time, exact functions of the protocol and the
// seeded WAN jitter; ops_s is simulation throughput (ops per wall second).
#include "quorum/wmqs.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kKeys = 256;
constexpr double kRate = 500;  // ops per simulated second
constexpr TimeNs kWarmup = wrs::seconds(10);
constexpr TimeNs kPre = wrs::seconds(10);     // before the slowdown
constexpr TimeNs kSlow = wrs::seconds(20);    // the slowdown
constexpr TimeNs kPost = wrs::seconds(10);    // after it
constexpr wrs::ProcessId kSlowed[] = {0, 1};
constexpr TimeNs kSnapshotEvery = wrs::ms(25);  // client 1, 8 keys

wrs::WeightMap initial_weights() {
  wrs::WeightMap w;
  w.set(0, wrs::Weight(7, 5));
  w.set(1, wrs::Weight(7, 5));
  w.set(2, wrs::Weight(4, 5));
  w.set(3, wrs::Weight(7, 10));
  w.set(4, wrs::Weight(7, 10));
  return w;
}

Metrics episode(const Args& args, int e, Report& report, Tracer& tracer) {
  Metrics m;
  const std::uint64_t seed = episode_seed(args.seed, e);
  const SetupTimer setup_timer;
  auto history = std::make_shared<History>(64);
  std::unique_ptr<LoadGen> gen;
  std::unique_ptr<wrs::Cluster> cluster;
  {
    Scoped setup(tracer, "api.setup");
    {
      Scoped span(tracer, "api.build", setup.id());
      const std::int64_t b0 = wall_ns();
      wrs::AdaptiveParams params;
      params.probe_interval = wrs::ms(200);
      params.eval_interval = wrs::ms(400);
      params.step = wrs::Weight(1, 10);
      params.slow_factor = 1.5;
      cluster = std::make_unique<wrs::Cluster>(
          wrs::Cluster::builder()
              .servers(5)
              .faults(1)
              .weights(initial_weights())
              .wan(wrs::continental_profile(), /*client_site=*/0)
              .seed(seed)
              .adaptive(params)
              .clients(2));
      m["api.build_ms"] = static_cast<double>(wall_ns() - b0) / 1e6;
    }
    LoadParams p;
    p.clients = {0};
    p.rate_per_client = kRate;
    p.read_ratio = 0.8;
    p.num_keys = kKeys;
    p.value_size = 64;
    p.seed = seed;
    gen = std::make_unique<LoadGen>(*cluster, p, history, tracer);
    {
      Scoped span(tracer, "api.preload", setup.id());
      const std::int64_t p0 = wall_ns();
      gen->preload(64, cluster->now() + wrs::seconds(60));
      m["api.preload_ms"] = static_cast<double>(wall_ns() - p0) / 1e6;
    }
    Scoped span(tracer, "api.warmup", setup.id());
    gen->start(cluster->now() + kWarmup);
    cluster->run_for(kWarmup);
    gen->drain(cluster->now() + wrs::seconds(30));
    gen->clear_samples();
  }
  setup_timer.finish(m);

  wrs::Cluster& c = *cluster;
  const std::uint64_t att0 = gen->attempted();
  const std::uint64_t done0 = gen->completed();
  const PhaseCost cost = begin_cost(c);
  Phase ph;
  ph.start = c.now();
  ph.w0 = ph.start + kPre;
  ph.w1 = ph.w0 + kSlow;
  ph.end = ph.w1 + kPost;

  c.at(ph.w0 - c.now(), [&c] {
    for (wrs::ProcessId s : kSlowed) c.slow(s, 25.0);
  });
  c.at(ph.w1 - c.now(), [&c, &m] {
    // Smallest quorum of the live weights as the slowdown ends.
    m["quorum.min_size_degraded"] = static_cast<double>(
        wrs::Wmqs(c.server(0).weights()).min_quorum_size());
    for (wrs::ProcessId s : kSlowed) c.clear_slow(s);
  });
  // The reassignment layer's read_changes, once per simulated second.
  std::vector<double> read_changes_ms;
  for (TimeNs t = wrs::seconds(1); t < ph.end - ph.start; t += wrs::seconds(1)) {
    c.at(t, [&c, &tracer, &read_changes_ms] {
      Scoped span(tracer, "core.read_changes", tracer.root());
      const TimeNs start = c.now();
      c.server(2).read_changes(0).on_ready(
          [&c, &read_changes_ms, start](const wrs::ChangeSet&) {
            read_changes_ms.push_back(static_cast<double>(c.now() - start) / 1e6);
          });
    });
  }

  gen->start(ph.end);
  gen->start_snapshots(1, kSnapshotEvery, ph.end);
  const std::int64_t wall0 = wall_ns();
  while (c.now() < ph.end) {
    Scoped run(tracer, "runtime.run");
    tracer.set_root(run.id());
    c.run_for(std::min<TimeNs>(wrs::seconds(1), ph.end - c.now()));
  }
  tracer.set_root(0);
  gen->drain(c.now() + wrs::seconds(60));
  const double wall_s = static_cast<double>(wall_ns() - wall0) / 1e9;

  const std::vector<OpSample> ops = gen->ops();
  const std::vector<CutSample> cuts = gen->cuts();
  m["ops_s"] = static_cast<double>(ops.size()) / wall_s;
  latency_metrics(ops, cuts, ph, m);
  m["ok_ratio"] = static_cast<double>(gen->completed() - done0) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, gen->attempted() - att0));
  if (tracer.active()) {
    m["shard.issue_us_p50"] = median(gen->issue_ns()) / 1e3;
  }
  m["core.read_changes_ms_p50"] = median(read_changes_ms);
  double transfers = 0;
  for (wrs::ProcessId s = 0; s < 5; ++s) {
    transfers += static_cast<double>(c.adaptive_node(s).transfers_issued());
  }
  m["monitor.transfers_issued"] = transfers;
  end_cost(c, cost, static_cast<double>(ops.size()),
           static_cast<double>(cuts.size()), tracer, m);

  // Pairwise reassignment never creates or destroys weight.
  const wrs::Weight total = initial_weights().total();
  bool conserved = true;
  for (wrs::ProcessId s = 0; s < 5; ++s) {
    conserved = conserved && c.server(s).weights().total() == total;
  }
  report.check(conserved, "wan-adapt episode " + std::to_string(e) +
                              ": every server's weights sum to " +
                              total.str() + " (" +
                              c.server(0).weights().str() + ")");
  m["peak_rss_mb"] = peak_rss_mb();
  report.check(history->atomic(),
               "wan-adapt episode " + std::to_string(e) +
                   ": history atomic (A1-A4, cuts S1/S2)");
  report.count(gen->attempted(),
               gen->attempted() - gen->completed());
  return m;
}

}  // namespace

Metrics run_wan_adapt(const Args& args, Report& report, Tracer& tracer) {
  return run_episodes(args, tracer, args.trace ? 4 : 3,
                      [&](int e) { return episode(args, e, report, tracer); });
}

}  // namespace perfbench
