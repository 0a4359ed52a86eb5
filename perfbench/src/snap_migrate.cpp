// snap-migrate: snapshots racing live migrations, on the simulator.
// 4 shards x 3 servers with a 1 ms modeled service time; four open-loop
// clients read and write 50/50 over 64 hot keys and each takes an 8-key
// snapshot() after every 25 completed ops. During the middle half of the
// timed phase the migration engine moves one key to the next shard every
// 100 ms (a fixed schedule), so same-key FIFO waits, snapshot fences and
// MigFreeze fences all contend.
//
// The offered rate sits well below the collapse point. Past it, the
// snapshots' fenced fallbacks abort each other for good and ops on the
// fenced keys never complete: at 150 ops/s per client 2 of 24 seeded
// episodes stalled, at 125 ops/s 2 of 379, at 100 and 75 ops/s none of
// about 1300 and 1400.
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kKeys = 64;
constexpr std::uint32_t kShards = 4;
constexpr double kRate = 75;  // ops per simulated second per client
constexpr TimeNs kWarmup = wrs::seconds(20);
constexpr TimeNs kPre = wrs::seconds(5);
constexpr TimeNs kMigrating = wrs::seconds(10);
constexpr TimeNs kPost = wrs::seconds(5);
constexpr TimeNs kMigrationEvery = wrs::ms(100);

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
      cluster = std::make_unique<wrs::Cluster>(
          wrs::Cluster::builder()
              .servers(3)
              .shards(kShards)
              .clients(4)
              .service_time(wrs::ms(1))
              .uniform_latency(wrs::ms(1), wrs::ms(10))
              .retry(wrs::ms(250))
              .seed(seed));
      m["api.build_ms"] = static_cast<double>(wall_ns() - b0) / 1e6;
    }
    LoadParams p;
    p.clients = {0, 1, 2, 3};
    p.rate_per_client = kRate;
    p.read_ratio = 0.5;
    p.num_keys = kKeys;
    p.value_size = 64;
    p.snapshot_every = 25;
    p.snapshot_keys = 8;
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
  ph.w1 = ph.w0 + kMigrating;
  ph.end = ph.w1 + kPost;

  // The migration schedule: key k(7i mod 64) to the next shard.
  wrs::MigrationEngine& eng = c.migration_engine();
  std::vector<double> migrate_ms;
  std::size_t migrations = 0, migrated = 0;
  for (TimeNs at = ph.w0; at < ph.w1; at += kMigrationEvery, ++migrations) {
    const std::string key = key_name((migrations * 7) % kKeys);
    c.env().schedule(eng.pid(), at - c.now(), [&, key] {
      Scoped span(tracer, "rebalance.migrate", tracer.root());
      const TimeNs start = c.now();
      const wrs::ShardId to = (eng.owner_of(key) + 1) % kShards;
      eng.migrate(key, to, [&, start](bool ok) {
        migrate_ms.push_back(static_cast<double>(c.now() - start) / 1e6);
        migrated += ok ? 1 : 0;
      });
    });
  }

  gen->start(ph.end);
  const std::int64_t wall0 = wall_ns();
  while (c.now() < ph.end) {
    Scoped run(tracer, "runtime.run");
    tracer.set_root(run.id());
    c.run_for(std::min<TimeNs>(wrs::seconds(1), ph.end - c.now()));
  }
  tracer.set_root(0);
  gen->drain(c.now() + wrs::seconds(60));
  wait_until(c, [&] { return migrate_ms.size() == migrations; },
             c.now() + wrs::seconds(60));
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
  m["rebalance.migrate_ms_p50"] = median(migrate_ms);
  end_cost(c, cost, static_cast<double>(ops.size()),
           static_cast<double>(cuts.size()), tracer, m);

  const std::string tag = "snap-migrate episode " + std::to_string(e);
  report.check(migrated == migrations,
               tag + ": " + std::to_string(migrated) + "/" +
                   std::to_string(migrations) + " migrations committed");
  m["peak_rss_mb"] = peak_rss_mb();
  report.check(history->atomic(),
               tag + ": history atomic (A1-A4, cuts S1/S2)");
  report.count(gen->attempted(),
               gen->attempted() - gen->completed());
  return m;
}

}  // namespace

Metrics run_snap_migrate(const Args& args, Report& report, Tracer& tracer) {
  return run_episodes(args, tracer, args.trace ? 4 : 3,
                      [&](int e) { return episode(args, e, report, tracer); });
}

}  // namespace perfbench
