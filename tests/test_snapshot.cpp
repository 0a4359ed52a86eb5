// Cross-shard atomic snapshots (ShardRouter::snapshot + the
// ClientHandle verb):
//
//   * a quiet deployment: one double-collect (2 rounds, no fallback)
//     returns exactly the written values, across shards, in key order;
//   * input hygiene: empty key list, duplicate keys, unwritten keys;
//   * cuts race concurrent writers and stay consistent (the history
//     checker's S1/S2 cut conditions over recorded snapshots);
//   * the fenced fallback engages under relentless same-key write
//     pressure once the collect budget is exhausted — and its cut is
//     still consistent;
//   * chaos: snapshots racing a MigrationStorm + Nemesis link faults on
//     BOTH runtimes, every cut validated by check_atomicity.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "storage/history.h"
#include "testing/nemesis.h"

namespace wrs {
namespace {

std::vector<RegisterKey> keyset(std::size_t count) {
  std::vector<RegisterKey> keys;
  for (std::size_t i = 0; i < count; ++i) keys.push_back("k" + std::to_string(i));
  return keys;
}

// --- quiet-path cuts --------------------------------------------------------

TEST(Snapshot, QuietCutReturnsWrittenValuesAcrossShards) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(4)
                  .runtime(Runtime::kSim)
                  .build();
  auto keys = keyset(8);
  std::vector<std::pair<RegisterKey, Value>> puts;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    puts.emplace_back(keys[i], "v" + std::to_string(i));
  }
  when_all(c.client().write_batch(puts)).get();

  ShardRouter::SnapshotResult r = c.client().snapshot(keys).get();
  ASSERT_EQ(r.cut.size(), keys.size());
  EXPECT_EQ(r.rounds, 2u);  // one clean double-collect
  EXPECT_FALSE(r.used_fallback);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(r.cut[i].first, keys[i]) << "cut preserves request key order";
    EXPECT_EQ(r.cut[i].second.value, "v" + std::to_string(i));
  }
  EXPECT_EQ(c.client().router().snapshots_taken(), 1u);
  EXPECT_EQ(c.client().router().snapshot_fallbacks(), 0u);
}

TEST(Snapshot, HandlesEmptyDuplicateAndUnwrittenKeys) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .runtime(Runtime::kSim)
                  .build();
  // Empty request: an empty cut, no wire traffic.
  EXPECT_TRUE(c.client().snapshot({}).get().cut.empty());

  c.client().write("a", "1").get();
  // Duplicates collapse; unwritten keys report the initial register.
  auto r = c.client().snapshot({"a", "b", "a"}).get();
  ASSERT_EQ(r.cut.size(), 2u);
  EXPECT_EQ(r.cut[0].first, "a");
  EXPECT_EQ(r.cut[0].second.value, "1");
  EXPECT_EQ(r.cut[1].first, "b");
  EXPECT_EQ(r.cut[1].second.tag, kInitialTag);
}

// --- cuts racing writers ----------------------------------------------------

TEST(Snapshot, CutsUnderConcurrentWritersStayConsistent) {
  // A closed-loop workload that folds a 4-key snapshot into the stream
  // after every 5 completed ops; every cut is recorded and checked.
  WorkloadParams wp;
  wp.num_ops = 60;
  wp.read_ratio = 0.3;
  wp.num_keys = 6;
  wp.snapshot_every_ops = 5;
  wp.snapshot_keys = 4;
  wp.seed = 7;

  auto history = std::make_shared<HistoryRecorder>();
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .clients(2)
                  .workload(wp)
                  .history(history)
                  .runtime(Runtime::kSim)
                  .build();
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(60)).has_value());
    EXPECT_GT(c.workload(k).snapshots_done(), 0u);
    EXPECT_EQ(c.workload(k).snapshots_done(), c.workload(k).snapshots_issued());
  }
  c.quiesce();
  auto err = check_atomicity(history->completed());
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(Snapshot, FallbackEngagesUnderWritePressure) {
  // Two collect rounds can never agree while an open-loop writer hammers
  // the snapshotted keys, so the fenced fallback must take the cut.
  WorkloadParams wp;
  wp.num_ops = 400;
  wp.read_ratio = 0.0;  // writers only
  wp.num_keys = 2;
  wp.target_ops_per_sec = 4000;  // open loop: relentless pressure
  wp.max_in_flight = 16;
  wp.seed = 11;

  auto history = std::make_shared<HistoryRecorder>();
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .clients(2)
                  .workload(wp)
                  .history(history)
                  .runtime(Runtime::kSim)
                  .build();

  testing::SnapshotStormParams ssp;
  ssp.start = ms(20);
  ssp.horizon = ms(120);
  ssp.attempts = 6;
  ssp.num_keys = 2;
  ssp.keys_per_snapshot = 2;
  // The storm issues from every client round-robin; each gets the tight
  // collect budget before the first cut is scheduled.
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    c.client(k).router().set_snapshot_max_collect_rounds(2);
  }
  testing::SnapshotStorm snaps(c, 13, ssp, history);
  snaps.unleash();

  for (int round = 0; round < 200 && snaps.completed() < ssp.attempts;
       ++round) {
    c.run_for(ms(25));
  }
  ASSERT_EQ(snaps.completed(), ssp.attempts)
      << "snapshots stuck (fallback wait-freedom)";
  EXPECT_GT(snaps.fallbacks(), 0u)
      << "write pressure never exhausted the collect budget — the "
         "fallback path went unexercised";

  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(60)).has_value())
        << "frozen keys never drained parked writes";
  }
  c.quiesce();
  auto err = check_atomicity(history->completed());
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(Snapshot, ContendingSnapshottersDoNotLivelock) {
  // Regression: four clients each fold 8-key cuts into a capacity-bound
  // open-loop workload over the SAME 64 keys, so their fallback fences
  // constantly collide. An aborted fallback used to re-freeze
  // immediately — contending snapshotters then killed each other's
  // fences in lockstep and no cut ever resolved (surfaced by the
  // EXP-SNAP bench). The seeded jittered backoff desynchronizes them;
  // every issued cut must resolve once the workload drains.
  WorkloadParams wp;
  wp.num_ops = 600;
  wp.read_ratio = 0.5;
  wp.num_keys = 64;
  wp.target_ops_per_sec = 1000;  // 4x1000 offered vs ~2000 capacity
  wp.max_in_flight = 32;
  wp.seed = 20260727;
  wp.snapshot_every_ops = 25;
  wp.snapshot_keys = 8;

  ClusterBuilder b = Cluster::builder()
                         .servers(3)
                         .faults(1)
                         .shards(4)
                         .clients(4)
                         .workload(wp)
                         .service_time(ms(1))
                         .runtime(Runtime::kSim)
                         .seed(20260727);
  b.uniform_latency(us(100), us(500));
  Cluster c = b.build();
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(120)).has_value())
        << "client " << k << " wedged with "
        << c.workload(k).snapshots_done() << "/"
        << c.workload(k).snapshots_issued() << " snapshots resolved";
  }
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    EXPECT_GT(c.workload(k).snapshots_issued(), 0u);
    EXPECT_EQ(c.workload(k).snapshots_done(),
              c.workload(k).snapshots_issued());
  }
}

// --- chaos: snapshots vs migrations vs link faults --------------------------

void expect_snapshot_chaos_consistent(Runtime rt, std::uint64_t seed) {
  const TimeNs horizon = ms(300);
  const std::size_t num_keys = 8;

  WorkloadParams wp;
  wp.num_ops = 40;
  wp.read_ratio = 0.4;
  wp.value_size = 8;
  wp.num_keys = num_keys;
  wp.target_ops_per_sec = 300;
  wp.max_in_flight = 8;
  wp.seed = seed;

  auto history = std::make_shared<HistoryRecorder>();
  Cluster c = Cluster::builder()
                  .servers(3)
                  .faults(1)
                  .shards(3)
                  .clients(2)
                  .workload(wp)
                  .history(history)
                  .uniform_latency(us(200), ms(2))
                  .retry(ms(10))
                  .anti_entropy(ms(25))
                  .runtime(rt)
                  .seed(seed)
                  .build();

  // Keys hop shards while snapshots scan them: every mid-migration
  // window must flag the collect round (frozen/moved) instead of
  // leaking a torn cut.
  testing::MigrationStormParams msp;
  msp.horizon = horizon;
  msp.attempts = 40;
  msp.num_keys = num_keys;
  testing::MigrationStorm mig(c, seed ^ 0x9e3779b97f4a7c15ull, msp);
  mig.unleash();

  testing::SnapshotStormParams ssp;
  ssp.horizon = horizon;
  ssp.attempts = 10;
  ssp.num_keys = num_keys;
  ssp.keys_per_snapshot = 4;
  testing::SnapshotStorm snaps(c, seed + 1, ssp, history);
  snaps.unleash();

  testing::NemesisParams np;
  np.horizon = horizon;
  np.events = 5;
  np.crash_budget = 0;  // the storms already contend; keep quorums whole
  np.drop_p_max = 0.3;
  testing::Nemesis nemesis(c, seed + 2, np);
  nemesis.unleash();

  c.run_for(horizon + ms(80));
  for (int round = 0; round < 200 && (snaps.completed() < ssp.attempts ||
                                      mig.completed() < msp.attempts);
       ++round) {
    c.run_for(ms(25));
  }
  ASSERT_EQ(snaps.completed(), ssp.attempts) << "snapshots stuck (liveness)";
  ASSERT_EQ(mig.completed(), msp.attempts) << "migrations stuck (liveness)";
  EXPECT_GT(c.migration_stats().committed, 0u);

  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(30)).has_value())
        << "workload client #" << k << " never finished";
  }

  c.set_anti_entropy(0);
  c.quiesce(seconds(120));
  auto err = check_atomicity(history->completed());
  EXPECT_FALSE(err.has_value())
      << "seed=" << seed << " runtime=" << (rt == Runtime::kSim ? "sim" : "threads")
      << ": " << *err;
}

TEST(SnapshotChaos, SimCutsSurviveMigrationStorm) {
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_snapshot_chaos_consistent(Runtime::kSim, seed);
  }
}

TEST(SnapshotChaos, ThreadCutsSurviveMigrationStorm) {
  expect_snapshot_chaos_consistent(Runtime::kThread, 404);
}

}  // namespace
}  // namespace wrs
