// Cross-shard atomic snapshots (ShardRouter::snapshot + the
// ClientHandle verb):
//
//   * a quiet deployment: one double-collect (2 rounds, no fallback)
//     returns exactly the written values, across shards, in key order;
//   * input hygiene: empty key list, duplicate keys, unwritten keys;
//   * cuts race concurrent writers and stay consistent (the history
//     checker's S1/S2 cut conditions over recorded snapshots);
//   * collect rounds fed by hand: a moved key is re-collected at its
//     new owner inside its round, and a flagged key leaves the other
//     keys' observations standing;
//   * the fenced fallback engages under relentless same-key write
//     pressure once the collect budget is exhausted — and its cut is
//     still consistent;
//   * chaos: snapshots racing a MigrationStorm + Nemesis link faults on
//     BOTH runtimes, every cut validated by check_atomicity.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "runtime/sim_env.h"
#include "storage/abd_server.h"
#include "storage/history.h"
#include "test_util.h"
#include "testing/nemesis.h"

namespace wrs {
namespace {

std::vector<RegisterKey> keyset(std::size_t count) {
  std::vector<RegisterKey> keys;
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back(std::string("k").append(std::to_string(i)));
  }
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
    puts.emplace_back(keys[i], std::string("v").append(std::to_string(i)));
  }
  when_all(c.client().write_batch(puts)).get();

  ShardRouter::SnapshotResult r = c.client().snapshot(keys).get();
  ASSERT_EQ(r.cut.size(), keys.size());
  EXPECT_EQ(r.rounds, 2u);  // one clean double-collect
  EXPECT_FALSE(r.used_fallback);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(r.cut[i].first, keys[i]) << "cut preserves request key order";
    EXPECT_EQ(r.cut[i].second.value,
              std::string("v").append(std::to_string(i)));
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
  // Collect rounds can never agree while an open-loop writer hammers the
  // snapshotted keys, so once the collect budget (six rounds) runs out
  // the fenced fallback must take the cut.
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
  // constantly collide. Fences that aborted each other used to kill
  // contending snapshotters in lockstep until no cut resolved (surfaced
  // by the EXP-SNAP bench). Ranked fences order them instead: a freeze
  // behind a higher-ranked snapshot waits, and the highest-ranked one
  // never does, so every issued cut must resolve once the workload
  // drains.
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

void expect_snap_migrate_race_live(std::uint64_t seed) {
  // 4 clients at 150 ops/s over 64 keys, each folding an 8-key cut into
  // every 25 ops, while one key moves to the next shard every 100 ms.
  const std::size_t num_keys = 64;
  const TimeNs load = seconds(12);
  WorkloadParams wp;
  wp.num_ops = 150 * 12;
  wp.read_ratio = 0.5;
  wp.num_keys = num_keys;
  wp.target_ops_per_sec = 150;
  wp.max_in_flight = 256;
  wp.snapshot_every_ops = 25;
  wp.snapshot_keys = 8;
  wp.seed = seed;

  auto history = std::make_shared<HistoryRecorder>();
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(4)
                  .clients(4)
                  .workload(wp)
                  .history(history)
                  .service_time(ms(1))
                  .uniform_latency(ms(1), ms(10))
                  .retry(ms(250))
                  .runtime(Runtime::kSim)
                  .seed(seed)
                  .build();
  MigrationEngine& eng = c.migration_engine();
  const auto keys = keyset(num_keys);
  std::size_t scheduled = 0, finished = 0, committed = 0;
  for (TimeNs at = ms(100); at < load; at += ms(100), ++scheduled) {
    const RegisterKey& key = keys[(scheduled * 7) % num_keys];
    c.env().schedule(eng.pid(), at, [&, key] {
      eng.migrate(key, (eng.owner_of(key) + 1) % 4, [&](bool ok) {
        ++finished;
        committed += ok ? 1 : 0;
      });
    });
  }
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(30)).has_value())
        << "client " << k << " stalled: " << c.workload(k).completed()
        << " ops, " << c.workload(k).snapshots_done() << "/"
        << c.workload(k).snapshots_issued() << " cuts";
    EXPECT_EQ(c.workload(k).completed(), wp.num_ops);
    EXPECT_EQ(c.workload(k).snapshots_done(),
              c.workload(k).snapshots_issued());
  }
  for (int round = 0; round < 400 && finished < scheduled; ++round) {
    c.run_for(ms(25));
  }
  EXPECT_EQ(committed, scheduled) << "migrations committed";
  c.quiesce();
  auto err = check_atomicity(history->completed());
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(Snapshot, MigrationRaceAtCollapseRateStaysLive) {
  // The snap-migrate collapse: at 150 ops/s per client, aborting
  // fallbacks used to stall cuts and the ops parked behind their fences
  // for good. These seeds all stalled that way; ranked fences that park
  // instead of aborting keep every op, cut and migration live.
  for (std::uint64_t seed : {10u, 19u, 54u, 65u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_snap_migrate_race_live(seed);
  }
}

// --- fence policy: one 3-server group driven message by message ----------

/// Three AbdServers of one group on the simulator, and a client process
/// that sends raw fence rounds and records every ack by op id.
class FenceGroup : public Process {
 public:
  struct Ack {
    ProcessId from;
    bool held;
    std::vector<SnapEntry> entries;
  };

  FenceGroup() {
    for (ProcessId s = 0; s < 3; ++s) {
      hosts_[s].server = std::make_unique<AbdServer>(env_, s, nullptr);
      env_.register_process(s, &hosts_[s]);
    }
    env_.register_process(client_id(0), this);
    client_host_.client = &client_;
    env_.register_process(client_id(1), &client_host_);
    env_.start();
  }

  void on_message(ProcessId from, const Message& m) override {
    if (const auto* a = msg_cast<SnapAck>(m)) {
      acks_[a->op_id()].push_back(Ack{from, a->held(), a->entries()});
    } else if (const auto* r = msg_cast<ReadAck>(m)) {
      acks_[r->op_id()].push_back(Ack{from, true, {}});
    } else if (const auto* w = msg_cast<WriteAck>(m)) {
      acks_[w->op_id()].push_back(Ack{from, true, {}});
    }
  }

  void run_for(TimeNs d) { env_.run_until(env_.now() + d); }
  /// Lets the group settle (well inside the snapshot fence lease).
  void settle() { run_for(ms(20)); }
  void crash(ProcessId s) { env_.crash(s); }
  LinkFaults& faults() { return env_.faults(); }
  void send(ProcessId s, MsgPtr m) {
    env_.send(client_id(0), s, std::move(m));
    settle();
  }
  void broadcast(MsgPtr m) {
    for (ProcessId s = 0; s < 3; ++s) env_.send(client_id(0), s, m);
    settle();
  }
  void freeze(OpId op, SnapId snap, std::vector<RegisterKey> keys) {
    broadcast(std::make_shared<SnapFreeze>(op, snap, std::move(keys)));
  }
  void release(OpId op, SnapId snap, std::vector<SnapEntry> installs) {
    broadcast(std::make_shared<SnapRelease>(op, snap, std::move(installs)));
  }

  const std::vector<Ack>& acks(OpId op) { return acks_[op]; }
  /// A real snapshot client of the group (at client_id(1)).
  AbdClient& client() { return client_; }
  AbdServer& server(ProcessId s) { return *hosts_[s].server; }
  std::size_t fenced(const RegisterKey& key) {
    std::size_t n = 0;
    for (ProcessId s = 0; s < 3; ++s) n += server(s).fenced(key) ? 1 : 0;
    return n;
  }

 private:
  struct Host : Process {
    std::unique_ptr<AbdServer> server;
    void on_message(ProcessId from, const Message& m) override {
      server->handle(from, m);
    }
  };
  struct ClientHost : Process {
    AbdClient* client = nullptr;
    void on_message(ProcessId from, const Message& m) override {
      client->handle(from, m);
    }
  };
  SimEnv env_{std::make_shared<ConstantLatency>(ms(1)), 1};
  std::array<Host, 3> hosts_;
  AbdClient client_{env_, client_id(1), SystemConfig::uniform(3, 1)};
  ClientHost client_host_;
  std::map<OpId, std::vector<Ack>> acks_;
};

SnapEntry lift_only(RegisterKey key) {
  SnapEntry e;
  e.key = std::move(key);
  e.flag = SnapEntry::kFrozen;
  return e;
}

SnapEntry install(RegisterKey key, TaggedValue reg) {
  SnapEntry e;
  e.key = std::move(key);
  e.reg = std::move(reg);
  return e;
}

void expect_all(const std::vector<FenceGroup::Ack>& acks, bool held,
                std::uint8_t flag) {
  ASSERT_EQ(acks.size(), 3u);
  for (const FenceGroup::Ack& a : acks) {
    EXPECT_EQ(a.held, held) << "server " << a.from;
    for (const SnapEntry& e : a.entries) {
      EXPECT_EQ(e.flag, flag) << "server " << a.from << " key " << e.key;
    }
  }
}

TEST(SnapshotFence, LowerFreezeParksWholeUntilHigherReleases) {
  FenceGroup g;
  const SnapId high = make_snap_id(7, 1);  // counter 1 outranks counter 2
  const SnapId low = make_snap_id(1, 2);
  g.freeze(1, high, {"a"});
  expect_all(g.acks(1), true, SnapEntry::kOk);

  g.freeze(2, low, {"b", "a"});
  EXPECT_TRUE(g.acks(2).empty()) << "a lower freeze must wait, not fail";
  EXPECT_EQ(g.fenced("b"), 0u) << "a parked freeze fences no key";

  g.release(3, high, {lift_only("a")});
  expect_all(g.acks(3), true, SnapEntry::kOk);
  expect_all(g.acks(2), true, SnapEntry::kOk);
  EXPECT_EQ(g.fenced("a"), 3u);
  EXPECT_EQ(g.fenced("b"), 3u);
}

TEST(SnapshotFence, HigherFreezePreemptsLowerWhoseReleaseInstallsNothing) {
  FenceGroup g;
  const TaggedValue v1{Tag{1, 1}, "v1"};
  for (ProcessId s = 0; s < 3; ++s) g.server(s).set_reg(v1, "a");
  const SnapId high = make_snap_id(7, 1);
  const SnapId low = make_snap_id(1, 2);
  g.freeze(1, low, {"a"});
  expect_all(g.acks(1), true, SnapEntry::kOk);
  g.freeze(2, high, {"a"});
  expect_all(g.acks(2), true, SnapEntry::kOk);

  g.release(3, low, {install("a", TaggedValue{Tag{9, 1}, "late"})});
  expect_all(g.acks(3), false, SnapEntry::kOk);
  for (ProcessId s = 0; s < 3; ++s) {
    EXPECT_EQ(g.server(s).reg("a").value, "v1") << "server " << s;
  }
  EXPECT_EQ(g.fenced("a"), 3u) << "the winner's fence stays up";
  g.release(4, high, {lift_only("a")});
  expect_all(g.acks(4), true, SnapEntry::kOk);
  EXPECT_EQ(g.fenced("a"), 0u);
}

TEST(SnapshotFence, MigFreezeOutranksEverySnapshot) {
  FenceGroup g;
  const SnapId snap = make_snap_id(1, 1);
  g.freeze(1, snap, {"a"});
  g.broadcast(std::make_shared<MigFreeze>(2, "a", /*epoch=*/1, /*dest=*/1));
  EXPECT_EQ(g.acks(2).size(), 3u) << "a migration fence never waits";

  g.release(3, snap, {lift_only("a")});
  expect_all(g.acks(3), false, SnapEntry::kOk);
  EXPECT_EQ(g.fenced("a"), 3u) << "the migration still holds the key";

  // A snapshot parks behind the migration; once the key moves away its
  // replayed freeze reports the new owner.
  g.freeze(4, make_snap_id(1, 2), {"a"});
  EXPECT_TRUE(g.acks(4).empty());
  g.broadcast(std::make_shared<MigCommit>(5, "a", /*owner=*/1, /*epoch=*/1));
  EXPECT_EQ(g.fenced("a"), 0u);
  expect_all(g.acks(4), true, SnapEntry::kMoved);
}

TEST(SnapshotFence, ReleaseDropsItsOwnParkedFreezes) {
  FenceGroup g;
  const SnapId high = make_snap_id(7, 1);
  const SnapId low = make_snap_id(1, 2);
  g.freeze(1, high, {"a"});
  g.freeze(2, low, {"a"});
  EXPECT_TRUE(g.acks(2).empty());

  // The low attempt gives up while parked: its release finds no fence.
  g.release(3, low, {lift_only("a")});
  expect_all(g.acks(3), false, SnapEntry::kOk);
  g.release(4, high, {lift_only("a")});
  EXPECT_EQ(g.fenced("a"), 0u) << "the abandoned freeze woke as a zombie";
  EXPECT_TRUE(g.acks(2).empty());

  // A late copy of a finished attempt's freeze fences nothing either.
  g.freeze(5, high, {"a"});
  expect_all(g.acks(5), true, SnapEntry::kFrozen);
  EXPECT_EQ(g.fenced("a"), 0u);
}

TEST(SnapshotFence, ReleaseCountsOnlyServersWhoseFreezeFormedTheCut) {
  FenceGroup g;
  const SnapId mine = make_snap_id(1, 2);
  // s2 is fenced by a higher-ranked snapshot, so the freeze is answered
  // by s0 and s1 alone: their replies form the cut.
  g.send(2, std::make_shared<SnapFreeze>(1, make_snap_id(7, 1),
                                         std::vector<RegisterKey>{"a"}));
  bool frozen = false;
  g.client().snap_freeze(mine, {"a"}, [&](const auto&) { frozen = true; });
  g.settle();
  ASSERT_TRUE(frozen);
  // Another higher-ranked snapshot preempts the voter s1, and s2 grants
  // the parked freeze late, once its blocker releases.
  g.send(1, std::make_shared<SnapFreeze>(2, make_snap_id(8, 1),
                                         std::vector<RegisterKey>{"a"}));
  g.send(2, std::make_shared<SnapRelease>(
                3, make_snap_id(7, 1),
                std::vector<SnapEntry>{lift_only("a")}));
  EXPECT_TRUE(g.server(2).fenced("a"));

  // s0 and the late s2 hold and answer first; the voter s1 answers last
  // that its fence was lost, and only voters may vouch for the cut.
  g.server(1).set_service_time(ms(5));
  std::optional<bool> held;
  g.client().snap_release(mine, {lift_only("a")},
                          [&](bool all_held) { held = all_held; });
  g.settle();
  ASSERT_TRUE(held.has_value());
  EXPECT_FALSE(*held);
}

/// Freezes "a" under `snap` through the group's real client, with s2
/// slowed so that the replies of s0 and s1 form the cut.
void freeze_with_voters_s0_s1(FenceGroup& g, SnapId snap) {
  g.server(2).set_service_time(ms(5));
  bool frozen = false;
  g.client().snap_freeze(snap, {"a"}, [&](const auto&) { frozen = true; });
  g.settle();
  ASSERT_TRUE(frozen);
}

TEST(SnapshotFence, ReleaseGivesUpALeaseAfterAVoterCrashes) {
  for (TimeNs retry : {TimeNs{0}, ms(50)}) {
    SCOPED_TRACE("retry=" + std::to_string(retry));
    FenceGroup g;
    g.client().set_retry_interval(retry);
    const SnapId snap = make_snap_id(1, 1);
    freeze_with_voters_s0_s1(g, snap);
    g.crash(1);  // a voter: s0 alone can never vouch for the cut

    std::optional<bool> held;
    g.client().snap_release(snap, {lift_only("a")},
                            [&](bool all_held) { held = all_held; });
    g.run_for(kSnapLease + ms(20));
    ASSERT_TRUE(held.has_value()) << "the release hung on a crashed voter";
    EXPECT_FALSE(*held);
    EXPECT_FALSE(g.server(0).fenced("a"));
    EXPECT_FALSE(g.server(2).fenced("a"));
  }
}

TEST(SnapshotFence, VoterThatMissedTheReleaseVouchesOnItsRetransmit) {
  FenceGroup g;
  g.client().set_retry_interval(ms(50));
  const SnapId snap = make_snap_id(1, 1);
  freeze_with_voters_s0_s1(g, snap);
  g.faults().partition(client_id(1), 1);

  std::optional<bool> held;
  g.client().snap_release(snap, {lift_only("a")},
                          [&](bool all_held) { held = all_held; });
  g.run_for(ms(200));
  EXPECT_FALSE(held.has_value()) << "s0 and a non-voter cannot vouch";
  EXPECT_TRUE(g.server(1).fenced("a"));

  // Healed well inside the lease: the next retransmit reaches the voter,
  // whose fence still stands.
  g.faults().heal(client_id(1), 1);
  g.run_for(ms(100));
  ASSERT_TRUE(held.has_value());
  EXPECT_TRUE(*held);
  EXPECT_EQ(g.fenced("a"), 0u);
}

TEST(SnapshotFence, RetransmittedFreezeParksOnce) {
  FenceGroup g;
  const SnapId high = make_snap_id(7, 1);
  const SnapId low = make_snap_id(1, 2);
  g.freeze(1, high, {"a"});
  for (int copy = 0; copy < 3; ++copy) g.freeze(2, low, {"a"});
  EXPECT_EQ(g.server(0).frozen_parked(), 1u);

  g.release(3, high, {lift_only("a")});
  expect_all(g.acks(2), true, SnapEntry::kOk);  // one ack per server
  EXPECT_EQ(g.fenced("a"), 3u);
}

TEST(SnapshotFence, RetiringAnAttemptRetiresItsClientsOlderOnes) {
  FenceGroup g;
  g.freeze(1, make_snap_id(1, 2), {"a"});
  g.release(2, make_snap_id(1, 2), {lift_only("a")});
  // A late freeze of an older attempt of the same client is dead too.
  g.freeze(3, make_snap_id(1, 1), {"a"});
  expect_all(g.acks(3), true, SnapEntry::kFrozen);
  EXPECT_EQ(g.fenced("a"), 0u);

  // An older attempt that preempts a newer one of its client is retired
  // with it, yet keeps the fences it holds, across retransmits too.
  const SnapId older = make_snap_id(1, 3);
  g.freeze(4, make_snap_id(1, 4), {"b"});
  g.freeze(5, older, {"b"});
  g.freeze(5, older, {"b"});
  ASSERT_EQ(g.acks(5).size(), 6u);
  for (const FenceGroup::Ack& a : g.acks(5)) {
    EXPECT_EQ(a.entries.at(0).flag, SnapEntry::kOk) << "server " << a.from;
  }
  g.release(6, older, {lift_only("b")});
  expect_all(g.acks(6), true, SnapEntry::kOk);
  EXPECT_EQ(g.fenced("b"), 0u);
}

TEST(SnapshotFence, ParkQueueOverflowIsShedAndCounted) {
  FenceGroup g;
  g.freeze(1, make_snap_id(1, 1), {"a"});
  AbdServer& s0 = g.server(0);
  for (OpId op = 10; op < 10 + 513; ++op) {
    const Tag tag{static_cast<std::int64_t>(op), 1};
    s0.handle(client_id(0), WriteReq(op, TaggedValue{tag, "w"}, "a", 1));
  }
  EXPECT_EQ(s0.frozen_parked(), 512u);
  EXPECT_EQ(s0.parked_dropped(), 1u);
}

// --- collect rounds fed by hand ----------------------------------------------

/// The shared router rig, driven through snapshot(): the test answers
/// every collect by hand.
struct CollectRig : test::RouterRig {
  std::optional<ShardRouter::SnapshotResult> result;

  /// Two keys that both hash to shard 0.
  static std::pair<RegisterKey, RegisterKey> two_keys_at_shard0() {
    const ShardMap map = ShardMap::uniform(2, 3, 1);
    std::vector<RegisterKey> found;
    for (int i = 0; found.size() < 2; ++i) {
      RegisterKey key = "k" + std::to_string(i);
      if (map.shard_of(key) == 0) found.push_back(key);
    }
    return {found[0], found[1]};
  }

  void snapshot(std::vector<RegisterKey> keys) {
    router.snapshot(std::move(keys), [this](const auto& r) { result = r; });
    env.run_to_quiescence();
  }

  /// Answers shard `g`'s latest collect from a quorum (two of its three
  /// servers), giving each requested key the entry `entries` maps it to.
  void answer(ShardId g, const std::map<RegisterKey, SnapEntry>& entries) {
    ASSERT_FALSE(collects_at(g).empty());
    const Collect req = collects_at(g).back();
    std::vector<SnapEntry> es;
    for (const RegisterKey& key : req.keys) {
      ASSERT_TRUE(entries.count(key)) << "no entry for " << key;
      es.push_back(entries.at(key));
    }
    for (int i = 0; i < 2; ++i) {
      router.handle(router.map().servers(g)[i],
                    SnapAck(req.op, es, nullptr, req.seq));
    }
    env.run_to_quiescence();
  }
};

SnapEntry moved_to(RegisterKey key, ShardId owner, std::uint64_t epoch) {
  SnapEntry e;
  e.key = std::move(key);
  e.flag = SnapEntry::kMoved;
  e.owner = owner;
  e.epoch = epoch;
  return e;
}

const TaggedValue kT1{Tag{1, client_id(5)}, "t1"};
const TaggedValue kT2{Tag{2, client_id(5)}, "t2"};
const TaggedValue kU{Tag{3, client_id(6)}, "u"};

TEST(SnapshotCollect, MovedKeyIsRecollectedInsideItsRound) {
  CollectRig rig;
  const auto [k, x] = CollectRig::two_keys_at_shard0();
  rig.snapshot({k, x});
  ASSERT_EQ(rig.collects_at(0).size(), 1u);

  // Round 1: k moved to shard 1. The router asks shard 1 for k before
  // the round ends, and round 2 does not start until it answers.
  rig.answer(0, {{k, moved_to(k, 1, 1)}, {x, install(x, kU)}});
  ASSERT_EQ(rig.collects_at(1).size(), 1u);
  EXPECT_EQ(rig.collects_at(1).back().keys, std::vector<RegisterKey>{k});
  EXPECT_EQ(rig.collects_at(0).size(), 1u) << "round 2 began too early";
  rig.answer(1, {{k, install(k, kT1)}});

  // Round 2 confirms both keys.
  ASSERT_EQ(rig.collects_at(0).size(), 2u);
  ASSERT_EQ(rig.collects_at(1).size(), 2u);
  EXPECT_FALSE(rig.result.has_value());
  rig.answer(0, {{x, install(x, kU)}});
  rig.answer(1, {{k, install(k, kT1)}});
  ASSERT_TRUE(rig.result.has_value());
  EXPECT_EQ(rig.result->rounds, 2u);
  EXPECT_FALSE(rig.result->used_fallback);
  EXPECT_EQ(rig.result->cut[0].second.tag, kT1.tag);
  EXPECT_EQ(rig.router.shard_of(k), 1u);
}

TEST(SnapshotCollect, ObservationSurvivesTheKeysMove) {
  CollectRig rig;
  const auto [k, x] = CollectRig::two_keys_at_shard0();
  rig.snapshot({k, x});
  rig.answer(0, {{k, install(k, kT1)}, {x, install(x, kU)}});

  // Round 2 meets the move; the new owner shows the tag round 1 saw at
  // the old owner, so round 2 confirms the cut.
  rig.answer(0, {{k, moved_to(k, 1, 1)}, {x, install(x, kU)}});
  rig.answer(1, {{k, install(k, kT1)}});
  ASSERT_TRUE(rig.result.has_value());
  EXPECT_EQ(rig.result->rounds, 2u);
  EXPECT_EQ(rig.result->cut[0].second.tag, kT1.tag);
  EXPECT_EQ(rig.result->cut[1].second.tag, kU.tag);
}

TEST(SnapshotCollect, FlaggedKeyKeepsTheOtherKeysObservations) {
  const auto [k, x] = CollectRig::two_keys_at_shard0();
  auto flag_k_in_round2 = [&](CollectRig& rig) {
    rig.snapshot({k, x});
    rig.answer(0, {{k, install(k, kT1)}, {x, install(x, kU)}});
    rig.answer(0, {{k, lift_only(k)}, {x, install(x, kU)}});
    EXPECT_FALSE(rig.result.has_value()) << "a flagged key confirmed nothing";
  };

  // Round 3 shows k's round-1 tag: with x's rounds 1-2 it is a cut.
  CollectRig same;
  flag_k_in_round2(same);
  same.answer(0, {{k, install(k, kT1)}, {x, install(x, kU)}});
  ASSERT_TRUE(same.result.has_value());
  EXPECT_EQ(same.result->rounds, 3u);
  EXPECT_EQ(same.result->cut[0].second.tag, kT1.tag);

  // Round 3 shows a newer tag instead: it was seen once, so no cut yet.
  CollectRig newer;
  flag_k_in_round2(newer);
  newer.answer(0, {{k, install(k, kT2)}, {x, install(x, kU)}});
  EXPECT_FALSE(newer.result.has_value()) << "k's newer tag was seen once";
  newer.answer(0, {{k, install(k, kT2)}, {x, install(x, kU)}});
  ASSERT_TRUE(newer.result.has_value());
  EXPECT_EQ(newer.result->rounds, 4u);
  EXPECT_EQ(newer.result->cut[0].second.tag, kT2.tag);
}

TEST(SnapshotCollect, RelicMoveFlagsTheRoundWithoutAChase) {
  CollectRig rig;
  const auto [k, x] = CollectRig::two_keys_at_shard0();
  rig.snapshot({k, x});
  rig.answer(0, {{k, moved_to(k, 1, 2)}, {x, install(x, kU)}});
  // The new owner still carries a relic mark from an older migration:
  // it does not move the map back, so k is flagged, not chased again.
  rig.answer(1, {{k, moved_to(k, 0, 1)}});
  EXPECT_EQ(rig.router.shard_of(k), 1u);
  ASSERT_EQ(rig.collects_at(0).size(), 2u);  // round 2: x only
  ASSERT_EQ(rig.collects_at(1).size(), 2u);  // round 2: k
  EXPECT_EQ(rig.collects_at(0).back().keys, std::vector<RegisterKey>{x});

  rig.answer(0, {{x, install(x, kU)}});
  rig.answer(1, {{k, install(k, kT1)}});
  EXPECT_FALSE(rig.result.has_value()) << "k has one clean observation";
  rig.answer(0, {{x, install(x, kU)}});
  rig.answer(1, {{k, install(k, kT1)}});
  ASSERT_TRUE(rig.result.has_value());
  EXPECT_EQ(rig.result->rounds, 3u);
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

/// Seeds of the simulated storm: 101, 202 and 303, or the inclusive
/// range WRS_SNAPSHOT_CHAOS_SEEDS=<first>-<last> names (a manual sweep;
/// a stalled seed fails as "snapshots stuck (liveness)").
std::vector<std::uint64_t> snapshot_chaos_seeds() {
  const char* env = std::getenv("WRS_SNAPSHOT_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return {101, 202, 303};
  unsigned long long first = 0;
  unsigned long long last = 0;
  char tail = 0;
  if (std::sscanf(env, "%llu-%llu%c", &first, &last, &tail) != 2 ||
      first > last) {
    ADD_FAILURE() << "WRS_SNAPSHOT_CHAOS_SEEDS=" << env
                  << ": expected <first>-<last>";
    return {};
  }
  std::vector<std::uint64_t> seeds;
  for (unsigned long long seed = first; seed <= last; ++seed) {
    seeds.push_back(seed);
  }
  return seeds;
}

TEST(SnapshotChaos, SimCutsSurviveMigrationStorm) {
  for (std::uint64_t seed : snapshot_chaos_seeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_snapshot_chaos_consistent(Runtime::kSim, seed);
  }
}

TEST(SnapshotChaos, ThreadCutsSurviveMigrationStorm) {
  expect_snapshot_chaos_consistent(Runtime::kThread, 404);
}

}  // namespace
}  // namespace wrs
