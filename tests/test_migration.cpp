// Elastic resharding: the MigrationEngine's linearizable per-key
// handoff, the Rebalancer controller, and their chaos behavior.
//
//   * ShardMap override-table semantics (epoch-versioned exceptions
//     layered on the static hash assignment);
//   * migrate_key end-to-end on both runtimes: data moves, stale
//     clients are redirected exactly once and then route directly,
//     route marks commit on every source server;
//   * writes racing the freeze fence park and land at the destination
//     with per-key tag order intact;
//   * a seeded chaos episode — Nemesis link faults + a server crash +
//     concurrent weight transfers + a MigrationStorm over a recorded
//     workload — stays atomic, loses/duplicates no key across the
//     map-epoch commits, and conserves every shard's total weight;
//   * the Rebalancer moves hot keys off a skewed shard;
//   * the whole path over Runtime::kSocket (real loopback TCP).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/cluster.h"
#include "storage/history.h"
#include "testing/nemesis.h"

namespace wrs {
namespace {

// --- ShardMap overrides -----------------------------------------------------

TEST(ShardMapOverride, LayersExceptionsOnStaticHash) {
  ShardMap map = ShardMap::uniform(4, 3, 1, WeightMap::uniform(3));
  RegisterKey key = "k3";
  ShardId base = map.shard_of(key);
  ShardId other = (base + 1) % 4;

  EXPECT_EQ(map.num_overrides(), 0u);
  EXPECT_EQ(map.epoch(), 0u);

  EXPECT_TRUE(map.apply_override(key, other, 5));
  EXPECT_EQ(map.shard_of(key), other);
  EXPECT_EQ(map.epoch(), 5u);
  EXPECT_EQ(map.num_overrides(), 1u);
  ASSERT_TRUE(map.override_of(key).has_value());
  EXPECT_EQ(map.override_of(key)->owner, other);
  EXPECT_EQ(map.override_of(key)->epoch, 5u);

  // Unrelated keys keep their static assignment.
  EXPECT_EQ(map.shard_of("k4"), map.static_hash_shard_of("k4"));
}

TEST(ShardMapOverride, OnlyStrictlyNewerEpochsApply) {
  ShardMap map = ShardMap::uniform(2, 3, 1, WeightMap::uniform(3));
  RegisterKey key = "x";
  EXPECT_TRUE(map.apply_override(key, 1, 7));
  // Same epoch: refused (duplicate redirect), owner unchanged.
  EXPECT_FALSE(map.apply_override(key, 0, 7));
  EXPECT_EQ(map.shard_of(key), 1u);
  // Older epoch: refused.
  EXPECT_FALSE(map.apply_override(key, 0, 3));
  EXPECT_EQ(map.shard_of(key), 1u);
  // Newer epoch wins, map epoch follows the max.
  EXPECT_TRUE(map.apply_override(key, 0, 9));
  EXPECT_EQ(map.shard_of(key), 0u);
  EXPECT_EQ(map.epoch(), 9u);
}

TEST(ShardMapOverride, ValidatesOwner) {
  ShardMap map = ShardMap::uniform(2, 3, 1, WeightMap::uniform(3));
  EXPECT_THROW(map.apply_override("k", 2, 1), std::out_of_range);
}

// --- end-to-end handoff -----------------------------------------------------

/// The key's static shard under the deployment's map (what a fresh
/// client routes by before it learns any override).
ShardId static_shard(const Cluster& c, const RegisterKey& key) {
  return c.shard_map().static_hash_shard_of(key);
}

void expect_migrate_moves_data(Runtime rt) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(4)
                  .clients(2)
                  .runtime(rt)
                  .seed(42)
                  .build();

  RegisterKey key = "hot";
  ShardId src = static_shard(c, key);
  ShardId dst = (src + 1) % 4;

  Tag t1 = c.client(0).write(key, "v1").get();
  ASSERT_TRUE(c.migrate_key(key, dst).get());
  EXPECT_EQ(c.migration_engine().owner_of(key), dst);

  MigrationStats ms = c.migration_stats();
  EXPECT_EQ(ms.started, 1u);
  EXPECT_EQ(ms.committed, 1u);
  EXPECT_EQ(ms.in_flight, 0u);
  EXPECT_GE(ms.epoch, 1u);

  // The destination group holds the (tag, value) the source froze.
  std::uint32_t holders = 0;
  for (ProcessId s : c.shard_servers(dst)) {
    if (c.storage_node(s).server().reg(key).tag == t1) ++holders;
  }
  EXPECT_GE(holders, 2u);  // a quorum of the 3-server group

  // Every source server eventually commits its mark (fault-free: the
  // commit broadcast reaches the whole group) — fence down, owner
  // recorded. migrate_key() completes on a QUORUM of commit acks, so on
  // the thread runtime the slowest server's mark can trail the future:
  // probe it ON THAT SERVER'S OWN WORKER (serialized with the pending
  // MigCommit apply) and poll for the settled state. On the simulator
  // the future runs the event loop to quiescence, so a direct read is
  // already settled.
  for (ProcessId s : c.shard_servers(src)) {
    using Probe = std::pair<std::optional<AbdServer::RouteMark>, bool>;
    auto read_state = [&] {
      const AbdServer& server = c.storage_node(s).server();
      return Probe{server.route_mark(key), server.fenced(key)};
    };
    Probe state;
    if (rt == Runtime::kSim) {
      state = read_state();
    } else {
      auto probe = [&] {
        return c
            .call<Probe>(s, [&](auto done) { done(read_state()); })
            .try_get(seconds(5))
            .value_or(Probe{});
      };
      state = probe();
      for (int spin = 0;
           spin < 2000 && !(state.first && state.first->committed); ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        state = probe();
      }
    }
    const auto& [mark, fenced] = state;
    ASSERT_TRUE(mark.has_value()) << process_name(s);
    EXPECT_EQ(mark->owner, dst);
    EXPECT_TRUE(mark->committed);
    EXPECT_FALSE(fenced);
  }

  // A stale client (static map) reads through exactly one redirect,
  // learns the override, and then routes directly.
  ClientHandle stale = c.client(1);
  EXPECT_EQ(stale.router().redirects(), 0u);
  EXPECT_EQ(stale.read(key).get().value, "v1");
  EXPECT_EQ(stale.router().redirects(), 1u);
  EXPECT_EQ(stale.read(key).get().value, "v1");
  EXPECT_EQ(stale.router().redirects(), 1u);

  // Writes through the learned route land at the destination.
  Tag t2 = stale.write(key, "v2").get();
  EXPECT_TRUE(t1 < t2);
  EXPECT_EQ(c.client(0).read(key).get().value, "v2");

  // Migrating a key already at its target is a no-op success.
  ASSERT_TRUE(c.migrate_key(key, dst).get());
  EXPECT_EQ(c.migration_stats().noops, 1u);

  // And the key can move again — including back to where it started.
  ASSERT_TRUE(c.migrate_key(key, src).get());
  EXPECT_EQ(c.migration_engine().owner_of(key), src);
  EXPECT_EQ(c.client(0).read(key).get().value, "v2");
}

TEST(Migration, MovesDataEndToEndSim) {
  expect_migrate_moves_data(Runtime::kSim);
}

TEST(Migration, MovesDataEndToEndThreads) {
  expect_migrate_moves_data(Runtime::kThread);
}

TEST(Migration, ValidatesTargets) {
  Cluster sharded =
      Cluster::builder().servers(3).shards(2).runtime(Runtime::kSim).build();
  EXPECT_THROW(sharded.migrate_key("k", 2), std::out_of_range);

  Cluster single =
      Cluster::builder().servers(3).runtime(Runtime::kSim).build();
  EXPECT_THROW(single.migrate_key("k", 0), std::logic_error);
  EXPECT_THROW(single.migration_stats(), std::logic_error);
  EXPECT_THROW(single.rebalancer(), std::logic_error);
  EXPECT_THROW(Cluster::builder().servers(3).rebalance().build(),
               std::invalid_argument);
}

TEST(Migration, WritesRacingTheFreezeLandAtTheDestination) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .clients(2)
                  .uniform_latency(us(200), ms(2))
                  .runtime(Runtime::kSim)
                  .seed(7)
                  .build();

  RegisterKey key = "contested";
  ShardId src = static_shard(c, key);
  ShardId dst = 1 - src;
  c.client(0).write(key, "w0").get();

  // Issue the migration and a burst of writes WITHOUT awaiting, so the
  // writes overlap the freeze window: some park behind the fence and
  // drain as redirects when the commit lifts it.
  Await<bool> mig = c.migrate_key(key, dst);
  std::vector<Await<Tag>> writes;
  for (int i = 0; i < 6; ++i) {
    writes.push_back(c.client(1).write(key, "w" + std::to_string(i + 1)));
  }
  ASSERT_TRUE(mig.get());
  // Per-key FIFO survived the handoff: the racing writes' tags strictly
  // increase in issue order, however many of them were redirected.
  Tag max_tag;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    Tag t = writes[i].get();
    if (i > 0) {
      EXPECT_LT(max_tag, t) << "write " << i + 1;
    }
    max_tag = t;
  }

  // The read sees the newest write, served by the destination group.
  TaggedValue fin = c.client(0).read(key).get();
  EXPECT_EQ(fin.tag, max_tag);
  EXPECT_EQ(fin.value, "w6");
  EXPECT_EQ(c.migration_engine().owner_of(key), dst);
  std::uint32_t parked = 0;
  for (ProcessId s : c.shard_servers(src)) {
    parked += c.storage_node(s).server().frozen_parked();
  }
  EXPECT_GT(parked, 0u);  // the race really hit the fence
}

// --- chaos: migration storm under nemesis faults ----------------------------

void expect_chaos_migration_atomic(Runtime rt, std::uint64_t seed) {
  const std::uint32_t shards = 4;
  const std::uint32_t n = 3;
  const TimeNs horizon = ms(300);
  const std::size_t num_keys = 16;

  WorkloadParams wp;
  wp.num_ops = 60;
  wp.read_ratio = 0.5;
  wp.value_size = 8;
  wp.num_keys = num_keys;
  wp.zipf_theta = 0.99;
  wp.target_ops_per_sec = 300;
  wp.max_in_flight = 8;
  wp.seed = seed;

  auto history = std::make_shared<HistoryRecorder>();
  Cluster c = Cluster::builder()
                  .servers(n)
                  .faults(1)
                  .shards(shards)
                  .clients(2)
                  .workload(wp)
                  .history(history)
                  .uniform_latency(us(200), ms(2))
                  .retry(ms(10))
                  .anti_entropy(ms(25))
                  .runtime(rt)
                  .seed(seed)
                  .build();

  // The resharding storm: enough attempts that well over 50 handoffs
  // commit even after same-key refusals and same-shard no-ops.
  testing::MigrationStormParams msp;
  msp.horizon = horizon;
  msp.attempts = 150;
  msp.num_keys = num_keys;
  testing::MigrationStorm storm(c, seed ^ 0x9e3779b97f4a7c15ull, msp);
  storm.unleash();

  // Concurrent intra-group reconfiguration, so weight conservation is a
  // live check rather than a vacuous one.
  testing::TransferStormParams tsp;
  tsp.horizon = horizon;
  tsp.attempts = 4;
  testing::TransferStorm transfers(c, seed + 1, tsp);
  transfers.unleash();

  // Link faults + one crash while keys are mid-handoff.
  testing::NemesisParams np;
  np.horizon = horizon;
  np.events = 6;
  np.crash_budget = 1;
  np.drop_p_max = 0.3;
  testing::Nemesis nemesis(c, seed + 2, np);
  nemesis.unleash();

  c.run_for(horizon + ms(80));

  // Drain: every migration attempt must resolve (commit or refusal) —
  // engine retries + the healed tail give the quorum rounds liveness.
  for (int round = 0; round < 200 && storm.completed() < msp.attempts;
       ++round) {
    c.run_for(ms(25));
  }
  ASSERT_EQ(storm.completed(), msp.attempts) << "migrations stuck (liveness)";

  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(30)).has_value())
        << "workload client #" << k << " never finished";
  }

  MigrationStats mig = c.migration_stats();
  EXPECT_GE(mig.committed, 50u) << "episode did not exercise >= 50 handoffs";
  EXPECT_EQ(mig.in_flight, 0u);

  // Weight reconciliation is anti-entropy-driven: a minority server that
  // missed a transfer round behind a partition (or the crash) catches up
  // only from the periodic exchange, so give it bounded rounds to
  // converge BEFORE freezing the timers (the same convergence-then-check
  // shape as test_chaos_fuzz).
  auto probe = [&c](ProcessId s) {
    ReassignNode* node = &c.server(s).node();
    return c.call<ChangeSet>(s,
                             [node](auto done) { done(node->changes()); });
  };
  // Weight is conserved over SETTLED state: the initial grants plus every
  // transfer both of whose halves arrived. A crash can strand one half of
  // an in-flight transfer on the dead issuer forever (the live side then
  // carries an unresolved half of pair count 1), so pairwise conservation
  // is asserted over complete pairs, exactly what the paper's invariant
  // covers.
  auto settled_total = [](const ChangeSet& cs) {
    Weight sum;
    for (const Change& ch : cs.all()) {
      if (ch.counter() == kInitialChangeCounter ||
          cs.count_pair(ch.issuer(), ch.counter()) == 2) {
        sum += ch.delta;
      }
    }
    return sum;
  };
  auto weights_converged = [&]() {
    for (ShardId g = 0; g < shards; ++g) {
      std::optional<ChangeSet> first;
      for (std::uint32_t i = 0; i < n; ++i) {
        ProcessId s = c.server_id(g, i);
        if (c.is_crashed(s)) continue;
        auto cs = probe(s).try_get(seconds(10));
        if (!cs.has_value()) return false;
        if (!(settled_total(*cs) == c.shard_config(g).initial_total())) {
          return false;
        }
        if (!first.has_value()) {
          first = *cs;
        } else if (!(*cs == *first)) {
          return false;  // live servers of the shard not yet reconciled
        }
      }
    }
    return true;
  };
  for (int round = 0; round < 200 && !weights_converged(); ++round) {
    c.run_for(ms(25));
  }

  c.set_anti_entropy(0);
  c.quiesce(seconds(120));

  // --- safety ---------------------------------------------------------------
  std::vector<OpRecord> ops = history->completed();
  auto err = check_atomicity(ops);
  EXPECT_FALSE(err.has_value()) << "atomicity: " << err.value_or("");

  // No key lost across the map-epoch commits: every key the workload
  // wrote is still discoverable at some shard's quorum.
  std::set<RegisterKey> expected;
  for (const OpRecord& op : ops) {
    if (op.kind == OpRecord::Kind::kWrite) expected.insert(op.key);
  }
  std::vector<RegisterKey> listed = c.client(0).list_keys().get();
  std::set<RegisterKey> found(listed.begin(), listed.end());
  for (const RegisterKey& key : expected) {
    EXPECT_TRUE(found.count(key)) << "key " << key << " lost by resharding";
  }

  // No split-brain ownership: a FRESH client (static map, no learned
  // overrides) writes a sentinel through the redirect chain; a second
  // fresh client must read exactly that sentinel back. If two groups
  // both still served a key, one of these fresh routes would hit the
  // stale group and miss the sentinel.
  ClientHandle wtr = c.client(c.add_client());
  ClientHandle rdr = c.client(c.add_client());
  for (const RegisterKey& key : expected) {
    Value sentinel = "fin:" + key;
    ASSERT_TRUE(wtr.write(key, sentinel).try_get(seconds(30)).has_value());
    auto got = rdr.read(key).try_get(seconds(30));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->value, sentinel)
        << "key " << key << " has divergent owners (duplicated)";
  }

  // Weight conservation, shard by shard: migrations move KEYS, never
  // weight, and the concurrent transfers only redistribute within their
  // group. Each server's change set is sampled in its own context.
  for (ShardId g = 0; g < shards; ++g) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ProcessId s = c.server_id(g, i);
      if (c.is_crashed(s)) continue;
      auto cs = probe(s).try_get(seconds(10));
      ASSERT_TRUE(cs.has_value());
      EXPECT_TRUE(settled_total(*cs) == c.shard_config(g).initial_total())
          << "shard " << g << " settled weight drifted (seen from "
          << process_name(s) << "): " << settled_total(*cs).str()
          << " raw " << cs->total().str();
    }
  }
}

TEST(Migration, ChaosStormStaysAtomicSim) {
  expect_chaos_migration_atomic(Runtime::kSim, 20260808u);
}

TEST(Migration, ChaosStormStaysAtomicThreads) {
  expect_chaos_migration_atomic(Runtime::kThread, 20260809u);
}

// --- rebalancer -------------------------------------------------------------

TEST(Migration, RebalancerSpreadsAHotShard) {
  // Open-loop Zipf workload: rank-0 keys hash wherever they hash, so
  // one shard serves a large multiple of the mean. The controller must
  // notice and migrate hot keys off it.
  WorkloadParams wp;
  wp.num_ops = 400;
  wp.read_ratio = 0.5;
  wp.value_size = 8;
  wp.num_keys = 32;
  wp.zipf_theta = 0.99;
  wp.target_ops_per_sec = 2000;
  wp.max_in_flight = 16;
  wp.seed = 99;

  RebalanceParams rp;
  rp.period = ms(20);
  rp.skew_threshold = 1.3;
  rp.top_k = 4;
  rp.min_window_ops = 32;

  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(4)
                  .clients(1)
                  .workload(wp)
                  .rebalance(rp)
                  .uniform_latency(us(200), ms(2))
                  .runtime(Runtime::kSim)
                  .seed(5)
                  .build();

  ASSERT_TRUE(c.workload_done(0).try_get(seconds(60)).has_value());
  c.rebalancer().stop();
  c.quiesce(seconds(120));

  RebalanceStats rs = c.rebalance_stats();
  EXPECT_GT(rs.rounds, 0u);
  EXPECT_GT(rs.skewed, 0u) << "the Zipf hotspot never tripped the threshold";
  EXPECT_GT(rs.moved, 0u) << "no hot key was migrated";
  EXPECT_GT(c.migration_stats().committed, 0u);
  // The authoritative map now carries overrides for the moved keys.
  EXPECT_GT(c.migration_engine().map().num_overrides(), 0u);
}

// --- sockets ----------------------------------------------------------------

#ifdef __linux__
TEST(Migration, MigrateKeyOverSocketTransport) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .clients(2)
                  .runtime(Runtime::kSocket)
                  .seed(11)
                  .build();

  RegisterKey key = "sock";
  ShardId src = static_shard(c, key);
  ShardId dst = 1 - src;

  Tag t = c.client(0).write(key, "over-tcp").get();
  ASSERT_TRUE(c.migrate_key(key, dst).try_get(seconds(30)).value_or(false));
  EXPECT_EQ(c.migration_engine().owner_of(key), dst);

  // Stale client redirect + direct route, all over real loopback TCP.
  ClientHandle stale = c.client(1);
  auto got = stale.read(key).try_get(seconds(30));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "over-tcp");
  EXPECT_EQ(got->tag, t);
  EXPECT_GE(stale.router().redirects(), 1u);

  std::uint32_t holders = 0;
  for (ProcessId s : c.shard_servers(dst)) {
    if (c.storage_node(s).server().reg(key).tag == t) ++holders;
  }
  EXPECT_GE(holders, 2u);
}
#endif  // __linux__

}  // namespace
}  // namespace wrs
