// Sharded-keyspace subsystem tests: ShardMap routing, router semantics
// (per-key FIFO, pipelining, single-shard byte-compatibility), misrouted
// traffic rejection, validated shard selectors, Zipfian workloads, the
// modeled-service-time scale-out mechanics, and a seeded chaos episode
// with one shard partitioned while another reassigns weights — on both
// runtimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "storage/history.h"
#include "test_util.h"
#include "testing/nemesis.h"

namespace wrs {
namespace {

// --- ShardMap ---------------------------------------------------------------

TEST(ShardMap, RoutingIsDeterministicAndCoversEveryShard) {
  ShardMap a = ShardMap::uniform(4, 3, 1);
  ShardMap b = ShardMap::uniform(4, 3, 1);
  std::set<ShardId> hit;
  for (int i = 0; i < 1000; ++i) {
    RegisterKey key = "k";
    key += std::to_string(i);
    ShardId g = a.shard_of(key);
    // Pure function of the key bytes: every instance agrees.
    EXPECT_EQ(g, b.shard_of(key));
    EXPECT_LT(g, 4u);
    hit.insert(g);
  }
  EXPECT_EQ(hit.size(), 4u) << "1000 keys should cover all 4 shards";
  // The paper's register "" routes somewhere stable too.
  EXPECT_EQ(a.shard_of(""), b.shard_of(""));
}

TEST(ShardMap, LaysGroupsOutShardMajorWithOwnConfigs) {
  ShardMap m = ShardMap::uniform(3, 4, 1);
  EXPECT_EQ(m.num_shards(), 3u);
  EXPECT_EQ(m.total_servers(), 12u);
  for (ShardId g = 0; g < 3; ++g) {
    const SystemConfig& cfg = m.config(g);
    EXPECT_EQ(cfg.shard, g);
    EXPECT_EQ(cfg.base, g * 4);
    EXPECT_EQ(cfg.n, 4u);
    std::vector<ProcessId> servers = m.servers(g);
    ASSERT_EQ(servers.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(servers[i], g * 4 + i);
      EXPECT_EQ(m.shard_of_server(g * 4 + i), g);
      // Each group's weights are keyed by its GLOBAL ids.
      EXPECT_TRUE(cfg.initial_weights.contains(g * 4 + i));
    }
  }
  EXPECT_EQ(m.all_server_ids().size(), 12u);
}

TEST(ShardMap, ValidationNamesOffenderAndRange) {
  ShardMap m = ShardMap::uniform(2, 3, 1);
  try {
    m.config(5);
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[0, 2)"), std::string::npos);
  }
  EXPECT_THROW(m.shard_of_server(6), std::out_of_range);
  EXPECT_THROW(ShardMap::uniform(0, 3, 1), std::invalid_argument);
  // A weight template must cover exactly the per-shard servers.
  EXPECT_THROW(ShardMap::uniform(2, 3, 1, WeightMap::uniform(2)),
               std::invalid_argument);
}

// --- single-shard byte-compatibility ----------------------------------------

/// The same scripted run, hand-wired on a SimEnv with the RAW AbdClient
/// (no router anywhere) vs deployed through Cluster::builder().shards(1):
/// the router layer must add ZERO wire overhead — identical message
/// counts, types, and bytes — and return identical results.
TEST(ShardCompat, SingleShardMatchesRawClientByteForByte) {
  const std::uint64_t seed = 99;
  const std::uint32_t n = 3, f = 1;
  std::vector<std::pair<RegisterKey, Value>> puts = {
      {"alpha", "1"}, {"beta", "2"}, {"gamma", "3"}, {"alpha", "4"}};

  // Hand-wired: DynamicStorageNodes + a StorageClient built from the raw
  // config ctor (single-shard map is internal and adds no messages).
  Counters raw_traffic;
  std::vector<std::string> raw_reads;
  {
    test::StorageCluster sc(n, f, seed);
    StorageClient client(*sc.env, client_id(0), sc.config);
    sc.env->register_process(client_id(0), &client);
    AbdClient& abd = client.router().shard_client(0);
    std::size_t done = 0;
    for (const auto& [k, v] : puts) {
      abd.write(k, v, [&done](const Tag&) { ++done; });
    }
    test::run_until(*sc.env, [&] { return done == puts.size(); });
    raw_reads.resize(puts.size());
    for (std::size_t i = 0; i < puts.size(); ++i) {
      abd.read(puts[i].first, [&raw_reads, &done, i](const TaggedValue& tv) {
        raw_reads[i] = tv.value;
        ++done;
      });
    }
    test::run_until(*sc.env, [&] { return done == 2 * puts.size(); });
    sc.env->run_to_quiescence();
    raw_traffic = sc.env->traffic();
  }

  Counters cluster_traffic;
  std::vector<std::string> cluster_reads;
  {
    Cluster c = Cluster::builder()
                    .servers(n)
                    .faults(f)
                    .shards(1)
                    .runtime(Runtime::kSim)
                    .seed(seed)
                    .build();
    std::vector<Await<Tag>> tags;
    for (const auto& [k, v] : puts) tags.push_back(c.client().write(k, v));
    for (auto& t : tags) t.get();
    for (const auto& [k, _] : puts) {
      cluster_reads.push_back(c.client().read(k).get().value);
    }
    c.quiesce();
    cluster_traffic = c.traffic();
  }

  EXPECT_EQ(raw_reads, cluster_reads);
  EXPECT_EQ(raw_traffic.map(), cluster_traffic.map())
      << "shards(1) must be byte-identical to the raw unsharded client";
}

/// And a shards(1) deployment is indistinguishable from one that never
/// called shards() at all.
TEST(ShardCompat, ShardsOneMatchesUnshardedBuilder) {
  auto run = [](bool sharded) {
    ClusterBuilder b = Cluster::builder()
                           .servers(3)
                           .clients(1)
                           .runtime(Runtime::kSim)
                           .seed(7);
    if (sharded) b.shards(1);
    Cluster c = b.build();
    auto tags = c.client().write_batch({{"x", "1"}, {"y", "2"}, {"", "3"}});
    for (auto& t : tags) t.get();
    std::string out;
    out += c.client().read("x").get().value;
    out += c.client().read("y").get().value;
    out += c.client().read("").get().value;
    c.quiesce();
    out += " msgs=" + std::to_string(c.traffic().get("msgs"));
    out += " bytes=" + std::to_string(c.traffic().get("bytes"));
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

// --- router semantics -------------------------------------------------------

class ShardRouterSemantics : public ::testing::TestWithParam<Runtime> {};

TEST_P(ShardRouterSemantics, PerKeyFifoPreservedAcrossRouter) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(4)
                  .clients(1)
                  .runtime(GetParam())
                  .seed(11)
                  .build();
  // Same-key operations complete in issue order even when pipelined
  // through the router; distinct keys (on any shard) overlap freely.
  std::vector<RegisterKey> keys = {"fifo", "a", "b", "c", "d"};
  std::vector<std::pair<RegisterKey, Value>> batch;
  for (int round = 0; round < 5; ++round) {
    for (const auto& k : keys) {
      batch.emplace_back(k, k + "#" + std::to_string(round));
    }
  }
  auto tags = c.client().write_batch(batch);
  for (auto& t : tags) t.get();
  // The last write per key wins under FIFO.
  for (const auto& k : keys) {
    EXPECT_EQ(c.client().read(k).get().value, k + "#4");
  }
  // list_keys unions every shard's discovery.
  std::vector<RegisterKey> found = c.client().list_keys().get();
  std::set<RegisterKey> found_set(found.begin(), found.end());
  for (const auto& k : keys) EXPECT_TRUE(found_set.count(k)) << k;
  c.quiesce();
}

TEST_P(ShardRouterSemantics, OperationsPipelineAcrossShards) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .clients(1)
                  .runtime(GetParam())
                  .seed(13)
                  .build();
  std::vector<std::pair<RegisterKey, Value>> batch;
  for (int i = 0; i < 16; ++i) {
    batch.emplace_back("key" + std::to_string(i), std::to_string(i));
  }
  auto tags = c.client().write_batch(batch);
  for (auto& t : tags) t.get();
  // Ops went to both shards and the inner clients genuinely overlapped
  // work (the router preserves the multiplexed pipeline).
  std::size_t routed = 0;
  for (ShardId g = 0; g < 2; ++g) {
    routed += (c.client().router().shard_client(g).max_in_flight() > 0);
  }
  EXPECT_EQ(routed, 2u) << "both shards should have seen operations";
  EXPECT_GT(c.client().router().max_in_flight(), 1u);
  c.quiesce();
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, ShardRouterSemantics,
                         ::testing::Values(Runtime::kSim, Runtime::kThread));

// --- one per-key FIFO across redirects --------------------------------------

TEST(ShardRedirect, RedirectMovesTheKeysWholeQueue) {
  test::RouterRig rig;
  const RegisterKey key = "k";
  const ShardId src = rig.router.shard_of(key);
  const ShardId dst = 1 - src;
  for (int i = 0; i < 3; ++i) {
    rig.router.write(key, "w" + std::to_string(i), [](const Tag&) {});
  }
  rig.env.run_to_quiescence();
  // Per-key FIFO: only the front write's phase 1 went out.
  ASSERT_EQ(rig.reads_at(src), 3u);
  ASSERT_EQ(rig.reads_at(dst), 0u);

  OpId front = rig.servers[rig.router.map().servers(src).front()].reads[0];
  rig.redirect(src, front, key, dst);
  EXPECT_EQ(rig.router.redirects(), 1u);
  // The queued writes left with the front one: none of them starts at
  // the old shard, and at the new owner they queue behind it again.
  EXPECT_EQ(rig.reads_at(src), 3u);
  EXPECT_EQ(rig.reads_at(dst), 3u);
}

TEST(ShardRedirect, WriteRedirectedInPhaseTwoKeepsItsTag) {
  test::RouterRig rig;
  const RegisterKey key = "k";
  const ShardId src = rig.router.shard_of(key);
  const ShardId dst = 1 - src;
  Tag written;
  rig.router.write(key, "w", [&](const Tag& t) { written = t; });
  rig.env.run_to_quiescence();
  const std::vector<ProcessId> src_servers = rig.router.map().servers(src);
  const OpId op = rig.servers[src_servers.front()].reads[0];

  // A quorum of phase-1 replies at the old owner: the write picks its tag
  // and sends its phase 2 there.
  const TaggedValue old_reg{Tag{4, client_id(9)}, "old"};
  for (int i = 0; i < 2; ++i) {
    rig.router.handle(src_servers[i], ReadAck(op, old_reg, nullptr, 1));
  }
  rig.env.run_to_quiescence();
  const test::RouterRig::SinkServer& first = rig.servers[src_servers.front()];
  ASSERT_EQ(first.write_tags.size(), 1u);
  const Tag chosen = first.write_tags[0];
  EXPECT_EQ(chosen, (Tag{5, client_id(0)}));

  rig.redirect(src, op, key, dst);
  EXPECT_EQ(rig.router.redirects(), 1u);
  const std::vector<ProcessId> dst_servers = rig.router.map().servers(dst);
  const test::RouterRig::SinkServer& target = rig.servers[dst_servers.front()];
  ASSERT_EQ(target.reads.size(), 1u);
  EXPECT_EQ(target.read_seqs[0], 1u);  // a fresh attempt at the new owner
  const OpId moved = target.reads[0];

  // A newer register at the new owner does not re-tag the write: the
  // tag chosen at the old owner is the one written.
  const TaggedValue newer{Tag{7, client_id(9)}, "newer"};
  for (int i = 0; i < 2; ++i) {
    rig.router.handle(dst_servers[i], ReadAck(moved, newer, nullptr, 1));
  }
  rig.env.run_to_quiescence();
  ASSERT_EQ(target.write_tags.size(), 1u);
  EXPECT_EQ(target.write_tags[0], chosen);
  for (int i = 0; i < 2; ++i) {
    rig.router.handle(dst_servers[i], WriteAck(moved, nullptr, 2));
  }
  EXPECT_EQ(written, chosen);
}

TEST(ShardRedirect, SameKeyOpJoinsItsHoldersQueue) {
  test::RouterRig rig;
  const RegisterKey key = "k";
  const ShardId src = rig.router.shard_of(key);
  const ShardId dst = 1 - src;
  rig.router.write(key, "w1", [](const Tag&) {});
  rig.env.run_to_quiescence();
  ASSERT_EQ(rig.reads_at(src), 3u);

  // A redirect for an op id nobody owns: the map learns the new owner,
  // but nothing is ejected.
  rig.redirect(src, /*op=*/0xdeadbeef, key, dst);
  EXPECT_EQ(rig.router.shard_of(key), dst);
  EXPECT_EQ(rig.router.redirects(), 0u);

  // The first write still holds the key at the old shard, so the second
  // one queues behind it there instead of overlapping it at the new
  // owner.
  rig.router.write(key, "w2", [](const Tag&) {});
  rig.env.run_to_quiescence();
  EXPECT_EQ(rig.reads_at(dst), 0u);
  EXPECT_EQ(rig.reads_at(src), 3u);
}

// --- misrouted traffic ------------------------------------------------------

TEST(ShardMisroute, ServerRejectsWrongShardRequests) {
  auto latency = std::make_shared<UniformLatency>(ms(1), ms(2));
  SimEnv env(latency, 1);
  AbdServer server(env, /*self=*/0, /*changes_provider=*/nullptr,
                   /*shard=*/1);
  // A request carrying shard 0 reaches a shard-1 server: consumed (it is
  // addressed to this protocol) but never answered.
  ReadReq wrong(/*op_id=*/42, "key", /*seq=*/1, /*shard=*/0);
  EXPECT_TRUE(server.handle(client_id(0), wrong));
  EXPECT_EQ(server.misrouted_count(), 1u);
  EXPECT_EQ(env.traffic().get("msgs"), 0) << "no reply may leave the server";
  // The right shard id is served.
  ReadReq right(/*op_id=*/43, "key", /*seq=*/1, /*shard=*/1);
  EXPECT_TRUE(server.handle(client_id(0), right));
  EXPECT_EQ(env.traffic().get("msgs"), 1);
}

TEST(ShardMisroute, ShardedClusterSeesNoMisroutedTraffic) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  // Weight 4 each: C2 passes, so the transfer below is
                  // EFFECTIVE and exercises the full T / T_Ack round —
                  // with NO anti-entropy to paper over a dropped ack.
                  .weights(WeightMap::uniform(3, Weight(4)))
                  .shards(3)
                  .clients(2)
                  .runtime(Runtime::kSim)
                  .seed(17)
                  .build();
  std::vector<std::pair<RegisterKey, Value>> batch;
  for (int i = 0; i < 24; ++i) {
    batch.emplace_back("k" + std::to_string(i), "v");
  }
  auto tags = c.client(0).write_batch(batch);
  for (auto& t : tags) t.get();
  TransferOutcome out =
      c.server(1, 0).transfer(c.server_id(1, 1), Weight(1, 4)).get();
  EXPECT_TRUE(out.effective)
      << "an effective transfer must complete in shard 1 (its T_Acks "
         "carry the group's shard id)";
  c.quiesce();
  for (ProcessId s = 0; s < c.num_servers(); ++s) {
    EXPECT_EQ(c.storage_node(s).server().misrouted_count(), 0u)
        << process_name(s);
    EXPECT_EQ(c.reassign_node(s).misrouted_count(), 0u) << process_name(s);
  }
  // Scoped broadcasts: every shard saw real traffic, and the per-shard
  // counters add up to the aggregate. The report folds per-shard
  // counters next to the whole-deployment numbers via merge_prefixed —
  // the shape per-shard metrics reporting uses.
  Counters report = c.traffic();
  std::int64_t sum = 0;
  for (ShardId g = 0; g < 3; ++g) {
    EXPECT_GT(c.shard_traffic(g).get("msgs"), 0) << "shard " << g;
    report.merge_prefixed(c.shard_traffic(g),
                          "shard" + std::to_string(g) + ".");
    sum += c.shard_traffic(g).get("msgs");
  }
  EXPECT_EQ(sum, c.traffic().get("msgs"))
      << "every message belongs to exactly one shard";
  for (ShardId g = 0; g < 3; ++g) {
    EXPECT_EQ(report.get("shard" + std::to_string(g) + ".msgs"),
              c.shard_traffic(g).get("msgs"));
    EXPECT_EQ(report.get("shard" + std::to_string(g) + ".bytes"),
              c.shard_traffic(g).get("bytes"));
  }
}

// --- validated selectors ----------------------------------------------------

TEST(ShardSelectors, VerbsValidateShardAndServerIds) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .clients(1)
                  .uniform_latency(ms(1), ms(5))
                  .runtime(Runtime::kSim)
                  .seed(19)
                  .build();
  EXPECT_EQ(c.server_id(1, 2), 5u);
  try {
    c.crash(/*shard=*/7, /*index=*/0);
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[0, 2)"), std::string::npos);
  }
  try {
    c.slow(/*shard=*/0, /*index=*/3, 2.0);
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[0, 3)"), std::string::npos);
  }
  // Plain verbs validate process ids the same way.
  EXPECT_THROW(c.crash(ProcessId{17}), std::out_of_range);
  EXPECT_THROW(c.partition(0, client_id(9)), std::out_of_range);
  EXPECT_THROW(c.isolate(ProcessId{100}), std::out_of_range);
  EXPECT_THROW(c.shard_traffic(9), std::out_of_range);
  // Valid selectors work.
  c.slow(0, 1, 2.0);
  c.clear_slow(0, 1);
  c.crash(1, 2);
  EXPECT_TRUE(c.is_crashed(5));
}

TEST(ShardSelectors, UnshardedClusterHasNoShardTraffic) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .runtime(Runtime::kSim)
                  .seed(23)
                  .build();
  EXPECT_EQ(c.num_shards(), 1u);
  EXPECT_THROW(c.shard_traffic(0), std::logic_error);
}

TEST(ShardSelectors, ServerWeightsCoverItsOwnShard) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .runtime(Runtime::kSim)
                  .seed(29)
                  .build();
  const WeightMap expected = WeightMap::uniform(3).shifted_by(3);
  ReassignHandle s = c.server(/*shard=*/1, /*index=*/0);
  WeightMap snap = s.weights_snapshot().get();
  EXPECT_EQ(snap.servers(), c.shard_servers(1));
  EXPECT_EQ(snap, expected) << snap.str();
  EXPECT_EQ(s.weights(), expected) << s.weights().str();
}

TEST(ShardSelectors, ShardedRequiresStorageKind) {
  EXPECT_THROW(Cluster::builder().servers(3).shards(2).reassign_only().build(),
               std::invalid_argument);
}

TEST(ShardSelectors, PartitionShardStallsOnlyThatShardUntilHealed) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(2)
                  .retry(ms(50))
                  .uniform_latency(ms(1), ms(5))
                  .runtime(Runtime::kSim)
                  .seed(31)
                  .build();
  auto key_on = [&c](ShardId g) {
    for (int i = 0;; ++i) {
      RegisterKey key = "key" + std::to_string(i);
      if (c.shard_map().shard_of(key) == g) return key;
    }
  };
  const RegisterKey key0 = key_on(0);
  const RegisterKey key1 = key_on(1);

  c.partition_shard(1);
  EXPECT_TRUE(c.client().write(key0, "a").try_get(seconds(5)).has_value());
  Await<Tag> walled = c.client().write(key1, "b");
  EXPECT_FALSE(walled.try_get(seconds(5)).has_value());

  // Messages cut while the wall stood are lost; the client's 50 ms
  // retransmission reaches the healed group.
  c.heal_shard(1);
  ASSERT_TRUE(walled.try_get(seconds(5)).has_value());
  EXPECT_EQ(c.client().read(key1).get().value, "b");
}

// --- Zipfian workload -------------------------------------------------------

TEST(ZipfWorkload, SkewsKeysDeterministically) {
  auto run = [](double theta) {
    WorkloadParams wp;
    wp.num_ops = 400;
    wp.num_keys = 16;
    wp.zipf_theta = theta;
    wp.read_ratio = 0;  // writes create the keys
    wp.target_ops_per_sec = 4000;
    wp.max_in_flight = 32;
    wp.seed = 31;
    Cluster c = Cluster::builder()
                    .servers(3)
                    .shards(4)
                    .clients(1)
                    .workload(wp)
                    .runtime(Runtime::kSim)
                    .seed(31)
                    .build();
    c.workload_done(0).get();
    c.quiesce();
    std::vector<std::size_t> per_shard(4);
    for (ShardId g = 0; g < 4; ++g) {
      per_shard[g] = c.workload(0).shard_completed(g);
    }
    return per_shard;
  };
  std::vector<std::size_t> uniform = run(0);
  std::vector<std::size_t> zipf = run(1.2);
  std::vector<std::size_t> zipf2 = run(1.2);
  EXPECT_EQ(zipf, zipf2) << "seeded zipf runs must be deterministic";
  auto spread = [](const std::vector<std::size_t>& v) {
    return *std::max_element(v.begin(), v.end()) -
           *std::min_element(v.begin(), v.end());
  };
  // The hot keys concentrate on their shards: the skewed run's per-shard
  // imbalance strictly dominates the uniform run's.
  EXPECT_GT(spread(zipf), spread(uniform))
      << "theta=1.2 should visibly skew per-shard load";
}

// --- modeled service time ---------------------------------------------------

TEST(ServiceTime, ShardCapacityScalesOutOnSim) {
  // The scale-out bench's mechanics, pinned deterministically: with a
  // modeled 1ms/request serial server, one 3-server shard sustains
  // ~500 ops/s; two shards sustain ~2x that under the same offered load.
  auto throughput = [](std::uint32_t shards) {
    WorkloadParams wp;
    wp.num_ops = 500;
    wp.num_keys = 128;
    wp.target_ops_per_sec = 1000;
    wp.max_in_flight = 32;
    wp.seed = 37;
    Cluster c = Cluster::builder()
                    .servers(3)
                    .faults(1)
                    .shards(shards)
                    .clients(2)
                    .workload(wp)
                    .service_time(ms(1))
                    .uniform_latency(us(100), us(500))
                    .runtime(Runtime::kSim)
                    .seed(37)
                    .build();
    TimeNs t0 = c.now();
    std::size_t completed = 0;
    for (std::size_t k = 0; k < 2; ++k) {
      c.workload_done(k).get();
      completed += c.workload(k).completed();
    }
    TimeNs t1 = c.now();
    c.quiesce(seconds(60));
    return static_cast<double>(completed) * 1e9 /
           static_cast<double>(t1 - t0);
  };
  double one = throughput(1);
  double two = throughput(2);
  EXPECT_GT(one, 300.0);
  EXPECT_LT(one, 700.0) << "one shard must be capacity-bound, not offered-"
                           "load-bound (the scale-out signal needs this)";
  EXPECT_GT(two / one, 1.4) << "2 shards should sustain ~2x the aggregate";
}

// --- chaos: one shard partitioned while another reassigns -------------------

class ShardChaos : public ::testing::TestWithParam<Runtime> {};

TEST_P(ShardChaos, AtomicityAndPerShardSafetyUnderPartitionPlusReassign) {
  const Runtime rt = GetParam();
  const std::uint64_t seed = 20260727;
  const std::uint32_t shards = 2, n = 3, f = 1;
  const TimeNs horizon = ms(200);

  WorkloadParams wp;
  wp.num_ops = 30;
  wp.read_ratio = 0.5;
  wp.value_size = 8;
  wp.num_keys = 8;
  wp.target_ops_per_sec = 250;
  wp.max_in_flight = 8;
  wp.seed = seed;

  auto history = std::make_shared<HistoryRecorder>();
  Cluster c = Cluster::builder()
                  .servers(n)
                  .faults(f)
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

  // Shard 1 reassigns weights through the whole window...
  testing::TransferStormParams tsp;
  tsp.horizon = horizon;
  tsp.attempts = 5;
  tsp.shard = 1;
  testing::TransferStorm storm(c, seed ^ 0xabcdef, tsp);
  storm.unleash();

  // ...while a scoped nemesis (partitions, storms, a crash) hammers
  // shard 0 and leaves shard 1's links untouched.
  testing::NemesisParams np;
  np.horizon = horizon;
  np.events = 5;
  np.crash_budget = 1;
  np.shard = 0;
  testing::Nemesis nemesis(c, seed ^ 0x123456, np);
  nemesis.unleash();

  // Monotonicity probe: per-server change-set samples through the chaos.
  struct Samples {
    std::mutex mu;
    std::vector<std::vector<ChangeSet>> per_server;
  };
  auto samples = std::make_shared<Samples>();
  samples->per_server.resize(c.num_servers());
  for (ProcessId s = 0; s < c.num_servers(); ++s) {
    ReassignNode* node = &c.server(s).node();
    for (TimeNs t = ms(20); t <= horizon + ms(40); t += ms(20)) {
      c.env().schedule(s, t, [samples, node, s] {
        std::lock_guard lock(samples->mu);
        samples->per_server[s].push_back(node->changes());
      });
    }
  }

  c.run_for(horizon + ms(80));

  // Liveness: every client finishes once shard 0 healed (retry + sync).
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(30)).has_value())
        << "client #" << k << " never finished";
  }
  EXPECT_GT(storm.completed(), 0u);

  // Per-shard convergence: live servers of each group agree, and each
  // group conserves ITS OWN total weight.
  auto probe = [&c](ProcessId s) {
    ReassignNode* node = &c.server(s).node();
    return c.call<ChangeSet>(s,
                             [node](auto done) { done(node->changes()); });
  };
  for (ShardId g = 0; g < shards; ++g) {
    bool converged = false;
    std::vector<ChangeSet> sets;
    for (int round = 0; round < 80 && !converged; ++round) {
      c.run_for(ms(25));
      sets.clear();
      bool missing = false;
      for (ProcessId s : c.shard_servers(g)) {
        if (c.is_crashed(s)) continue;
        auto cs = probe(s).try_get(seconds(10));
        if (!cs.has_value()) {
          missing = true;
          break;
        }
        sets.push_back(*cs);
      }
      if (missing || sets.empty()) continue;
      converged = true;
      for (std::size_t i = 1; i < sets.size(); ++i) {
        if (!(sets[i] == sets[0])) converged = false;
      }
    }
    ASSERT_TRUE(converged) << "shard " << g << " did not converge";
    EXPECT_EQ(sets[0].total(), c.shard_config(g).initial_total())
        << "shard " << g << " must conserve its own total weight";
    if (g == 0) {
      // The nemesis only faulted shard 0; shard 1's transfers must not
      // have leaked into shard 0's change sets.
      for (const Change& ch : sets[0].all()) {
        EXPECT_EQ(c.shard_map().shard_of_server(ch.target()), 0u);
      }
    }
  }

  c.set_anti_entropy(0);
  c.quiesce(seconds(120));

  // Atomicity holds per key across the whole sharded keyspace.
  std::vector<OpRecord> ops = history->completed();
  EXPECT_GT(ops.size(), 0u);
  auto err = check_atomicity(ops);
  EXPECT_FALSE(err.has_value()) << *err;

  // Monotone change sets, per server (and hence per shard).
  {
    std::lock_guard lock(samples->mu);
    for (ProcessId s = 0; s < c.num_servers(); ++s) {
      const auto& seq = samples->per_server[s];
      for (std::size_t i = 1; i < seq.size(); ++i) {
        EXPECT_TRUE(seq[i - 1].subset_of(seq[i]))
            << "change set of " << process_name(s) << " shrank";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, ShardChaos,
                         ::testing::Values(Runtime::kSim, Runtime::kThread));

}  // namespace
}  // namespace wrs
