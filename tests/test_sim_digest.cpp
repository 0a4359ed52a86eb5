// Golden digests of three seeded simulator deployments.
//
// A simulated run is a pure function of its seed, so a change to the
// event queue, the process table or any container on the delivery path
// must leave the schedule exactly as it was. Each test folds every
// delivery's (time, from, to, message type) and the final traffic
// counters into one FNV-1a hash and pins it. A changed digest means the
// simulated schedule moved; only a change meant to alter protocol
// behaviour may update a constant here, and it must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "workload/wan_profiles.h"

namespace wrs {
namespace {

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(std::string_view s) {
    add(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Stands in front of a deployed process: folds each delivery into the
/// digest, then hands it on. Registered over the process's pid after the
/// deployment started, so its own on_start (a no-op) is queued behind
/// every event already pending and the deployment's schedule is
/// unchanged.
class Tap : public Process {
 public:
  using Forward = std::function<void(ProcessId, const Message&)>;
  Tap(SimEnv& env, Digest& digest, ProcessId self, Forward forward)
      : env_(env), digest_(digest), self_(self), forward_(std::move(forward)) {}

  void on_message(ProcessId from, const Message& msg) override {
    digest_.add(static_cast<std::uint64_t>(env_.now()));
    digest_.add(from);
    digest_.add(self_);
    digest_.add(msg.type_name());
    ++deliveries;
    forward_(from, msg);
  }

  std::uint64_t deliveries = 0;

 private:
  SimEnv& env_;
  Digest& digest_;
  ProcessId self_;
  Forward forward_;
};

/// Taps every server, every client and the migration engine (if any).
class Taps {
 public:
  Taps(Cluster& c, Digest& digest) {
    SimEnv& env = *c.sim();
    auto tap = [&](ProcessId pid, Tap::Forward fwd) {
      taps_.push_back(std::make_unique<Tap>(env, digest, pid, std::move(fwd)));
      env.register_process(pid, taps_.back().get());
    };
    for (ProcessId s : c.all_server_ids()) {
      Process* p = &c.process(s);
      tap(s, [p](ProcessId from, const Message& m) { p->on_message(from, m); });
    }
    for (std::size_t k = 0; k < c.num_clients(); ++k) {
      ClientHandle h = c.client(k);
      ShardRouter* r = &h.router();
      tap(h.id(), [r](ProcessId from, const Message& m) { r->handle(from, m); });
    }
    if (c.num_shards() > 1) {
      MigrationEngine* e = &c.migration_engine();
      tap(e->pid(),
          [e](ProcessId from, const Message& m) { e->on_message(from, m); });
    }
  }

  std::uint64_t deliveries() const {
    std::uint64_t n = 0;
    for (const auto& t : taps_) n += t->deliveries;
    return n;
  }

 private:
  std::vector<std::unique_ptr<Tap>> taps_;
};

void add_traffic(Digest& digest, const Counters& traffic) {
  for (const auto& [name, value] : traffic.map()) {
    digest.add(name);
    digest.add(static_cast<std::uint64_t>(value));
  }
}

// The paper's EXP-A1 shape: five weighted servers on the continental WAN
// profile with adaptation on; s0 and s1 turn 25x slower during [4 s, 12 s)
// while one client alternates writes and reads.
TEST(SimDigest, AdaptiveWanClusterWithSlowdown) {
  WeightMap weights;
  weights.set(0, Weight(7, 5));
  weights.set(1, Weight(7, 5));
  weights.set(2, Weight(4, 5));
  weights.set(3, Weight(7, 10));
  weights.set(4, Weight(7, 10));
  AdaptiveParams params;
  params.probe_interval = ms(200);
  params.eval_interval = ms(400);
  params.step = Weight(1, 10);
  params.slow_factor = 1.5;

  Cluster c = Cluster::builder()
                  .servers(5)
                  .faults(1)
                  .weights(weights)
                  .wan(continental_profile(), /*client_site=*/0)
                  .seed(7)
                  .adaptive(params)
                  .build();
  Digest digest;
  Taps taps(c, digest);
  c.at(seconds(4), [&] {
    c.slow(0, 25.0);
    c.slow(1, 25.0);
  });
  c.at(seconds(12), [&] {
    c.clear_slow(0);
    c.clear_slow(1);
  });
  ClientHandle client = c.client();
  for (int i = 0; c.now() < seconds(16); ++i) {
    const RegisterKey key = "k" + std::to_string(i % 8);
    if (i % 2 == 0) {
      client.write(key, "v" + std::to_string(i)).get(seconds(60));
    } else {
      client.read(key).get(seconds(60));
    }
    c.run_for(ms(20));
  }
  add_traffic(digest, c.traffic());

  EXPECT_EQ(taps.deliveries(), 13'007u);
  EXPECT_EQ(c.traffic().get("msgs"), 13'017);
  EXPECT_EQ(digest.value(), 1406915237612836523ull);
}

// 4 shards x 3 servers with retransmission, a modeled service time,
// multi-key snapshots and one key migration racing writes and a snapshot.
TEST(SimDigest, ShardedClusterWithSnapshotsAndMigration) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .shards(4)
                  .clients(3)
                  .retry(ms(250))
                  .service_time(ms(1))
                  .uniform_latency(ms(1), ms(10))
                  .seed(11)
                  .build();
  Digest digest;
  Taps taps(c, digest);

  std::vector<RegisterKey> keys;
  for (int i = 0; i < 16; ++i) keys.push_back("k" + std::to_string(i));
  const std::vector<RegisterKey> cut(keys.begin(), keys.begin() + 8);

  for (int round = 0; round < 8; ++round) {
    std::vector<std::pair<RegisterKey, Value>> puts;
    for (const RegisterKey& k : keys) {
      puts.emplace_back(k, k + "@" + std::to_string(round));
    }
    std::vector<Await<Tag>> writes = c.client(0).write_batch(puts);
    std::vector<Await<TaggedValue>> reads = c.client(1).read_batch(keys);
    auto snap = c.client(2).snapshot(cut);
    for (auto& w : writes) w.get(seconds(60));
    for (auto& r : reads) r.get(seconds(60));
    EXPECT_EQ(snap.get(seconds(60)).cut.size(), cut.size());
  }

  const RegisterKey moved = "k3";
  const ShardId to = (c.shard_map().shard_of(moved) + 1) % c.num_shards();
  Await<bool> migrated = c.migrate_key(moved, to);
  std::vector<Await<Tag>> racing;
  for (int i = 0; i < 12; ++i) {
    racing.push_back(c.client(i % 2).write(moved, "race" + std::to_string(i)));
  }
  auto snap = c.client(2).snapshot(cut);
  EXPECT_TRUE(migrated.get(seconds(60)));
  for (auto& w : racing) w.get(seconds(60));
  EXPECT_EQ(snap.get(seconds(60)).cut.size(), cut.size());
  c.quiesce();
  add_traffic(digest, c.traffic());

  EXPECT_EQ(taps.deliveries(), 3'282u);
  EXPECT_EQ(c.traffic().get("msgs"), 3'282);
  EXPECT_EQ(digest.value(), 7967672314275316583ull);
}

// Five servers, two clients with retransmission, under every fault the
// link plane injects: a loss storm, a duplication storm, bounded
// reordering and one partition that later heals. Pins the rng order of
// the fault path (each send's verdict, then its latency draws).
TEST(SimDigest, FaultedClusterWithLossDuplicationReorderAndPartition) {
  Cluster c = Cluster::builder()
                  .servers(5)
                  .faults(1)
                  .clients(2)
                  .retry(ms(40))
                  .uniform_latency(ms(1), ms(8))
                  .seed(23)
                  .build();
  Digest digest;
  Taps taps(c, digest);
  c.drop_all_links(0.1);
  c.duplicate_all_links(0.1);
  c.reorder_links(0.3, ms(6));
  c.at(seconds(1), [&] { c.partition(0, 1); });
  c.at(seconds(2), [&] { c.heal(0, 1); });

  for (int i = 0; c.now() < seconds(3); ++i) {
    const RegisterKey key = "k" + std::to_string(i % 6);
    Await<Tag> w = c.client(0).write(key, "v" + std::to_string(i));
    Await<TaggedValue> r = c.client(1).read(key);
    w.get(seconds(60));
    r.get(seconds(60));
    c.run_for(ms(15));
  }
  c.heal_all_links();
  c.quiesce();
  add_traffic(digest, c.traffic());

  EXPECT_EQ(taps.deliveries(), 2'243u);
  EXPECT_EQ(c.traffic().get("msgs"), 2'306);
  EXPECT_EQ(c.traffic().get("msgs.lost"), 253);
  EXPECT_EQ(c.traffic().get("msgs.dup"), 190);
  EXPECT_EQ(digest.value(), 11634823246637519473ull);
}

}  // namespace
}  // namespace wrs
