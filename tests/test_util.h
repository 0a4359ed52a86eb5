// Shared helpers for the gtest suite: cluster builders on SimEnv and
// convenience runners.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/reassign_node.h"
#include "runtime/sim_env.h"
#include "shard/shard_router.h"
#include "storage/dynamic_node.h"

namespace wrs::test {

/// A simulator with a uniform-latency network, n reassignment servers.
struct ReassignCluster {
  std::unique_ptr<SimEnv> env;
  SystemConfig config;
  std::vector<std::unique_ptr<ReassignNode>> nodes;

  ReassignCluster(std::uint32_t n, std::uint32_t f, std::uint64_t seed,
                  WeightMap initial = WeightMap(), TimeNs lat_lo = ms(1),
                  TimeNs lat_hi = ms(10)) {
    config = initial.size() == 0
                 ? SystemConfig::uniform(n, f)
                 : SystemConfig::make(n, f, std::move(initial));
    env = std::make_unique<SimEnv>(
        std::make_shared<UniformLatency>(lat_lo, lat_hi), seed);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<ReassignNode>(*env, i, config));
      env->register_process(i, nodes.back().get());
    }
    env->start();
  }

  ReassignNode& node(std::uint32_t i) { return *nodes[i]; }
};

/// n dynamic storage nodes (reassign + ABD server) on a SimEnv.
struct StorageCluster {
  std::unique_ptr<SimEnv> env;
  SystemConfig config;
  std::vector<std::unique_ptr<DynamicStorageNode>> nodes;

  StorageCluster(std::uint32_t n, std::uint32_t f, std::uint64_t seed,
                 WeightMap initial = WeightMap(), TimeNs lat_lo = ms(1),
                 TimeNs lat_hi = ms(10)) {
    config = initial.size() == 0
                 ? SystemConfig::uniform(n, f)
                 : SystemConfig::make(n, f, std::move(initial));
    env = std::make_unique<SimEnv>(
        std::make_shared<UniformLatency>(lat_lo, lat_hi), seed);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<DynamicStorageNode>(*env, i, config));
      env->register_process(i, nodes.back().get());
    }
    env->start();
  }

  DynamicStorageNode& node(std::uint32_t i) { return *nodes[i]; }
};

/// A ShardRouter hand-wired over ShardMap::uniform(2, 3, 1) on a SimEnv.
/// The six servers are sinks that record the ReadReqs, WriteReqs and
/// SnapReqs they receive and never answer, so the test itself feeds
/// every reply the router sees.
struct RouterRig {
  struct Collect {
    OpId op;
    std::uint32_t seq;
    std::vector<RegisterKey> keys;
  };
  struct SinkServer : Process {
    std::vector<OpId> reads;
    std::vector<std::uint32_t> read_seqs;
    std::vector<OpId> writes;
    std::vector<Tag> write_tags;
    std::vector<Collect> collects;
    void on_message(ProcessId, const Message& m) override {
      if (const auto* req = msg_cast<ReadReq>(m)) {
        reads.push_back(req->op_id());
        read_seqs.push_back(req->seq());
      } else if (const auto* req = msg_cast<WriteReq>(m)) {
        writes.push_back(req->op_id());
        write_tags.push_back(req->reg().tag);
      } else if (const auto* req = msg_cast<SnapReq>(m)) {
        collects.push_back({req->op_id(), req->seq(), req->keys()});
      }
    }
  };
  struct ClientProc : Process {
    ShardRouter* router = nullptr;
    void on_message(ProcessId from, const Message& m) override {
      router->handle(from, m);
    }
  };

  SimEnv env{std::make_shared<ConstantLatency>(ms(1)), 1};
  ShardRouter router;
  std::vector<SinkServer> servers = std::vector<SinkServer>(6);
  ClientProc client;

  RouterRig() : router(env, client_id(0), ShardMap::uniform(2, 3, 1)) {
    client.router = &router;
    env.register_process(client_id(0), &client);
    for (ProcessId s = 0; s < servers.size(); ++s) {
      env.register_process(s, &servers[s]);
    }
    env.start();
  }

  /// ReadReqs the servers of shard `g` received so far.
  std::size_t reads_at(ShardId g) const {
    std::size_t n = 0;
    for (ProcessId s : router.map().servers(g)) n += servers[s].reads.size();
    return n;
  }

  /// Collects shard `g` has been sent so far (each goes to all three).
  const std::vector<Collect>& collects_at(ShardId g) const {
    return servers[router.map().servers(g).front()].collects;
  }

  /// A redirect for `op` on `key`, as a server of shard `from` sends it.
  void redirect(ShardId from, OpId op, const RegisterKey& key, ShardId owner) {
    ProcessId sender = router.map().servers(from).front();
    router.handle(sender, WrongShardAck(op, key, owner, /*epoch=*/1));
    env.run_to_quiescence();
  }
};

/// Runs the simulator until `pred` holds; fails the test on timeout.
inline void run_until(SimEnv& env, const std::function<bool()>& pred,
                      TimeNs deadline = seconds(300)) {
  ASSERT_TRUE(env.run_until_pred(pred, deadline))
      << "simulation deadline reached at t=" << env.now();
}

/// Seeds for schedule-exploration property tests.
inline std::vector<std::uint64_t> sweep_seeds(std::size_t count,
                                              std::uint64_t base = 1000) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = base + 17 * i;
  return seeds;
}

}  // namespace wrs::test
