// socket_demo — the weighted-quorum store as REAL OS processes.
//
// Forks two wrs-node processes (one per shard, 3 servers each) listening
// on ephemeral loopback TCP ports, then drives an atomicity-checked
// read/write workload against them from two socket clients in this
// process. Every protocol message is WireCodec-serialized and crosses
// the kernel; nothing is shared with the server processes but the wire.
//
//   $ socket_demo
//   shard 0 -> tcp:127.0.0.1:40213 (pid 12345)
//   shard 1 -> tcp:127.0.0.1:40214 (pid 12346)
//   ... workload table ...
//   atomicity: OK
//
// Exit code 0 iff the recorded history passed the atomicity checker.
#ifdef __linux__

#include <cstdio>
#include <memory>
#include <vector>

#include "api/await.h"
#include "common/metrics.h"
#include "deploy/node_runner.h"
#include "net/socket_addr.h"
#include "runtime/socket_env.h"
#include "shard/shard_map.h"
#include "storage/history.h"
#include "workload/workload.h"

using namespace wrs;

int main() {
  constexpr std::uint32_t kShards = 2;
  constexpr std::uint32_t kPerShardN = 3;
  constexpr std::uint32_t kPerShardF = 1;
  constexpr std::uint32_t kClients = 2;
  constexpr std::size_t kOpsPerClient = 200;

  // 1. Fork the server processes FIRST — fork() and threads do not mix,
  //    and our own SocketEnv will start a loop thread.
  std::vector<deploy::SpawnedNode> groups;
  for (std::uint32_t g = 0; g < kShards; ++g) {
    deploy::NodeOptions opts;
    opts.shard = g;
    opts.num_shards = kShards;
    opts.servers_per_shard = kPerShardN;
    opts.faults = kPerShardF;
    opts.retry = ms(20);
    groups.push_back(deploy::spawn_node_group(opts));
    std::printf("shard %u -> %s (pid %d)\n", g, groups.back().addr.c_str(),
                static_cast<int>(groups.back().pid));
  }

  // 2. The client side: one SocketEnv, workload clients routing by key.
  ShardMap map = ShardMap::uniform(kShards, kPerShardN, kPerShardF);
  SocketEnv::Options eo;
  eo.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
  SocketEnv env(eo);
  for (std::uint32_t g = 0; g < kShards; ++g) {
    for (ProcessId s : map.servers(g)) {
      env.add_route(s, net::SocketAddr::parse(groups[g].addr));
    }
  }

  auto history = std::make_shared<HistoryRecorder>();
  WorkloadParams wp;
  wp.num_ops = kOpsPerClient;
  wp.read_ratio = 0.5;
  wp.think_time = us(200);
  wp.num_keys = 16;
  wp.value_size = 32;
  wp.seed = 42;

  std::vector<std::unique_ptr<WorkloadClient>> clients;
  std::vector<Await<bool>> done;
  for (std::uint32_t k = 0; k < kClients; ++k) {
    auto c = std::make_unique<WorkloadClient>(env, client_id(k), map, wp,
                                              history);
    c->router().set_retry_interval(ms(100));
    Await<bool> aw;
    c->set_on_done([aw] { aw.fulfill(true); });
    env.register_process(client_id(k), c.get());
    clients.push_back(std::move(c));
    done.push_back(aw);
  }
  env.start();

  for (auto& aw : done) aw.get(seconds(120));

  // 3. Report and verify.
  Table table({"client", "completed", "ops/s", "p50 ms", "p99 ms"});
  for (std::uint32_t k = 0; k < kClients; ++k) {
    const Histogram& lat = clients[k]->op_latency();
    table.add_row({std::string("c").append(std::to_string(k)),
                   std::to_string(clients[k]->completed()),
                   Table::fmt(clients[k]->achieved_ops_per_sec()),
                   Table::fmt(lat.percentile(50) / 1e6),
                   Table::fmt(lat.percentile(99) / 1e6)});
  }
  table.print();
  std::printf("wire: %lld frames out, %lld bytes out, %lld frames in\n",
              static_cast<long long>(env.traffic().get("msgs")),
              static_cast<long long>(env.traffic().get("bytes")),
              static_cast<long long>(env.traffic().get("msgs.in")));

  auto verdict = check_atomicity(history->completed());
  if (verdict.has_value()) {
    std::printf("atomicity: VIOLATION\n%s\n", verdict->c_str());
  } else {
    std::printf("atomicity: OK (%zu ops across %u real server processes)\n",
                history->completed().size(), kShards);
  }

  env.stop();
  for (const auto& g : groups) deploy::stop_node_group(g);
  return verdict.has_value() ? 1 : 0;
}

#else  // !__linux__

#include <cstdio>

int main() {
  std::fprintf(stderr, "socket_demo: the socket runtime requires Linux\n");
  return 0;  // not a failure on platforms without the runtime
}

#endif
