// Socket-runtime integration tests (Linux only; the whole file compiles
// away elsewhere and the binary reports zero tests).
//
//  * multi-process: fork real wrs-node groups, drive them over TCP,
//    SIGKILL one and restart it on the same port (liveness);
//  * multi-env in one process: partition mapped onto real connection
//    teardown + reconnect, Unix-domain transport;
//  * single-process loopback Cluster (Runtime::kSocket): 2 shards,
//    batching on/off, atomicity-checked workloads, and the per-shard
//    traffic ledger measured in real encoded bytes;
//  * one byte count: a fixed message sequence charges the same bytes,
//    in total and per shard, on SimEnv, ThreadEnv and SocketEnv.
#ifdef __linux__

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "api/cluster.h"
#include "broadcast/reliable_broadcast.h"
#include "core/reassign_messages.h"
#include "deploy/node_runner.h"
#include "net/socket_addr.h"
#include "net/wire_codec.h"
#include "runtime/sim_env.h"
#include "runtime/socket_env.h"
#include "runtime/thread_env.h"
#include "shard/shard_map.h"
#include "storage/dynamic_node.h"
#include "storage/history.h"
#include "storage/snapshot_messages.h"
#include "workload/workload.h"

namespace wrs {
namespace {

using deploy::NodeOptions;
using deploy::SpawnedNode;

/// One SocketEnv hosting a StorageClient, dialing server groups by
/// static route. Ops run through awaits with no simulator (get() blocks
/// on a condition variable).
struct SocketClient {
  SocketEnv env;
  StorageClient client;
  ProcessId pid = client_id(0);

  SocketClient(ShardMap map, TimeNs retry, std::uint64_t seed = 1)
      : env(make_opts(seed)),
        client(env, client_id(0), std::move(map)) {
    if (retry > 0) client.router().set_retry_interval(retry);
    env.register_process(pid, &client);
  }
  // Members die in reverse order, so `client` would go first while the
  // loop thread may still be running its handlers: stop the loop before.
  ~SocketClient() { env.stop(); }

  static SocketEnv::Options make_opts(std::uint64_t seed) {
    SocketEnv::Options o;
    o.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
    o.seed = seed;
    return o;
  }

  void route_group(const std::vector<ProcessId>& servers,
                   const std::string& addr) {
    for (ProcessId s : servers) {
      env.add_route(s, net::SocketAddr::parse(addr));
    }
  }

  Tag write(const RegisterKey& key, const Value& value,
            TimeNs timeout = seconds(30)) {
    Await<Tag> aw;
    env.schedule(pid, 0, [this, key, value, aw] {
      client.router().write(key, value,
                            [aw](const Tag& t) { aw.fulfill(t); });
    });
    return aw.get(timeout);
  }

  TaggedValue read(const RegisterKey& key, TimeNs timeout = seconds(30)) {
    Await<TaggedValue> aw;
    env.schedule(pid, 0, [this, key, aw] {
      client.router().read(key,
                          [aw](const TaggedValue& tv) { aw.fulfill(tv); });
    });
    return aw.get(timeout);
  }
};

// --- wrs-node flags ----------------------------------------------------------

NodeOptions parse(std::vector<const char*> args) {
  args.insert(args.begin(), "wrs-node");
  return deploy::parse_node_flags(static_cast<int>(args.size()), args.data());
}

TEST(NodeFlags, AcceptsEveryFlag) {
  NodeOptions o = parse({"--shard=1", "--num-shards=2", "--servers=5",
                         "--faults=2", "--listen=unix:node.sock",
                         "--service-time-us=100", "--retry-ms=10",
                         "--anti-entropy-ms=25", "--seed=9", "--ready-fd=4"});
  EXPECT_EQ(o.shard, 1u);
  EXPECT_EQ(o.num_shards, 2u);
  EXPECT_EQ(o.servers_per_shard, 5u);
  EXPECT_EQ(o.faults, 2u);
  EXPECT_EQ(o.listen, "unix:node.sock");
  EXPECT_EQ(o.service_time, us(100));
  EXPECT_EQ(o.retry, ms(10));
  EXPECT_EQ(o.anti_entropy, ms(25));
  EXPECT_EQ(o.seed, 9u);
  EXPECT_EQ(o.ready_fd, 4);

  NodeOptions defaults = parse({});
  EXPECT_EQ(defaults.shard, 0u);
  EXPECT_EQ(defaults.listen, "tcp:127.0.0.1:0");
  EXPECT_EQ(defaults.ready_fd, -1);
}

TEST(NodeFlags, RejectsUnknownMalformedAndValuelessFlags) {
  EXPECT_THROW(parse({"--shards=2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--shard=1x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed=-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--shard=4294967296"}), std::invalid_argument);
  EXPECT_THROW(parse({"--retry-ms"}), std::invalid_argument);
  EXPECT_THROW(parse({"shard=1"}), std::invalid_argument);
}

// --- multi-process -----------------------------------------------------------
// Declared first: fork() happens before any test has started (and
// stopped) in-process loop threads.

TEST(SocketMultiProcess, KillMinusNineThenRestartOnSamePort) {
  NodeOptions opts;
  opts.shard = 0;
  opts.num_shards = 1;
  opts.servers_per_shard = 3;
  opts.faults = 1;
  opts.retry = ms(20);
  SpawnedNode node = deploy::spawn_node_group(opts);
  ASSERT_FALSE(node.addr.empty());

  ShardMap map = ShardMap::uniform(1, 3, 1);
  SocketClient c(map, /*retry=*/ms(50));
  c.route_group(map.servers(0), node.addr);
  c.env.start();

  Tag t1 = c.write("k", "before-kill");
  EXPECT_EQ(c.read("k").value, "before-kill");

  // kill -9: no goodbye, connections die mid-stream.
  deploy::kill_node_group(node);

  // Restart the whole group on the SAME address (fresh state; liveness,
  // not durability, is what the runtime owes us here).
  opts.listen = node.addr;
  SpawnedNode reborn = deploy::spawn_node_group(opts);
  ASSERT_EQ(reborn.addr, node.addr);

  Tag t2 = c.write("k", "after-restart", seconds(60));
  EXPECT_EQ(c.read("k", seconds(60)).value, "after-restart");
  (void)t1;
  (void)t2;

  deploy::stop_node_group(reborn);
  c.env.stop();
}

TEST(SocketMultiProcess, TwoShardGroupsServeDisjointKeyspace) {
  NodeOptions opts;
  opts.num_shards = 2;
  opts.servers_per_shard = 3;
  opts.faults = 1;
  opts.shard = 0;
  SpawnedNode g0 = deploy::spawn_node_group(opts);
  opts.shard = 1;
  SpawnedNode g1 = deploy::spawn_node_group(opts);

  ShardMap map = ShardMap::uniform(2, 3, 1);
  SocketClient c(map, /*retry=*/ms(50));
  c.route_group(map.servers(0), g0.addr);
  c.route_group(map.servers(1), g1.addr);
  c.env.start();

  // Enough keys to hit both shards with near-certainty.
  for (int k = 0; k < 8; ++k) {
    std::string key = "key" + std::to_string(k);
    c.write(key, "v" + std::to_string(k));
  }
  for (int k = 0; k < 8; ++k) {
    std::string key = "key" + std::to_string(k);
    EXPECT_EQ(c.read(key).value, "v" + std::to_string(k));
  }

  deploy::stop_node_group(g0);
  deploy::stop_node_group(g1);
  c.env.stop();
}

// --- multi-env in one process -----------------------------------------------

TEST(SocketMultiEnv, PartitionTearsDownRealConnections) {
  // One env hosts the whole group (like a node process), one the client.
  ShardMap map = ShardMap::uniform(1, 3, 1);
  const SystemConfig& cfg = map.config(0);

  SocketEnv::Options so;
  so.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
  SocketEnv server_env(so);
  std::vector<std::unique_ptr<DynamicStorageNode>> nodes;
  for (ProcessId s : cfg.servers()) {
    nodes.push_back(std::make_unique<DynamicStorageNode>(server_env, s, cfg));
    server_env.register_process(s, nodes.back().get());
  }
  server_env.start();
  std::string addr = server_env.listen_addr().str();

  SocketClient c(map, /*retry=*/ms(25));
  c.route_group(cfg.servers(), addr);
  c.env.start();

  c.write("k", "v1");
  ASSERT_EQ(c.read("k").value, "v1");
  std::uint64_t opened_before = c.env.transport().conns_opened();
  ASSERT_GE(opened_before, 1u);

  // Cut the client off from every server: the client env's fault poll
  // must tear the underlying connection down for real.
  for (ProcessId s : cfg.servers()) {
    c.env.faults().partition(c.pid, s);
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (c.env.fault_teardowns() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(c.env.fault_teardowns(), 1u);
  EXPECT_GE(c.env.transport().conns_closed(), 1u);

  // Heal: the retrying client redials (fresh connection) and finishes.
  c.env.faults().heal_all();
  EXPECT_EQ(c.read("k", seconds(60)).value, "v1");
  EXPECT_GT(c.env.transport().conns_opened(), opened_before);

  c.env.stop();
  server_env.stop();
}

TEST(SocketMultiEnv, UnixDomainTransport) {
  std::string path = "/tmp/wrs_socket_test_" + std::to_string(::getpid()) +
                     ".sock";
  ShardMap map = ShardMap::uniform(1, 3, 1);
  const SystemConfig& cfg = map.config(0);

  SocketEnv::Options so;
  so.listen = net::SocketAddr::parse("unix:" + path);
  SocketEnv server_env(so);
  std::vector<std::unique_ptr<DynamicStorageNode>> nodes;
  for (ProcessId s : cfg.servers()) {
    nodes.push_back(std::make_unique<DynamicStorageNode>(server_env, s, cfg));
    server_env.register_process(s, nodes.back().get());
  }
  server_env.start();
  EXPECT_EQ(server_env.listen_addr().str(), "unix:" + path);

  SocketClient c(map, /*retry=*/ms(50));
  c.route_group(cfg.servers(), "unix:" + path);
  c.env.start();

  c.write("u", "over-unix-sockets");
  EXPECT_EQ(c.read("u").value, "over-unix-sockets");

  c.env.stop();
  server_env.stop();
}

// --- single-process loopback Cluster ----------------------------------------

struct SmokeResult {
  std::size_t completed = 0;
  std::uint64_t envelopes = 0;
};

/// Runs a 2-shard atomicity-checked workload on Runtime::kSocket and
/// asserts the real-bytes shard ledger partitions the aggregate.
SmokeResult run_loopback_smoke(std::size_t batch_window) {
  auto history = std::make_shared<HistoryRecorder>();
  WorkloadParams wp;
  wp.num_ops = 40;
  wp.read_ratio = 0.5;
  wp.think_time = us(200);
  wp.num_keys = 8;
  wp.value_size = 24;
  wp.seed = 11;

  ClusterBuilder b = Cluster::builder()
                         .servers(3)
                         .faults(1)
                         .shards(2)
                         .clients(2)
                         .workload(wp)
                         .history(history)
                         .retry(ms(100))
                         .runtime(Runtime::kSocket)
                         .seed(11);
  if (batch_window > 1) b.batching(batch_window, ms(1));
  Cluster c = b.build();

  SmokeResult r;
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(c.workload_done(k).get(seconds(120)));
  }
  c.quiesce();
  for (std::size_t k = 0; k < 2; ++k) {
    r.completed += c.workload(k).completed();
    r.envelopes += c.workload(k).router().batches_sent();
  }
  EXPECT_EQ(r.completed, 2 * wp.num_ops);

  auto verdict = check_atomicity(history->completed());
  EXPECT_FALSE(verdict.has_value()) << *verdict;

  // Satellite: per-shard traffic — measured in REAL encoded frame bytes
  // on this transport — still partitions the aggregate exactly.
  std::int64_t shard_msgs = 0, shard_bytes = 0;
  for (ShardId g = 0; g < 2; ++g) {
    EXPECT_GT(c.shard_traffic(g).get("msgs"), 0) << "shard " << g;
    shard_msgs += c.shard_traffic(g).get("msgs");
    shard_bytes += c.shard_traffic(g).get("bytes");
  }
  EXPECT_EQ(shard_msgs, c.traffic().get("msgs"));
  EXPECT_EQ(shard_bytes, c.traffic().get("bytes"));
  EXPECT_GT(shard_bytes, 0);
  return r;
}

TEST(SocketCluster, LoopbackWorkloadIsAtomic) {
  run_loopback_smoke(/*batch_window=*/1);
}

TEST(SocketCluster, LoopbackBatchedWorkloadIsAtomic) {
  SmokeResult r = run_loopback_smoke(/*batch_window=*/8);
  // Batching actually engaged: ops were coalesced into envelopes.
  EXPECT_GT(r.envelopes, 0u);
}

TEST(SocketCluster, FaultVerbsAndCrashOnRealSockets) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .faults(1)
                  .clients(1)
                  .retry(ms(25))
                  .runtime(Runtime::kSocket)
                  .seed(3)
                  .build();

  EXPECT_EQ(c.runtime(), Runtime::kSocket);
  ASSERT_NE(c.sockets(), nullptr);
  EXPECT_EQ(c.sim(), nullptr);
  EXPECT_EQ(c.threads(), nullptr);

  c.client().write("k", "v0").get(seconds(30));

  // Isolate one server: the 2-of-3 weighted quorum still serves.
  c.isolate(2);
  c.client().write("k", "v1").get(seconds(60));
  EXPECT_EQ(c.client().read("k").get(seconds(60)).value, "v1");
  c.heal_all_links();

  // Crash-stop a different server: still 2 of 3.
  c.crash(1);
  c.client().write("k", "v2").get(seconds(60));
  EXPECT_EQ(c.client().read("k").get(seconds(60)).value, "v2");
}

TEST(SocketCluster, SocketsIsNullOnSimAndThreads) {
  Cluster sim = Cluster::builder().servers(3).runtime(Runtime::kSim).build();
  EXPECT_EQ(sim.sockets(), nullptr);
  EXPECT_NE(sim.sim(), nullptr);
  Cluster threads =
      Cluster::builder().servers(3).runtime(Runtime::kThread).build();
  EXPECT_EQ(threads.sockets(), nullptr);
  EXPECT_NE(threads.threads(), nullptr);
}

TEST(SocketCluster, EveryServerRoleRunsOnSockets) {
  {  // default storage role
    Cluster c =
        Cluster::builder().servers(3).runtime(Runtime::kSocket).build();
    c.client().write("k", "v").get(seconds(30));
    EXPECT_EQ(c.client().read("k").get(seconds(30)).value, "v");
  }
  {  // adaptive(): the monitor's probes share the wire with a transfer
    AdaptiveParams ap;
    ap.adaptation_enabled = false;  // only the explicit transfer moves weight
    Cluster c = Cluster::builder()
                    .servers(4)
                    .adaptive(ap)
                    .runtime(Runtime::kSocket)
                    .build();
    TransferOutcome o = c.server(0).transfer(1, Weight(1, 4)).get(seconds(30));
    EXPECT_TRUE(o.effective);
    EXPECT_EQ(c.server(0).weights_snapshot().get(seconds(30)).of(0),
              Weight(3, 4));
  }
  {  // reassign_only(): a reassignment-service client's read_changes
    Cluster c = Cluster::builder()
                    .servers(4)
                    .reassign_only()
                    .runtime(Runtime::kSocket)
                    .build();
    EXPECT_TRUE(
        c.server(0).transfer(1, Weight(1, 8)).get(seconds(30)).effective);
    ChangeSet cs = c.reassign_client().read_changes(0).get(seconds(30));
    EXPECT_EQ(cs.weight_of(0), Weight(7, 8));
  }
}

// --- one byte count across runtimes ----------------------------------------

/// Counts every delivered message (any type).
class SinkProcess : public Process {
 public:
  void on_message(ProcessId, const Message&) override { ++count; }
  std::atomic<int> count{0};
};

SocketEnv::Options loopback_options() {
  SocketEnv::Options so;
  so.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
  return so;
}

TEST(SocketTimers, SameDelayTimersFireInScheduleOrder) {
  SocketEnv env(loopback_options());
  SinkProcess a;
  env.register_process(0, &a);
  env.start();
  constexpr int kTimers = 500;
  std::vector<int> order;  // touched only by the loop thread
  Await<bool> done;
  for (int i = 0; i < kTimers; ++i) {
    env.schedule(0, ms(20), [&order, done, i] {
      order.push_back(i);
      if (i == kTimers - 1) done.fulfill(true);
    });
  }
  ASSERT_TRUE(done.try_get(seconds(10)).has_value());
  env.stop();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) EXPECT_EQ(order[i], i);
}

TEST(SocketTimers, TimerCapturesReleasedWhenGatedOrDestroyed) {
  auto token = std::make_shared<int>(0);
  {
    SocketEnv env(loopback_options());
    SinkProcess a;
    SinkProcess b;
    env.register_process(0, &a);
    env.register_process(1, &b);
    env.start();
    std::atomic<bool> fired{false};
    env.crash(1);
    env.schedule(1, ms(20), [token, &fired] { fired.store(true); });
    env.schedule(0, seconds(60), [token] {});  // still pending at stop
    Await<bool> later;
    env.schedule(0, ms(40), [later] { later.fulfill(true); });
    ASSERT_TRUE(later.try_get(seconds(10)).has_value());
    // The timer gate refused the crashed pid's callback when it came
    // due; its capture died with it.
    EXPECT_FALSE(fired.load());
    EXPECT_EQ(token.use_count(), 2);
    env.stop();
  }
  EXPECT_EQ(token.use_count(), 1);
}

struct Routed {
  ProcessId from;
  ProcessId to;
  MsgPtr msg;
};

/// The fixed sequence covers every variable-size shape the codec sizes:
/// a change set on a reply, a batch envelope, a reliable-broadcast
/// wrapper, and snapshot entries. Servers 0-2 are shard 0, 3-5 shard 1.
std::vector<Routed> byte_sequence() {
  ChangeSet cs;
  cs.add(Change(0, kFirstCounter, 0, Weight(-1, 5)));
  cs.add(Change(0, kFirstCounter, 1, Weight(1, 5)));
  cs.add(Change(2, kFirstCounter + 3, 2, Weight(7, 3)));
  SnapEntry a;
  a.key = "alpha";
  a.reg = TaggedValue{Tag{4, 3}, "value-a"};
  SnapEntry b;
  b.key = "b";
  b.reg = TaggedValue{Tag{9, 4}, ""};
  b.flag = SnapEntry::kMoved;
  b.owner = 0;
  b.epoch = 5;
  const ProcessId client = client_id(0);
  return {
      {client, 0, std::make_shared<ReadReq>(1, "key-1", 1, 0)},
      {0, client,
       std::make_shared<ReadAck>(1, TaggedValue{Tag{3, 0}, "some value"},
                                 std::make_shared<const ChangeSet>(cs), 1)},
      {client, 3,
       std::make_shared<BatchRequest>(
           1, std::vector<MsgPtr>{
                  std::make_shared<ReadReq>(2, "x", 1, 1),
                  std::make_shared<WriteReq>(3, TaggedValue{Tag{2, 1}, "w"},
                                             "y", 2, 1),
                  std::make_shared<ReadReq>(4, "zz", 1, 1)})},
      {0, 1,
       std::make_shared<RbMsg>(
           0, 7,
           std::make_shared<TransferMsg>(
               Change(0, kFirstCounter + 1, 0, Weight(-1, 10)),
               Change(0, kFirstCounter + 1, 1, Weight(1, 10)), 0))},
      {3, client,
       std::make_shared<SnapAck>(5, std::vector<SnapEntry>{a, b}, nullptr, 2,
                                 true)},
  };
}

/// Enables 2-shard traffic counters and registers one sink per pid the
/// sequence addresses.
void prepare(Env& env, std::vector<SinkProcess>& sinks) {
  env.enable_shard_traffic(2, [](ProcessId from, ProcessId to) {
    ProcessId server = is_client(to) ? from : to;
    return static_cast<int>(server / 3);
  });
  const std::vector<ProcessId> pids = {0, 1, 3, client_id(0)};
  for (std::size_t i = 0; i < pids.size(); ++i) {
    env.register_process(pids[i], &sinks[i]);
  }
}

void send_all(Env& env, const std::vector<Routed>& seq) {
  for (const Routed& r : seq) env.send(r.from, r.to, r.msg);
}

int delivered(const std::vector<SinkProcess>& sinks) {
  int n = 0;
  for (const SinkProcess& s : sinks) n += s.count.load();
  return n;
}

/// Waits (wall clock, bounded) until a threaded runtime delivered `n`.
void wait_delivered(const std::vector<SinkProcess>& sinks, int n) {
  for (int spin = 0; spin < 5000 && delivered(sinks) < n; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// "bytes" in total, then per shard.
std::vector<std::int64_t> bytes_charged(const Env& env) {
  return {env.traffic().get("bytes"), env.shard_traffic(0).get("bytes"),
          env.shard_traffic(1).get("bytes")};
}

TEST(OneByteCount, SimThreadsAndSocketsChargeIdenticalBytes) {
  const std::vector<Routed> seq = byte_sequence();
  const int n = static_cast<int>(seq.size());
  std::int64_t encoded = 0;
  for (const Routed& r : seq) {
    encoded += static_cast<std::int64_t>(
        net::WireCodec::encode_frame(r.from, r.to, *r.msg).size());
  }

  SimEnv sim(std::make_shared<ConstantLatency>(ms(1)), 1);
  std::vector<SinkProcess> sim_sinks(4);
  prepare(sim, sim_sinks);
  sim.start();
  send_all(sim, seq);
  sim.run_to_quiescence();
  EXPECT_EQ(delivered(sim_sinks), n);
  const std::vector<std::int64_t> on_sim = bytes_charged(sim);

  ThreadEnv threads;
  std::vector<SinkProcess> thread_sinks(4);
  prepare(threads, thread_sinks);
  threads.start();
  send_all(threads, seq);
  wait_delivered(thread_sinks, n);
  threads.stop();
  EXPECT_EQ(delivered(thread_sinks), n);
  const std::vector<std::int64_t> on_threads = bytes_charged(threads);

  SocketEnv::Options so;
  so.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
  SocketEnv sockets(so);
  std::vector<SinkProcess> socket_sinks(4);
  prepare(sockets, socket_sinks);
  sockets.start();
  send_all(sockets, seq);
  wait_delivered(socket_sinks, n);
  sockets.stop();
  EXPECT_EQ(delivered(socket_sinks), n);
  const std::vector<std::int64_t> on_sockets = bytes_charged(sockets);

  EXPECT_EQ(on_sim[0], encoded);
  EXPECT_EQ(on_sim[1] + on_sim[2], encoded);
  EXPECT_GT(on_sim[2], 0);
  EXPECT_EQ(on_threads, on_sim);
  EXPECT_EQ(on_sockets, on_sim);
}

}  // namespace
}  // namespace wrs

#endif  // __linux__
