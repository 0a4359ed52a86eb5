// wrs::Cluster — the declarative deployment facade.
//
// Every entry point used to hand-wire the same ~60 lines: build a
// SystemConfig, pick an Env, loop register_process over freshly
// constructed nodes, then poll bool flags through run_until_pred. The
// facade owns all of that once:
//
//   Cluster c = Cluster::builder()
//                   .servers(4)
//                   .faults(1)
//                   .uniform_latency(ms(1), ms(10))
//                   .runtime(Runtime::kSim)  // or kThread, kSocket
//                   .build();
//   Tag t = c.client().write("hello").get();
//   TaggedValue tv = c.client().read().get();
//   TransferOutcome o = c.server(3).transfer(0, Weight(1, 4)).get();
//
// Operations pipeline through one client: issue many awaits (or a
// read_batch/write_batch) before getting any, then fan in —
//
//   auto tags = when_all(c.client().write_batch({{"a", "1"}, {"b", "2"}}))
//                   .get();
//   auto ab = when_all(c.client().read("a"), c.client().read("b")).get();
//
// The SAME driver source runs on the deterministic simulator, the
// thread-per-process runtime, or real loopback sockets by flipping the
// builder's Runtime enum: Await<T>::get runs the simulator's event loop
// or blocks on a condition variable as appropriate (see api/await.h).
// Every verb reaches its process through Cluster::call(pid, start),
// which posts start(done) into that process's execution context and
// returns the Await that done fulfills — the one bridge from driver code
// into a process, open to drivers for operations the handles lack.
//
// Scenario injection is first-class: crash(s), slow(s, factor) /
// clear_slow(s), and set_latency(...) reshape the deployment mid-run, so
// fault and geo scripts read declaratively. The fault plane adds link
// verbs: partition(a, b) / heal(a, b), partition_split(side), isolate(p),
// drop_link / drop_all_links(p), duplicate_link / duplicate_all_links(p),
// reorder_links(p, max) (sim-only), heal_all_links(). Cut or dropped
// messages are LOST (healing does not resurrect them), so chaos
// deployments opt into liveness hardening at build time:
//
//   Cluster c = Cluster::builder()
//                   .servers(5).clients(2)
//                   .retry(ms(10))          // ABD phase retransmission
//                   .anti_entropy(ms(25))   // <SYNC> change-set gossip
//                   .seed(seed)             // replay: same seed, same run
//                   .build();
//   c.partition(0, 1);                      // ... chaos ...
//   c.heal(0, 1);
//
// On Runtime::kSim an entire chaos episode — including every drop,
// duplication, and reordering decision — is a pure function of the seed,
// so any failure replays bit-for-bit (see src/testing/nemesis.h and
// tests/test_chaos_fuzz.cpp for the seeded scenario drivers).
//
// Sharded deployments scale the keyspace out over independent replica
// groups: builder.shards(g) deploys g groups of servers(n) servers each
// (global server ids are shard-major: shard g owns [g*n, (g+1)*n)), and
// every client routes operations by key through a ShardRouter. Weight
// reassignment becomes a per-shard knob — each group runs its own
// ReassignNode protocol — and the scenario verbs grow shard selectors:
//
//   Cluster c = Cluster::builder()
//                   .servers(3).shards(4).clients(2)
//                   .service_time(ms(1))   // modeled per-server capacity
//                   .build();
//   c.crash(/*shard=*/2, /*index=*/0);     // server s6
//   c.partition_shard(1);                  // wall off group 1
//   c.server(3, 1).transfer(c.server_id(3, 0), Weight(1, 4));
//
// shards(1) (or never calling shards) is byte-for-byte today's
// unsharded deployment — one group, key "" included. All shard and
// server ids are validated and errors name the offender + valid range.
//
// The wire protocol can BATCH: builder.batching(max_ops, max_delay)
// makes every client coalesce same-shard phase broadcasts issued within
// `max_delay` of each other into one BatchRequest envelope (flushed
// early at `max_ops` frames), which servers answer with one BatchReply —
// cutting msgs/op by the mean batch size at unchanged protocol
// semantics. batching(1) is byte-identical to the unbatched wire
// protocol, and bench/paper's EXP-SH3 gates on the batched/unbatched
// msgs-per-op ratio (see README "Wire protocol & batching").
//
// Multi-key reads can be ATOMIC: client().snapshot({"a", "b", "c"})
// resolves to a consistent cut across the named keys — and across the
// shards that own them — via repeated pipelined collects with a fenced
// wait-free fallback under contention (see shard/shard_router.h). The
// history checker validates recorded cuts against per-cut consistency
// and pairwise comparability (storage/history.h, conditions S1/S2).
//
// The low-level Env/Process API stays public — protocol internals and
// white-box tests keep using it; the facade is the deployment surface.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "api/await.h"
#include "core/config.h"
#include "core/reassign_client.h"
#include "monitor/adaptive_node.h"
#include "rebalance/rebalancer.h"
#include "runtime/sim_env.h"
#include "runtime/thread_env.h"
#include "shard/shard_map.h"
#include "storage/dynamic_node.h"
#include "workload/wan_profiles.h"
#include "workload/workload.h"

namespace wrs {

/// Which substrate the deployment runs on. Protocols cannot tell the
/// difference; drivers should not have to either. kSim is the seeded
/// discrete-event simulator (SimEnv). kThread runs each process on its
/// own worker thread and hands messages between in-process mailboxes
/// (ThreadEnv). kSocket WireCodec-serializes every message and routes it
/// through this process's own TCP listener via a SocketEnv
/// (src/runtime/socket_env.h): a real kernel round trip per message,
/// wall-clock time, Linux only.
enum class Runtime { kSim, kThread, kSocket };

class SocketEnv;
class Cluster;
class ClusterBuilder;

/// Awaitable storage endpoint: wraps one deployed client process (a
/// StorageClient, or a WorkloadClient when a workload is attached).
///
/// Operations PIPELINE: the underlying AbdClient multiplexes any number
/// of in-flight operations, so issuing several awaits before the first
/// .get() overlaps their quorum rounds (ops on the same key keep issue
/// order). read_batch/write_batch issue a whole batch in one hop into
/// the client's execution context; fan the results in with
/// when_all(awaits).get() or Await<T>::then.
class ClientHandle {
 public:
  /// Atomic read of register `key` (the paper's register is key "").
  /// Sharded deployments route the op to the key's shard.
  Await<TaggedValue> read(RegisterKey key = {}) const;

  /// Atomic write; resolves to the tag the value was written under.
  Await<Tag> write(Value value) const { return write(RegisterKey{}, value); }
  Await<Tag> write(RegisterKey key, Value value) const;

  /// Pipelined batch reads: all keys issued before any completes; the
  /// k-th await resolves to the k-th key's (tag, value).
  std::vector<Await<TaggedValue>> read_batch(
      std::vector<RegisterKey> keys) const;

  /// Pipelined batch writes; the k-th await resolves to the k-th put's
  /// write tag. Puts to distinct keys proceed concurrently.
  std::vector<Await<Tag>> write_batch(
      std::vector<std::pair<RegisterKey, Value>> puts) const;

  /// Atomic multi-key snapshot: resolves to a cut of the given registers
  /// (possibly spanning shards) that is CONSISTENT — some instant of the
  /// linearization holds exactly these (tag, value) pairs, even while
  /// writers and key migrations race the scan. Double-collect first, a
  /// bounded fenced fallback under contention (see ShardRouter::snapshot;
  /// the switch-over comes after six collect rounds).
  /// The result also reports rounds taken and whether the fallback ran.
  Await<ShardRouter::SnapshotResult> snapshot(
      std::vector<RegisterKey> keys) const;

  /// Discovers every register key stored at some weighted quorum (on a
  /// sharded deployment: the union over every shard's quorum).
  Await<std::vector<RegisterKey>> list_keys() const;

  /// Low-level escape hatch (callback API, client-context only);
  /// router().shard_client(g) is shard g's AbdClient.
  ShardRouter& router() const { return *router_; }
  ProcessId id() const { return id_; }

 private:
  friend class Cluster;
  ClientHandle(Cluster* cluster, ProcessId id, ShardRouter* router)
      : cluster_(cluster), id_(id), router_(router) {}

  Cluster* cluster_;
  ProcessId id_;
  ShardRouter* router_;
};

/// Awaitable reassignment endpoint of one deployed server.
class ReassignHandle {
 public:
  /// Algorithm 4: moves `delta` of this server's weight to `to`. Resolves
  /// when the transfer completed (effective or null).
  Await<TransferOutcome> transfer(ProcessId to, const Weight& delta) const;

  /// Algorithm 3: read_changes(target) issued from this server.
  Await<ChangeSet> read_changes(ProcessId target) const;

  /// Weight map snapshot taken in the server's own execution context —
  /// the race-free way to observe convergence on the thread runtime.
  Await<WeightMap> weights_snapshot() const;

  /// Direct accessors; on the thread runtime only safe when the
  /// deployment is quiescent (use weights_snapshot() while it runs).
  ReassignNode& node() const { return *node_; }
  Weight weight_of(ProcessId server) const { return node_->weight_of(server); }
  WeightMap weights() const;

  ProcessId id() const { return id_; }

 private:
  friend class Cluster;
  ReassignHandle(Cluster* cluster, ProcessId id, ReassignNode* node)
      : cluster_(cluster), id_(id), node_(node) {}

  Cluster* cluster_;
  ProcessId id_;
  ReassignNode* node_;
};

/// Awaitable endpoint of a reassignment-service client (reassign-only
/// deployments): may invoke read_changes but never transfer.
class ReassignClientHandle {
 public:
  Await<ChangeSet> read_changes(ProcessId target) const;
  ProcessId id() const { return id_; }

 private:
  friend class Cluster;
  ReassignClientHandle(Cluster* cluster, ProcessId id, ReassignClient* client)
      : cluster_(cluster), id_(id), client_(client) {}

  Cluster* cluster_;
  ProcessId id_;
  ReassignClient* client_;
};

class ClusterBuilder {
 public:
  /// --- topology ----------------------------------------------------------
  /// Servers PER SHARD (unsharded deployments have exactly one shard).
  ClusterBuilder& servers(std::uint32_t n) { n_ = n; return *this; }
  /// Fault threshold per shard; unset derives the maximum (n-1)/2.
  ClusterBuilder& faults(std::uint32_t f) { faults_ = f; return *this; }
  /// Initial weight assignment, keyed 0..n-1; defaults to uniform weight
  /// 1 per server. Sharded deployments apply it as every shard's
  /// per-group template.
  ClusterBuilder& weights(WeightMap w) { weights_ = std::move(w); return *this; }
  /// Sharded keyspace: `s` independent replica groups of servers(n)
  /// servers each, client operations routed by key. shards(1) behaves
  /// identically to an unsharded deployment. Storage deployments only
  /// (incompatible with adaptive()/reassign_only()).
  ClusterBuilder& shards(std::uint32_t s) {
    shards_ = s;
    has_shards_ = true;
    return *this;
  }
  /// Modeled serial per-request service time of every storage server
  /// (an M/D/1-style busy-until queue; see AbdServer). Gives each node a
  /// finite capacity of 1/t requests per second on BOTH runtimes — the
  /// per-shard bottleneck scale-out benchmarks measure against. 0 (the
  /// default) replies inline, event-identical to the unmodeled server.
  ClusterBuilder& service_time(TimeNs per_request) {
    service_time_ = per_request;
    return *this;
  }

  /// Batched wire protocol for every deployed client (including clients
  /// added mid-run): same-shard phase broadcasts issuable within
  /// `max_delay` of each other coalesce into one BatchRequest envelope of
  /// up to `max_ops` frames, servers answer each envelope with one
  /// BatchReply, and the client demultiplexes — cutting the per-operation
  /// message constant by the mean batch size while per-key FIFO, unique
  /// write tags, retries, and change-set restarts stay untouched.
  /// batching(1) (or never calling batching) is byte-identical to the
  /// unbatched wire protocol — pinned in tests like shards(1).
  ClusterBuilder& batching(std::size_t max_ops, TimeNs max_delay = 0) {
    batch_ops_ = max_ops;
    batch_delay_ = max_delay;
    return *this;
  }

  /// --- substrate ---------------------------------------------------------
  /// Runtime::kSocket deploys everything in this process over real
  /// loopback sockets. Every server role and client runs on all three
  /// runtimes.
  ClusterBuilder& runtime(Runtime r) { runtime_ = r; return *this; }
  /// Seed for every seeded decision in the deployment (latency draws,
  /// fault-plane coin flips): same seed, same run on the simulator.
  ClusterBuilder& seed(std::uint64_t s) { seed_ = s; return *this; }

  /// --- fault-tolerance hardening ------------------------------------------
  /// ABD phase retransmission interval for every client in the deployment
  /// (including each storage node's internal refresh client). Off by
  /// default; REQUIRED for liveness when the fault plane loses messages.
  ClusterBuilder& retry(TimeNs interval) {
    retry_ = interval;
    return *this;
  }
  /// Periodic server anti-entropy (<SYNC> change-set broadcast). Off by
  /// default; makes reassignment state converge under message loss.
  ClusterBuilder& anti_entropy(TimeNs period) {
    anti_entropy_ = period;
    return *this;
  }
  ClusterBuilder& latency(std::shared_ptr<LatencyModel> model);
  ClusterBuilder& uniform_latency(TimeNs lo, TimeNs hi);
  /// Geo deployment: servers map round-robin onto the profile's sites,
  /// clients sit at `client_site`.
  ClusterBuilder& wan(const WanProfile& profile, std::size_t client_site = 0);

  /// --- server role -------------------------------------------------------
  /// Default: DynamicStorageNode servers (reassignment + weighted ABD).
  /// At most one of adaptive()/reassign_only() may be chosen; a second
  /// choice throws std::logic_error at build-spec time rather than
  /// silently winning. Protocols outside these roles (consensus
  /// reductions, baselines) register their processes on an Env directly.
  /// Attach the monitoring/adaptation loop (AdaptiveNode servers).
  ClusterBuilder& adaptive(AdaptiveParams params);
  /// Reassignment service only (plain ReassignNode servers, clients are
  /// ReassignClients).
  ClusterBuilder& reassign_only() { set_kind(Kind::kReassign); return *this; }

  /// --- clients -----------------------------------------------------------
  /// Every client follows the change set; a deployment without
  /// transfers is the classical static-weight ABD baseline.
  ClusterBuilder& clients(std::uint32_t k) { clients_ = k; return *this; }
  /// Clients run a read/write workload instead of waiting for explicit
  /// operations; completion is awaitable via workload_done(). Closed loop
  /// by default; set WorkloadParams::target_ops_per_sec for an open loop
  /// over the pipelined client (plus num_keys > 1 so ops can overlap).
  ClusterBuilder& workload(WorkloadParams params);
  /// Record every workload operation for atomicity checking.
  ClusterBuilder& history(std::shared_ptr<HistoryRecorder> h);

  /// --- elastic resharding --------------------------------------------------
  /// Attaches the load-skew Rebalancer: every `params.period` the
  /// controller compares per-shard served-op counts and migrates the
  /// hottest keys off a shard whose window load exceeds
  /// skew_threshold * mean (see rebalance/rebalancer.h). Requires
  /// shards(s >= 2); the MigrationEngine it drives is deployed on every
  /// multi-shard storage deployment regardless, so Cluster::migrate_key
  /// works without this knob.
  ClusterBuilder& rebalance(RebalanceParams params = {}) {
    rebalance_ = params;
    return *this;
  }

  /// Validates, deploys, registers, and starts everything.
  Cluster build();

 private:
  friend class Cluster;
  enum class Kind { kStorage, kAdaptive, kReassign };

  void set_kind(Kind k);

  std::uint32_t n_ = 0;
  std::uint32_t shards_ = 1;
  bool has_shards_ = false;
  TimeNs service_time_ = 0;
  std::optional<WeightMap> weights_;
  Runtime runtime_ = Runtime::kSim;
  std::shared_ptr<LatencyModel> latency_;
  Kind kind_ = Kind::kStorage;
  AdaptiveParams adaptive_params_;
  std::uint32_t clients_ = 1;
  std::optional<WorkloadParams> workload_;
  std::shared_ptr<HistoryRecorder> history_;
  std::optional<std::uint32_t> faults_;
  std::uint64_t seed_ = 1;
  std::size_t batch_ops_ = 1;
  TimeNs batch_delay_ = 0;
  TimeNs retry_ = 0;
  TimeNs anti_entropy_ = 0;
  std::optional<RebalanceParams> rebalance_;
};

class Cluster {
 public:
  static ClusterBuilder builder() { return ClusterBuilder(); }

  explicit Cluster(const ClusterBuilder& spec);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- deployment surface --------------------------------------------------
  /// Shard 0's config (== THE config of an unsharded deployment).
  const SystemConfig& config() const { return config_; }
  /// Total deployed servers across every shard.
  std::uint32_t num_servers() const { return shard_map_.total_servers(); }
  std::uint32_t servers_per_shard() const { return config_.n; }
  std::size_t num_clients() const {
    std::lock_guard lock(clients_mu_);
    return clients_.size();
  }
  Runtime runtime() const { return runtime_; }

  // --- sharding ------------------------------------------------------------
  std::uint32_t num_shards() const { return shard_map_.num_shards(); }
  const ShardMap& shard_map() const { return shard_map_; }
  /// Config of shard `g`; throws std::out_of_range naming offender+range.
  const SystemConfig& shard_config(ShardId g) const {
    return shard_map_.config(g);
  }
  /// Global server ids of shard `g` (validated).
  std::vector<ProcessId> shard_servers(ShardId g) const {
    return shard_map_.servers(g);
  }
  /// Global id of the i-th server of shard `g` (both validated).
  ProcessId server_id(ShardId g, std::uint32_t i) const;
  /// Every deployed server id, shard-major ascending.
  std::vector<ProcessId> all_server_ids() const {
    return shard_map_.all_server_ids();
  }
  /// Per-shard message counters (deployments built with shards(); on the
  /// thread runtime only stable once quiescent, like traffic()).
  const Counters& shard_traffic(ShardId g) const;

  // --- elastic resharding --------------------------------------------------
  /// Linearizable per-key handoff: moves register `key` to shard `to`
  /// through the deployment's MigrationEngine (freeze + final read at the
  /// source, install + ownership flip at the destination, fence lift).
  /// Resolves to true when the key ended up at `to` (moved or already
  /// there), false when a concurrent handoff of the same key refused the
  /// attempt. Requires shards(s >= 2); validates `to`.
  Await<bool> migrate_key(RegisterKey key, ShardId to);
  /// The engine's counter snapshot (thread-safe; shards(s >= 2) only).
  MigrationStats migration_stats() const;
  /// The controller's counter snapshot (deployments built with
  /// rebalance() only).
  RebalanceStats rebalance_stats() const;
  /// White-box access to the engine (chaos drivers post into its
  /// context); throws std::logic_error on single-shard deployments.
  MigrationEngine& migration_engine();
  /// The controller itself (stop() it before quiescing the simulator);
  /// throws without rebalance().
  Rebalancer& rebalancer();

  /// The k-th storage client endpoint.
  ClientHandle client(std::size_t k = 0);

  /// The reassignment endpoint of server `s`.
  ReassignHandle server(ProcessId s);
  /// The reassignment endpoint of shard g's i-th server.
  ReassignHandle server(ShardId g, std::uint32_t i) {
    return server(server_id(g, i));
  }

  /// The k-th reassignment-service client (reassign_only deployments).
  ReassignClientHandle reassign_client(std::size_t k = 0);

  /// Node accessors for white-box inspection (throw when the deployment
  /// was built with a different server role).
  DynamicStorageNode& storage_node(ProcessId s);
  AdaptiveNode& adaptive_node(ProcessId s);
  ReassignNode& reassign_node(ProcessId s);
  /// The Process registered for server `pid`, whatever its role.
  Process& process(ProcessId pid);

  /// The k-th workload client (deployments built with .workload()).
  WorkloadClient& workload(std::size_t k = 0);
  /// Resolves when the k-th workload client finished its operations.
  Await<bool> workload_done(std::size_t k = 0);

  // --- awaitables ----------------------------------------------------------
  /// A fresh unfulfilled Await bound to this deployment's substrate (its
  /// get() runs the simulator on Runtime::kSim); pair it with any
  /// callback-style completion.
  template <typename T>
  Await<T> make_await() { return Await<T>(sim_); }

  /// Runs `fn` in `pid`'s execution context (the only safe place to call
  /// a process's callback-style API on the thread runtime).
  void post(ProcessId pid, std::function<void()> fn);

  /// Posts `start(done)` into `pid`'s execution context once, with no
  /// delay, and returns the Await that `done(value)` fulfills. `start`
  /// issues one callback-style operation and passes `done` as its
  /// completion (or calls it directly) — every handle verb goes through
  /// here.
  template <typename T, typename Start>
  Await<T> call(ProcessId pid, Start start) {
    Await<T> aw = make_await<T>();
    post(pid, [start = std::move(start), aw]() mutable {
      start([aw](T value) { aw.fulfill(std::move(value)); });
    });
    return aw;
  }

  // --- scenario injection --------------------------------------------------
  // Every verb validates its target: unknown process/server/shard ids
  // throw std::out_of_range naming the offender and the valid range
  // instead of silently no-opping against a mistyped id.

  /// Crash-stops server or client `pid`.
  void crash(ProcessId pid);
  /// Crash-stops shard g's i-th server.
  void crash(ShardId g, std::uint32_t i) { crash(server_id(g, i)); }
  bool is_crashed(ProcessId pid) const;

  // --- link faults (messages sent while a fault is active are LOST;
  // liveness after healing needs builder retry()/anti_entropy()) ----------
  /// Cuts both directions of the a<->b link.
  void partition(ProcessId a, ProcessId b);
  void heal(ProcessId a, ProcessId b);
  /// Full network split: cuts every link between `side` and the rest of
  /// the deployment (servers AND clients). heal_split is its exact
  /// inverse, enumerating the deployment at heal time (processes added
  /// in between are healed too).
  void partition_split(const std::vector<ProcessId>& side);
  void heal_split(const std::vector<ProcessId>& side);
  /// Cuts `pid` off from every other deployed process (use
  /// env().faults().cut_one_way for asymmetric variants).
  void isolate(ProcessId pid);
  /// Isolates shard g's i-th server.
  void isolate(ShardId g, std::uint32_t i) { isolate(server_id(g, i)); }
  /// Walls off shard `g`: cuts every link between the shard's servers
  /// and everything outside the shard (clients AND other shards), so the
  /// group stalls while the rest of the deployment keeps serving.
  /// heal_shard is its exact inverse (enumerated at heal time).
  void partition_shard(ShardId g);
  void heal_shard(ShardId g);
  /// Message loss / duplication with probability `p`, on one link or as
  /// a network-wide storm. The storm variants cover EVERY link —
  /// including processes deployed while the storm is active (restarted
  /// readers) — and compose with per-link rates by "the stronger wins".
  void drop_link(ProcessId a, ProcessId b, double p);
  void drop_all_links(double p);
  void duplicate_link(ProcessId a, ProcessId b, double p);
  void duplicate_all_links(double p);
  /// Seeded bounded reordering: each message gets an extra delay uniform
  /// in [0, max_extra) with probability p. Deterministic on the
  /// simulator; ignored by the thread runtime (real threads already
  /// reorder).
  void reorder_links(double p, TimeNs max_extra);
  /// Clears every cut, drop/duplicate rate, and the reorder knob.
  void heal_all_links();

  /// All deployed process ids: servers, then clients, then the migration
  /// engine (multi-shard storage deployments).
  std::vector<ProcessId> process_ids() const;

  /// Deploys an additional storage client MID-RUN (a crashed reader
  /// "restarting" as a new process with fresh state) — plain, or driving
  /// a workload recorded into the deployment's history recorder. Returns
  /// the new client's index (thread-safe; storage deployments only).
  std::size_t add_client();
  std::size_t add_client(const WorkloadParams& params);

  /// Reconfigures anti-entropy on every live server mid-run (0 stops it —
  /// chaos drivers do this before quiescing the simulator).
  void set_anti_entropy(TimeNs period);

  /// Multiplies every message delay to/from `pid` (degraded replica).
  void slow(ProcessId pid, double factor);
  void clear_slow(ProcessId pid);
  /// Degrades shard g's i-th server.
  void slow(ShardId g, std::uint32_t i, double factor) {
    slow(server_id(g, i), factor);
  }
  void clear_slow(ShardId g, std::uint32_t i) { clear_slow(server_id(g, i)); }

  /// Swaps the latency model underneath the running deployment (slow()
  /// factors are preserved on top of the new model).
  void set_latency(std::unique_ptr<LatencyModel> model);

  /// Runs `fn` (in server 0's context) after `delay` — for degradation
  /// scripts and staged scenarios.
  void at(TimeNs delay, std::function<void()> fn);

  // --- time ---------------------------------------------------------------
  TimeNs now() const;

  /// Advances the deployment by `d`: simulated time on the simulator,
  /// wall-clock sleep on the thread and socket runtimes.
  void run_for(TimeNs d);

  /// Lets in-flight protocol traffic drain (simulator: run every pending
  /// event; threads and sockets: a bounded wall-clock grace period).
  void quiesce(TimeNs deadline = seconds(3600));

  /// Message traffic counters. On the thread runtime only stable once the
  /// deployment is quiescent.
  const Counters& traffic() const;

  // --- substrate escape hatches -------------------------------------------
  Env& env() { return *env_; }
  const Env& env() const { return *env_; }
  /// The runtime-specific env; null when the deployment runs on another
  /// runtime.
  SimEnv* sim() { return sim_; }
  ThreadEnv* threads() {
    return runtime_ == Runtime::kThread ? static_cast<ThreadEnv*>(env_.get())
                                        : nullptr;
  }
  SocketEnv* sockets();

 private:
  struct ServerSlot {
    std::unique_ptr<Process> process;
    ReassignNode* reassign = nullptr;
    DynamicStorageNode* storage = nullptr;
    AdaptiveNode* adaptive = nullptr;
  };
  struct ClientSlot {
    std::unique_ptr<Process> process;
    ShardRouter* router = nullptr;
    ReassignClient* reassign = nullptr;
    WorkloadClient* workload = nullptr;
    Await<bool> done;
  };

  static ShardMap build_shard_map(const ClusterBuilder& spec);

  ServerSlot& server_slot(ProcessId s);
  ClientSlot& client_slot(std::size_t k);
  std::size_t make_client_slot(const WorkloadParams* wp);
  /// Verb-target validation: `pid` must be a deployed server, client, or
  /// the migration engine; throws std::out_of_range naming offender +
  /// ranges.
  void check_process(ProcessId pid) const;

  Runtime runtime_;
  /// Declared before config_: config_ aliases shard 0's config.
  ShardMap shard_map_;
  SystemConfig config_;
  TimeNs service_time_ = 0;
  ClusterBuilder::Kind kind_;
  std::shared_ptr<HistoryRecorder> history_;
  /// Client tuning, applied to every client slot — including clients
  /// added mid-run.
  TimeNs retry_ = 0;
  std::size_t batch_ops_ = 1;
  TimeNs batch_delay_ = 0;

  // env_ is declared before the process slots so workers are stopped
  // (dtor body) and the env destroyed only after all processes died.
  std::unique_ptr<Env> env_;
  /// env_ on Runtime::kSim (awaits, run_for and quiesce drive it); null
  /// on the wall-clock runtimes.
  SimEnv* sim_ = nullptr;
  std::shared_ptr<DegradableLatency> degradable_;

  std::vector<ServerSlot> servers_;
  /// add_client() grows clients_ from scenario threads while accessors
  /// read it, so every access goes through clients_mu_. A deque so
  /// existing slots never move when it grows (handles keep references).
  mutable std::mutex clients_mu_;
  std::deque<ClientSlot> clients_;
  /// Declared after the slots they borrow from; the rebalancer_ (which
  /// borrows AbdServer pointers AND the engine) is destroyed first. Both
  /// only run scheduled callbacks, so the dtor's worker stop() already
  /// quiesced them before any member dies.
  std::unique_ptr<MigrationEngine> engine_;
  std::unique_ptr<Rebalancer> rebalancer_;
};

}  // namespace wrs
