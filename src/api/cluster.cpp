#include "api/cluster.h"

#include <chrono>
#include <set>
#include <thread>

#ifdef __linux__
#include "net/socket_addr.h"
#include "runtime/socket_env.h"
#endif

namespace wrs {

// --- ClusterBuilder ---------------------------------------------------------

ClusterBuilder& ClusterBuilder::latency(std::shared_ptr<LatencyModel> model) {
  latency_ = std::move(model);
  return *this;
}

ClusterBuilder& ClusterBuilder::uniform_latency(TimeNs lo, TimeNs hi) {
  return latency(std::make_shared<UniformLatency>(lo, hi));
}

ClusterBuilder& ClusterBuilder::wan(const WanProfile& profile,
                                    std::size_t client_site) {
  return latency(std::make_shared<SiteMatrixLatency>(
      profile.rtt_ms, site_mapper(profile.sites.size(), client_site)));
}

void ClusterBuilder::set_kind(Kind k) {
  if (kind_ != Kind::kStorage && kind_ != k) {
    throw std::logic_error(
        "ClusterBuilder: at most one of adaptive()/reassign_only() may be "
        "chosen");
  }
  kind_ = k;
}

ClusterBuilder& ClusterBuilder::adaptive(AdaptiveParams params) {
  set_kind(Kind::kAdaptive);
  adaptive_params_ = std::move(params);
  return *this;
}

ClusterBuilder& ClusterBuilder::workload(WorkloadParams params) {
  workload_ = std::move(params);
  return *this;
}

ClusterBuilder& ClusterBuilder::history(std::shared_ptr<HistoryRecorder> h) {
  history_ = std::move(h);
  return *this;
}

Cluster ClusterBuilder::build() { return Cluster(*this); }

// --- Cluster ----------------------------------------------------------------

ShardMap Cluster::build_shard_map(const ClusterBuilder& spec) {
  if (spec.n_ == 0) {
    throw std::invalid_argument("Cluster: servers(n) is required");
  }
  if (spec.shards_ == 0) {
    throw std::invalid_argument("Cluster: shards(s) needs s >= 1");
  }
  std::uint32_t f =
      spec.faults_ ? *spec.faults_ : (spec.n_ - 1) / 2;
  WeightMap tmpl =
      spec.weights_ ? *spec.weights_ : WeightMap::uniform(spec.n_);
  // shards(1) — and the unsharded default — is exactly one group with
  // base 0: the same SystemConfig today's unsharded path built.
  return ShardMap::uniform(spec.shards_, spec.n_, f, std::move(tmpl));
}

Cluster::Cluster(const ClusterBuilder& spec)
    : runtime_(spec.runtime_),
      shard_map_(build_shard_map(spec)),
      config_(shard_map_.config(0)),
      service_time_(spec.service_time_),
      kind_(spec.kind_),
      history_(spec.history_),
      retry_(spec.retry_),
      batch_ops_(spec.batch_ops_),
      batch_delay_(spec.batch_delay_) {
  if (spec.workload_.has_value() &&
      kind_ == ClusterBuilder::Kind::kReassign) {
    throw std::invalid_argument(
        "Cluster: workload() needs storage clients — incompatible with "
        "reassign_only()");
  }
  if (shard_map_.num_shards() > 1 &&
      kind_ != ClusterBuilder::Kind::kStorage) {
    throw std::invalid_argument(
        "Cluster: shards(s > 1) needs storage servers — incompatible with "
        "adaptive()/reassign_only()");
  }

  std::shared_ptr<LatencyModel> base = spec.latency_;
  if (!base && runtime_ == Runtime::kSim) {
    // The simulator needs a model; the wall-clock runtimes deliver as
    // fast as possible when none is configured.
    base = std::make_shared<UniformLatency>(ms(1), ms(10));
  }
  if (base) degradable_ = std::make_shared<DegradableLatency>(std::move(base));

  switch (runtime_) {
    case Runtime::kSim: {
      auto sim = std::make_unique<SimEnv>(degradable_, spec.seed_);
      sim_ = sim.get();
      env_ = std::move(sim);
      break;
    }
    case Runtime::kThread:
      env_ = std::make_unique<ThreadEnv>(degradable_, spec.seed_);
      break;
    case Runtime::kSocket: {
#ifdef __linux__
      SocketEnv::Options opts;
      opts.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
      opts.latency = degradable_;
      opts.seed = spec.seed_;
      env_ = std::make_unique<SocketEnv>(opts);
      break;
#else
      throw std::runtime_error(
          "Cluster: Runtime::kSocket requires Linux (epoll)");
#endif
    }
  }
  Env& e = *env_;

  // Per-shard message accounting rides the send hot path, so it is only
  // installed when the deployment was built with shards().
  if (spec.has_shards_) {
    const std::uint32_t per = config_.n;
    const std::uint32_t total = shard_map_.total_servers();
    e.enable_shard_traffic(
        shard_map_.num_shards(),
        [per, total](ProcessId from, ProcessId to) -> int {
          // Attribute to the server endpoint: the destination server's
          // shard, else (replies to clients) the sending server's.
          if (is_server(to) && to < total) return static_cast<int>(to / per);
          if (is_server(from) && from < total) {
            return static_cast<int>(from / per);
          }
          return -1;
        });
  }

  for (ShardId g = 0; g < shard_map_.num_shards(); ++g) {
    const SystemConfig& shard_cfg = shard_map_.config(g);
    for (ProcessId s : shard_cfg.servers()) {
      ServerSlot slot;
      switch (kind_) {
        case ClusterBuilder::Kind::kStorage: {
          auto node = std::make_unique<DynamicStorageNode>(e, s, shard_cfg);
          slot.storage = node.get();
          slot.reassign = &node->reassign();
          slot.process = std::move(node);
          break;
        }
        case ClusterBuilder::Kind::kAdaptive: {
          auto node = std::make_unique<AdaptiveNode>(e, s, shard_cfg,
                                                     spec.adaptive_params_);
          slot.adaptive = node.get();
          slot.storage = &node->storage();
          slot.reassign = &node->reassign();
          slot.process = std::move(node);
          break;
        }
        case ClusterBuilder::Kind::kReassign: {
          auto node = std::make_unique<ReassignNode>(e, s, shard_cfg);
          slot.reassign = node.get();
          slot.process = std::move(node);
          break;
        }
      }
      // Fault-tolerance hardening (defaults off: fault-free deployments
      // run byte-identically to pre-chaos builds).
      if (retry_ > 0 && slot.storage != nullptr) {
        slot.storage->client().set_retry_interval(retry_);
      }
      if (service_time_ > 0 && slot.storage != nullptr) {
        slot.storage->server().set_service_time(service_time_);
      }
      if (spec.anti_entropy_ > 0 && slot.reassign != nullptr) {
        slot.reassign->enable_sync(spec.anti_entropy_);
      }
      e.register_process(s, slot.process.get());
      servers_.push_back(std::move(slot));
    }
  }

  // Elastic resharding: every multi-shard storage deployment gets the
  // MigrationEngine (so migrate_key always works there); the Rebalancer
  // controller only when asked for. shards(1) stays byte-identical to
  // the unsharded deployment — no extra process, no extra traffic.
  if (spec.rebalance_.has_value() && shard_map_.num_shards() < 2) {
    throw std::invalid_argument(
        "Cluster: rebalance() needs shards(s >= 2) to balance across");
  }
  if (shard_map_.num_shards() > 1 &&
      kind_ == ClusterBuilder::Kind::kStorage) {
    engine_ = std::make_unique<MigrationEngine>(e, kMigrationEnginePid,
                                                shard_map_);
    if (retry_ > 0) engine_->set_retry_interval(retry_);
    e.register_process(engine_->pid(), engine_.get());
    if (spec.rebalance_.has_value()) {
      std::vector<std::vector<AbdServer*>> shard_servers(
          shard_map_.num_shards());
      for (ShardId g = 0; g < shard_map_.num_shards(); ++g) {
        for (ProcessId s : shard_map_.servers(g)) {
          shard_servers[g].push_back(&servers_[s].storage->server());
        }
      }
      rebalancer_ = std::make_unique<Rebalancer>(
          e, *engine_, *spec.rebalance_, std::move(shard_servers));
    }
  }

  for (std::uint32_t k = 0; k < spec.clients_; ++k) {
    if (kind_ == ClusterBuilder::Kind::kReassign) {
      std::lock_guard lock(clients_mu_);
      ClientSlot slot;
      ProcessId pid = client_id(k);
      auto c = std::make_unique<ReassignClient>(e, pid, config_);
      slot.reassign = c.get();
      slot.process = std::move(c);
      e.register_process(pid, slot.process.get());
      clients_.push_back(std::move(slot));
    } else {
      make_client_slot(spec.workload_.has_value() ? &*spec.workload_
                                                  : nullptr);
    }
  }

  e.start();
  if (rebalancer_) rebalancer_->start();
}

Cluster::~Cluster() {
  // Workers must stop before the processes they drive are destroyed.
  env_->stop();
}

SocketEnv* Cluster::sockets() {
#ifdef __linux__
  if (runtime_ == Runtime::kSocket) {
    return static_cast<SocketEnv*>(env_.get());
  }
#endif
  return nullptr;
}

Cluster::ServerSlot& Cluster::server_slot(ProcessId s) {
  if (s >= servers_.size()) {
    throw std::out_of_range(
        "Cluster: server index " + std::to_string(s) +
        " out of range [0, " + std::to_string(servers_.size()) + ")");
  }
  return servers_[s];
}

Cluster::ClientSlot& Cluster::client_slot(std::size_t k) {
  std::lock_guard lock(clients_mu_);
  if (k >= clients_.size()) {
    throw std::out_of_range(
        "Cluster: client index " + std::to_string(k) + " out of range [0, " +
        std::to_string(clients_.size()) + ")");
  }
  // The reference stays valid after unlock: clients_ is a deque (growth
  // never moves existing slots) and slots are never destroyed mid-run.
  return clients_[k];
}

std::size_t Cluster::make_client_slot(const WorkloadParams* wp) {
  Env& e = env();
  std::lock_guard lock(clients_mu_);
  ClientSlot slot;
  ProcessId pid = client_id(static_cast<std::uint32_t>(clients_.size()));
  if (wp != nullptr) {
    auto c = std::make_unique<WorkloadClient>(e, pid, shard_map_, *wp,
                                              history_);
    slot.workload = c.get();
    slot.router = &c->router();
    slot.done = make_await<bool>();
    Await<bool> done = slot.done;
    c->set_on_done([done] { done.fulfill(true); });
    slot.process = std::move(c);
  } else {
    auto c = std::make_unique<StorageClient>(e, pid, shard_map_);
    slot.router = &c->router();
    slot.process = std::move(c);
  }
  if (retry_ > 0) slot.router->set_retry_interval(retry_);
  if (batch_ops_ > 1) slot.router->set_batching(batch_ops_, batch_delay_);
  e.register_process(pid, slot.process.get());
  clients_.push_back(std::move(slot));
  return clients_.size() - 1;
}

std::size_t Cluster::add_client() {
  if (kind_ == ClusterBuilder::Kind::kReassign) {
    throw std::logic_error("Cluster: add_client needs a storage deployment");
  }
  return make_client_slot(nullptr);
}

std::size_t Cluster::add_client(const WorkloadParams& params) {
  if (kind_ == ClusterBuilder::Kind::kReassign) {
    throw std::logic_error("Cluster: add_client needs a storage deployment");
  }
  return make_client_slot(&params);
}

ClientHandle Cluster::client(std::size_t k) {
  ClientSlot& slot = client_slot(k);
  if (slot.router == nullptr) {
    throw std::logic_error("Cluster: client(k) needs a storage deployment");
  }
  return ClientHandle(this, client_id(static_cast<std::uint32_t>(k)),
                      slot.router);
}

ReassignHandle Cluster::server(ProcessId s) {
  return ReassignHandle(this, s, server_slot(s).reassign);
}

ReassignClientHandle Cluster::reassign_client(std::size_t k) {
  ClientSlot& slot = client_slot(k);
  if (slot.reassign == nullptr) {
    throw std::logic_error(
        "Cluster: reassign_client(k) needs a reassign_only deployment");
  }
  return ReassignClientHandle(this, client_id(static_cast<std::uint32_t>(k)),
                              slot.reassign);
}

DynamicStorageNode& Cluster::storage_node(ProcessId s) {
  ServerSlot& slot = server_slot(s);
  if (slot.storage == nullptr) {
    throw std::logic_error("Cluster: server " + process_name(s) +
                           " is not a storage node");
  }
  return *slot.storage;
}

AdaptiveNode& Cluster::adaptive_node(ProcessId s) {
  ServerSlot& slot = server_slot(s);
  if (slot.adaptive == nullptr) {
    throw std::logic_error("Cluster: server " + process_name(s) +
                           " is not adaptive");
  }
  return *slot.adaptive;
}

ReassignNode& Cluster::reassign_node(ProcessId s) {
  return server(s).node();
}

Process& Cluster::process(ProcessId pid) {
  return *server_slot(pid).process;
}

WorkloadClient& Cluster::workload(std::size_t k) {
  ClientSlot& slot = client_slot(k);
  if (slot.workload == nullptr) {
    throw std::logic_error("Cluster: client #" + std::to_string(k) +
                           " runs no workload");
  }
  return *slot.workload;
}

Await<bool> Cluster::workload_done(std::size_t k) {
  ClientSlot& slot = client_slot(k);
  if (slot.workload == nullptr) {
    throw std::logic_error("Cluster: client #" + std::to_string(k) +
                           " runs no workload");
  }
  return slot.done;
}

void Cluster::post(ProcessId pid, std::function<void()> fn) {
  env().schedule(pid, 0, std::move(fn));
}

void Cluster::check_process(ProcessId pid) const {
  if (engine_ && pid == engine_->pid()) return;
  if (is_server(pid) && pid < servers_.size()) return;
  if (is_client(pid)) {
    std::lock_guard lock(clients_mu_);
    if (pid - kClientIdBase < clients_.size()) return;
    throw std::out_of_range(
        "Cluster: client " + process_name(pid) + " out of range [c0, c" +
        std::to_string(clients_.size()) + ")");
  }
  throw std::out_of_range(
      "Cluster: no process " + process_name(pid) + " (valid servers [s0, s" +
      std::to_string(servers_.size()) + "))");
}

ProcessId Cluster::server_id(ShardId g, std::uint32_t i) const {
  const SystemConfig& cfg = shard_map_.config(g);  // validates g
  if (i >= cfg.n) {
    throw std::out_of_range(
        "Cluster: server index " + std::to_string(i) + " out of range [0, " +
        std::to_string(cfg.n) + ") in shard " + std::to_string(g));
  }
  return cfg.base + i;
}

const Counters& Cluster::shard_traffic(ShardId g) const {
  if (!env().shard_traffic_enabled()) {
    throw std::logic_error(
        "Cluster: shard_traffic needs a deployment built with shards()");
  }
  return env().shard_traffic(g);
}

MigrationEngine& Cluster::migration_engine() {
  if (!engine_) {
    throw std::logic_error(
        "Cluster: migration needs a storage deployment with shards(s >= 2)");
  }
  return *engine_;
}

Await<bool> Cluster::migrate_key(RegisterKey key, ShardId to) {
  MigrationEngine& eng = migration_engine();
  if (to >= num_shards()) {
    throw std::out_of_range("Cluster: migrate_key to shard " +
                            std::to_string(to) + " out of range [0, " +
                            std::to_string(num_shards()) + ")");
  }
  MigrationEngine* e = &eng;
  // migrate() must run in the engine's execution context; the callback
  // fires there too once the handoff fully commits on both sides.
  return call<bool>(eng.pid(), [e, key = std::move(key), to](auto done) {
    e->migrate(key, to, std::move(done));
  });
}

MigrationStats Cluster::migration_stats() const {
  if (!engine_) {
    throw std::logic_error(
        "Cluster: migration needs a storage deployment with shards(s >= 2)");
  }
  return engine_->stats();
}

Rebalancer& Cluster::rebalancer() {
  if (!rebalancer_) {
    throw std::logic_error(
        "Cluster: rebalancer() needs a deployment built with rebalance()");
  }
  return *rebalancer_;
}

RebalanceStats Cluster::rebalance_stats() const {
  if (!rebalancer_) {
    throw std::logic_error(
        "Cluster: rebalance_stats needs a deployment built with rebalance()");
  }
  return rebalancer_->stats();
}

void Cluster::crash(ProcessId pid) {
  check_process(pid);
  env().crash(pid);
}

bool Cluster::is_crashed(ProcessId pid) const { return env().is_crashed(pid); }

void Cluster::partition(ProcessId a, ProcessId b) {
  check_process(a);
  check_process(b);
  env().faults().partition(a, b);
}

void Cluster::heal(ProcessId a, ProcessId b) {
  check_process(a);
  check_process(b);
  env().faults().heal(a, b);
}

namespace {

/// Applies `fn` to every (side, rest) pair of the deployment.
template <typename Fn>
void for_split_pairs(const std::vector<ProcessId>& side,
                     const std::vector<ProcessId>& all, Fn fn) {
  std::set<ProcessId> in_side(side.begin(), side.end());
  for (ProcessId a : side) {
    for (ProcessId b : all) {
      if (in_side.count(b) == 0) fn(a, b);
    }
  }
}

}  // namespace

void Cluster::partition_split(const std::vector<ProcessId>& side) {
  for (ProcessId p : side) check_process(p);
  LinkFaults& f = env().faults();
  for_split_pairs(side, process_ids(),
                  [&f](ProcessId a, ProcessId b) { f.partition(a, b); });
}

void Cluster::heal_split(const std::vector<ProcessId>& side) {
  for (ProcessId p : side) check_process(p);
  LinkFaults& f = env().faults();
  for_split_pairs(side, process_ids(),
                  [&f](ProcessId a, ProcessId b) { f.heal(a, b); });
}

void Cluster::isolate(ProcessId pid) {
  check_process(pid);
  LinkFaults& f = env().faults();
  for (ProcessId other : process_ids()) {
    if (other != pid) f.partition(pid, other);
  }
}

void Cluster::partition_shard(ShardId g) {
  partition_split(shard_servers(g));  // shard_servers validates g
}

void Cluster::heal_shard(ShardId g) { heal_split(shard_servers(g)); }

void Cluster::drop_link(ProcessId a, ProcessId b, double p) {
  check_process(a);
  check_process(b);
  env().faults().set_drop(a, b, p);
}

void Cluster::drop_all_links(double p) { env().faults().set_drop_all(p); }

void Cluster::duplicate_link(ProcessId a, ProcessId b, double p) {
  check_process(a);
  check_process(b);
  env().faults().set_duplicate(a, b, p);
}

void Cluster::duplicate_all_links(double p) {
  env().faults().set_duplicate_all(p);
}

void Cluster::reorder_links(double p, TimeNs max_extra) {
  // Stored unconditionally; the thread runtime samples real concurrency
  // instead and ignores it (see LinkFaults).
  env().faults().set_reorder(p, max_extra);
}

void Cluster::heal_all_links() { env().faults().heal_all(); }

std::vector<ProcessId> Cluster::process_ids() const {
  std::vector<ProcessId> out = shard_map_.all_server_ids();
  {
    std::lock_guard lock(clients_mu_);
    for (std::size_t k = 0; k < clients_.size(); ++k) {
      out.push_back(client_id(static_cast<std::uint32_t>(k)));
    }
  }
  if (engine_) out.push_back(engine_->pid());
  return out;
}

void Cluster::set_anti_entropy(TimeNs period) {
  for (ProcessId s = 0; s < servers_.size(); ++s) {
    ReassignNode* node = servers_[s].reassign;
    post(s, [node, period] { node->enable_sync(period); });
  }
}

void Cluster::slow(ProcessId pid, double factor) {
  check_process(pid);
  if (!degradable_) {
    throw std::logic_error("Cluster: no latency model to degrade");
  }
  degradable_->set_factor(pid, factor);
}

void Cluster::clear_slow(ProcessId pid) {
  check_process(pid);
  if (!degradable_) return;
  degradable_->clear_factor(pid);
}

void Cluster::set_latency(std::unique_ptr<LatencyModel> model) {
  if (!degradable_) {
    throw std::logic_error(
        "Cluster: set_latency needs a deployment built with a latency model");
  }
  degradable_->set_inner(std::move(model));
}

void Cluster::at(TimeNs delay, std::function<void()> fn) {
  // kNoProcess = env-internal on both substrates: the script runs even if
  // every server is crashed (it only touches thread-safe scenario state).
  env().schedule(kNoProcess, delay, std::move(fn));
}

TimeNs Cluster::now() const { return env().now(); }

void Cluster::run_for(TimeNs d) {
  if (sim_) {
    sim_->run_until(sim_->now() + d);
    return;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

void Cluster::quiesce(TimeNs deadline) {
  if (sim_) {
    sim_->run_to_quiescence(deadline);
    return;
  }
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(std::min(deadline, ms(200))));
}

const Counters& Cluster::traffic() const { return env().traffic(); }

// --- handles ----------------------------------------------------------------

Await<TaggedValue> ClientHandle::read(RegisterKey key) const {
  ShardRouter* router = router_;
  return cluster_->call<TaggedValue>(
      id_, [router, key = std::move(key)](auto done) {
        router->read(key, std::move(done));
      });
}

Await<Tag> ClientHandle::write(RegisterKey key, Value value) const {
  ShardRouter* router = router_;
  return cluster_->call<Tag>(
      id_, [router, key = std::move(key), value = std::move(value)](
               auto done) { router->write(key, value, std::move(done)); });
}

std::vector<Await<TaggedValue>> ClientHandle::read_batch(
    std::vector<RegisterKey> keys) const {
  std::vector<Await<TaggedValue>> awaits;
  awaits.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    awaits.push_back(cluster_->make_await<TaggedValue>());
  }
  ShardRouter* router = router_;
  // One hop into the client's context issues the whole batch, so every
  // operation is in flight before the first reply is processed.
  cluster_->post(id_, [router, keys = std::move(keys), awaits] {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Await<TaggedValue> aw = awaits[i];
      router->read(keys[i], [aw](const TaggedValue& tv) { aw.fulfill(tv); });
    }
  });
  return awaits;
}

std::vector<Await<Tag>> ClientHandle::write_batch(
    std::vector<std::pair<RegisterKey, Value>> puts) const {
  std::vector<Await<Tag>> awaits;
  awaits.reserve(puts.size());
  for (std::size_t i = 0; i < puts.size(); ++i) {
    awaits.push_back(cluster_->make_await<Tag>());
  }
  ShardRouter* router = router_;
  cluster_->post(id_, [router, puts = std::move(puts), awaits] {
    for (std::size_t i = 0; i < puts.size(); ++i) {
      Await<Tag> aw = awaits[i];
      router->write(puts[i].first, puts[i].second,
                    [aw](const Tag& tag) { aw.fulfill(tag); });
    }
  });
  return awaits;
}

Await<ShardRouter::SnapshotResult> ClientHandle::snapshot(
    std::vector<RegisterKey> keys) const {
  ShardRouter* router = router_;
  return cluster_->call<ShardRouter::SnapshotResult>(
      id_, [router, keys = std::move(keys)](auto done) mutable {
        router->snapshot(std::move(keys), std::move(done));
      });
}

Await<std::vector<RegisterKey>> ClientHandle::list_keys() const {
  ShardRouter* router = router_;
  return cluster_->call<std::vector<RegisterKey>>(
      id_, [router](auto done) { router->list_keys(std::move(done)); });
}

Await<TransferOutcome> ReassignHandle::transfer(ProcessId to,
                                                const Weight& delta) const {
  ReassignNode* node = node_;
  return cluster_->call<TransferOutcome>(
      id_, [node, to, delta](auto done) {
        node->transfer(to, delta, std::move(done));
      });
}

Await<ChangeSet> ReassignHandle::read_changes(ProcessId target) const {
  ReassignNode* node = node_;
  return cluster_->call<ChangeSet>(id_, [node, target](auto done) {
    node->read_changes(target, std::move(done));
  });
}

Await<WeightMap> ReassignHandle::weights_snapshot() const {
  ReassignNode* node = node_;
  std::vector<ProcessId> servers = node->config().servers();
  return cluster_->call<WeightMap>(
      id_, [node, servers = std::move(servers)](auto done) {
        done(node->changes().to_weight_map(servers));
      });
}

WeightMap ReassignHandle::weights() const {
  return node_->changes().to_weight_map(node_->config().servers());
}

Await<ChangeSet> ReassignClientHandle::read_changes(ProcessId target) const {
  ReassignClient* client = client_;
  return cluster_->call<ChangeSet>(id_, [client, target](auto done) {
    client->read_changes(target, std::move(done));
  });
}

}  // namespace wrs
