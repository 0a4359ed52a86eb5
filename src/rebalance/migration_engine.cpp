#include "rebalance/migration_engine.h"

namespace wrs {

MigrationEngine::MigrationEngine(Env& env, ProcessId self, ShardMap map)
    : env_(env), self_(self), map_(std::move(map)) {
  clients_.reserve(map_.num_shards());
  for (ShardId g = 0; g < map_.num_shards(); ++g) {
    clients_.push_back(
        std::make_unique<AbdClient>(env_, self_, map_.config(g)));
  }
}

void MigrationEngine::on_message(ProcessId from, const Message& msg) {
  if (!is_server(from)) return;
  if (std::optional<ShardId> g = map_.try_shard_of_server(from)) {
    clients_[*g]->handle(from, msg);
  }
}

void MigrationEngine::set_retry_interval(TimeNs interval) {
  for (const auto& c : clients_) c->set_retry_interval(interval);
}

MigrationStats MigrationEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void MigrationEngine::finish(const RegisterKey& key, bool ok,
                             const DoneCb& cb) {
  active_.erase(key);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    --stats_.in_flight;
    if (ok) ++stats_.committed;
  }
  if (cb) cb(ok);
}

void MigrationEngine::migrate(const RegisterKey& key, ShardId to, DoneCb cb) {
  if (to >= map_.num_shards()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.refused;
    if (cb) cb(false);
    return;
  }
  ShardId src = map_.shard_of(key);
  if (src == to) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.noops;
    if (cb) cb(true);
    return;
  }
  if (!active_.insert(key).second) {
    // A handoff of this key is already in flight: epochs per key must be
    // issued one at a time, so the caller is refused rather than queued
    // (the Rebalancer simply retries on a later window).
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.refused;
    if (cb) cb(false);
    return;
  }
  std::uint64_t epoch = ++last_epoch_;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.started;
    ++stats_.in_flight;
    stats_.epoch = epoch;
  }
  // Round 1 — fence the source group and collect the final read.
  clients_[src]->freeze_key(
      key, epoch, to,
      [this, key, src, to, epoch, cb = std::move(cb)](const TaggedValue& fin) {
        // Round 2 — install the frozen replica at the destination and
        // flip ownership there, atomically per server.
        clients_[to]->commit_mark(
            key, to, epoch, fin,
            [this, key, src, to, epoch, cb = std::move(cb)](const Tag&) {
              // A destination quorum now owns the key: this is the
              // handoff's linearization point. Adopt it authoritatively
              // before un-fencing the source, so owner_of() never lags
              // the servers.
              map_.apply_override(key, to, epoch);
              // Round 3 — lift the source fence; parked requests drain
              // as redirects and late clients learn the move lazily.
              clients_[src]->commit_mark(
                  key, to, epoch, std::nullopt,
                  [this, key, cb = std::move(cb)](const Tag&) {
                    finish(key, true, cb);
                  });
            });
      });
}

}  // namespace wrs
