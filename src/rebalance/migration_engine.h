// MigrationEngine — the coordinator of the elastic-resharding handoff
// (see storage/migration_messages.h for the wire protocol and its safety
// argument).
//
// The engine is ONE dedicated process per deployment (a reserved id in
// the client id space) holding the authoritative ShardMap: it is the
// single allocator of map epochs, which is what makes "newest epoch
// wins" a total order. migrate(key, to) runs the three quorum rounds —
// freeze+final-read at the source, commit+install at the destination,
// commit at the source — each through a per-shard AbdClient, so loss,
// duplication and partitions are absorbed by the ordinary retry /
// idempotent-reapply machinery of the ABD layer. Migrations of the same
// key are serialized (a concurrent attempt is refused, counted, and
// reported to its callback); migrations of distinct keys pipeline
// freely.
//
// The engine's own map override is applied after the destination commit
// — the linearization point of the handoff: from that moment a
// destination quorum serves the key (install and ownership flip
// atomically per server), and every stale replica a client can still
// reach either redirects or is outvoted by quorum intersection.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "runtime/env.h"
#include "shard/shard_map.h"
#include "storage/abd_client.h"

namespace wrs {

/// The dedicated process id of a deployment's MigrationEngine: a reserved
/// slot high in the client id space, far above any workload client.
inline constexpr ProcessId kMigrationEnginePid = client_id(0xF000'0000u);

/// Cross-thread snapshot of the engine's counters.
struct MigrationStats {
  std::uint64_t started = 0;    ///< handoffs that began their freeze round
  std::uint64_t committed = 0;  ///< handoffs fully committed (both sides)
  std::uint64_t refused = 0;    ///< concurrent same-key attempts refused
  std::uint64_t noops = 0;      ///< migrate() to the current owner
  std::uint64_t in_flight = 0;  ///< handoffs between freeze and commit
  std::uint64_t epoch = 0;      ///< newest map epoch allocated
};

class MigrationEngine : public Process {
 public:
  /// Fires with true when the key ended up at the requested shard (moved
  /// or already there), false when the attempt was refused.
  using DoneCb = std::function<void(bool ok)>;

  MigrationEngine(Env& env, ProcessId self, ShardMap map);

  /// Moves `key` to shard `to`. MUST run in the engine's execution
  /// context (Cluster::migrate_key posts it there). Asynchronous: cb
  /// fires in the engine's context when the handoff fully commits.
  /// Refuses (cb(false)) when a migration of the same key is in flight
  /// or `to` is no deployed shard.
  void migrate(const RegisterKey& key, ShardId to, DoneCb cb);

  /// The key's owner shard per the engine's authoritative map.
  ShardId owner_of(const RegisterKey& key) const { return map_.shard_of(key); }
  const ShardMap& map() const { return map_; }
  ProcessId pid() const { return self_; }

  /// Thread-safe counter snapshot (readable while the deployment runs).
  MigrationStats stats() const;

  /// Retransmission interval of the engine's quorum rounds — required
  /// for migration liveness under the fault plane, exactly like client
  /// retries (see AbdClient::set_retry_interval).
  void set_retry_interval(TimeNs interval);

  void on_message(ProcessId from, const Message& msg) override;

 private:
  void finish(const RegisterKey& key, bool ok, const DoneCb& cb);

  Env& env_;
  ProcessId self_;
  /// Authoritative key->shard map (the engine is its single writer).
  ShardMap map_;
  std::vector<std::unique_ptr<AbdClient>> clients_;
  /// Keys with a handoff in flight (engine-context only).
  std::set<RegisterKey> active_;
  std::uint64_t last_epoch_ = 0;

  mutable std::mutex stats_mu_;
  MigrationStats stats_;
};

}  // namespace wrs
