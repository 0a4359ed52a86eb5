// Seeded chaos-scenario drivers for wrs::Cluster deployments.
//
// Nemesis composes a timed fault schedule — symmetric/asymmetric
// partitions, probabilistic drop and duplication storms, bounded
// reordering windows, slowdowns, rolling server crashes (optionally
// "restarting" crashed capacity as fresh reader processes) — from a
// single RNG seed. The WHOLE timeline is drawn up-front at unleash()
// time and executed through Cluster::at, so on Runtime::kSim an episode
// is a pure function of (cluster seed, nemesis seed) and any failure
// replays bit-for-bit. Every fault heals itself by `horizon`, and a
// final safety net heals all links at the horizon, so episodes always
// reach a fault-free tail in which retries/anti-entropy can restore
// liveness.
//
// Overlap semantics: events draw independent windows, so they may
// overlap on the same links; LinkFaults state is last-writer-wins, which
// means one event's heal can END an overlapping event's fault early
// (never extend it — faults never outlive their printed window, and the
// horizon safety net bounds everything). The printed timeline is the
// SCHEDULE; under overlap the realized fault exposure can be weaker.
// Replay determinism is unaffected.
//
// TransferStorm drives the reconfiguration side of a chaos episode: it
// posts seeded weight transfers (random source/destination/delta) into
// server contexts across the same horizon, skipping servers whose
// previous transfer is still in flight (the protocol is sequential per
// node) and counting effective/null/skipped outcomes thread-safely.
//
// Both drivers only touch thread-safe Cluster state (the fault plane,
// crash, slow factors, add_client, per-process posts), so their timeline
// callbacks may run on the thread runtime's timer thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/cluster.h"

namespace wrs::testing {

struct NemesisParams {
  /// Faults are injected in [start, horizon); everything is healed by
  /// `horizon` at the latest.
  TimeNs start = ms(20);
  TimeNs horizon = ms(300);
  /// Number of fault events drawn from the seed.
  std::size_t events = 8;
  /// How long one fault stays active (uniform in [min_hold, max_hold],
  /// clamped to end by `horizon`).
  TimeNs min_hold = ms(20);
  TimeNs max_hold = ms(120);
  /// Servers crashed at most (must stay <= config().f or quorums die
  /// with the fault budget); 0 disables crash events.
  std::uint32_t crash_budget = 0;
  /// Crashed-server events schedule a fresh reader process (running
  /// `restart_workload`) shortly after the crash — the paper's model of a
  /// restarted process rejoining with empty state as a new client.
  bool reader_restarts = false;
  WorkloadParams restart_workload;
  /// Enabled fault kinds.
  bool partitions = true;
  bool asymmetric = true;
  bool drops = true;
  bool duplicates = true;
  bool slow_downs = true;
  bool reorder = true;  // applied by the simulator only
  /// Probability caps for the storm events.
  double drop_p_max = 0.5;
  double dup_p_max = 0.5;
  /// Restricts the chaos to ONE shard of a sharded deployment: crash /
  /// slow / partition victims come from that shard's servers only, and
  /// drop/duplicate storms become per-link rates on that shard's links
  /// (other shards keep serving untouched). The crash budget is checked
  /// against the selected shard's f. Unset = whole deployment (on a
  /// sharded cluster victims are drawn across every shard).
  std::optional<ShardId> shard;
};

class Nemesis {
 public:
  Nemesis(Cluster& cluster, std::uint64_t seed, NemesisParams params = {});

  /// Draws the whole fault timeline from the seed and schedules it.
  /// Call at most once.
  void unleash();

  /// Human-readable schedule ("t=120ms partition {s0 s2 | rest}" ...),
  /// available after unleash() — printed by harnesses on failure so a
  /// seed's episode can be read without replaying it.
  const std::vector<std::string>& timeline() const { return timeline_; }

 private:
  enum class Kind {
    kSymPartition,
    kAsymPartition,
    kDropStorm,
    kDupStorm,
    kReorderWindow,
    kSlow,
    kCrash,
  };

  std::vector<Kind> enabled_kinds() const;
  void schedule_event(Kind kind, TimeNs at, TimeNs until);
  /// One drop/duplicate storm window: the global knob, or (shard-scoped)
  /// per-link rates applied at start + midpoint and zeroed at `until`.
  void schedule_storm(const std::string& label, double p, TimeNs at,
                      TimeNs until,
                      void (Cluster::*per_link)(ProcessId, ProcessId, double),
                      void (Cluster::*global)(double));
  void note(TimeNs at, const std::string& text);

  Cluster& cluster_;
  Rng rng_;
  NemesisParams params_;
  bool unleashed_ = false;
  std::vector<std::string> timeline_;
  std::vector<ProcessId> victims_;      // server pool faults draw from
  std::vector<ProcessId> crash_order_;  // pre-drawn distinct crash victims
  std::uint32_t crashes_scheduled_ = 0;
};

struct TransferStormParams {
  TimeNs start = ms(10);
  TimeNs horizon = ms(300);
  std::size_t attempts = 8;
  /// Transferred weight is 1/denominator with denominator drawn from
  /// [min_denom, max_denom] — small enough that C2 usually passes.
  std::uint64_t min_denom = 4;
  std::uint64_t max_denom = 16;
  /// Reassignment is intra-group, so every attempt picks its (from, to)
  /// pair within one shard: this one when set, a seeded-random shard per
  /// attempt otherwise.
  std::optional<ShardId> shard;
};

class TransferStorm {
 public:
  TransferStorm(Cluster& cluster, std::uint64_t seed,
                TransferStormParams params = {});

  /// Draws and schedules all transfer attempts. Call at most once.
  void unleash();

  // Outcome counters (thread-safe snapshots).
  std::size_t attempts_scheduled() const;
  std::size_t completed() const;  // callbacks fired (effective or null)
  std::size_t effective() const;
  std::size_t skipped() const;  // server still had a transfer in flight

 private:
  Cluster& cluster_;
  Rng rng_;
  TransferStormParams params_;
  bool unleashed_ = false;
  std::size_t scheduled_ = 0;

  mutable std::mutex mu_;
  std::size_t completed_ = 0;
  std::size_t effective_ = 0;
  std::size_t skipped_ = 0;
};

struct MigrationStormParams {
  TimeNs start = ms(10);
  TimeNs horizon = ms(300);
  /// Seeded migrate_key attempts posted across [start, horizon).
  std::size_t attempts = 50;
  /// Keys are drawn from "k0".."k<num_keys-1>" — the WorkloadClient's
  /// keyspace, so storms compose with a concurrent workload + history.
  std::size_t num_keys = 16;
};

/// Seeded elastic-resharding chaos driver: posts random key handoffs
/// (random key, random destination shard) into the MigrationEngine's
/// context across the horizon — the resharding analogue of
/// TransferStorm. Attempts racing an in-flight handoff of the same key
/// are REFUSED by the engine (serialized per key) and counted here, so
/// refused + moved == completed once the episode drains. Requires a
/// deployment with shards(s >= 2).
class MigrationStorm {
 public:
  MigrationStorm(Cluster& cluster, std::uint64_t seed,
                 MigrationStormParams params = {});

  /// Draws and schedules all migration attempts. Call at most once.
  void unleash();

  // Outcome counters (thread-safe snapshots).
  std::size_t attempts_scheduled() const;
  std::size_t completed() const;  // callbacks fired (moved or refused)
  std::size_t moved() const;      // handoff committed (or was a no-op)
  std::size_t refused() const;    // same-key handoff still in flight

 private:
  Cluster& cluster_;
  Rng rng_;
  MigrationStormParams params_;
  bool unleashed_ = false;
  std::size_t scheduled_ = 0;

  mutable std::mutex mu_;
  std::size_t completed_ = 0;
  std::size_t moved_ = 0;
};

struct SnapshotStormParams {
  TimeNs start = ms(10);
  TimeNs horizon = ms(300);
  /// Seeded snapshot() calls posted across [start, horizon).
  std::size_t attempts = 20;
  /// Keys are drawn from "k0".."k<num_keys-1>" — the WorkloadClient's
  /// keyspace, so storms race a concurrent workload on the same keys.
  std::size_t num_keys = 16;
  /// Distinct keys per snapshot (clamped to num_keys).
  std::size_t keys_per_snapshot = 4;
};

/// Seeded atomic-snapshot chaos driver: posts random multi-key
/// snapshot() calls into round-robin client contexts across the horizon
/// — racing writers, key migrations, and the fault plane. When a
/// HistoryRecorder is given, every cut is recorded (begin_snapshot /
/// end_snapshot), so check_atomicity validates cut consistency (S1) and
/// pairwise comparability (S2) once the episode drains.
class SnapshotStorm {
 public:
  SnapshotStorm(Cluster& cluster, std::uint64_t seed,
                SnapshotStormParams params = {},
                std::shared_ptr<HistoryRecorder> history = nullptr);

  /// Draws and schedules all snapshot attempts. Call at most once.
  void unleash();

  // Outcome counters (thread-safe snapshots).
  std::size_t attempts_scheduled() const;
  std::size_t completed() const;   // snapshot callbacks fired
  std::size_t fallbacks() const;   // cuts that needed the fenced fallback
  std::uint64_t rounds() const;    // total collect rounds across all cuts

 private:
  Cluster& cluster_;
  Rng rng_;
  SnapshotStormParams params_;
  std::shared_ptr<HistoryRecorder> history_;
  bool unleashed_ = false;
  std::size_t scheduled_ = 0;

  mutable std::mutex mu_;
  std::size_t completed_ = 0;
  std::size_t fallbacks_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace wrs::testing
