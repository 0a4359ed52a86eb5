// Server node of the restricted pairwise weight reassignment protocol:
// Algorithm 4 (transfer) plus the server part of Algorithm 3
// (read_changes service).
//
// Faithfulness notes (deviations recorded in DESIGN.md §2):
//  * transfer() checks C2 locally: weight() > delta + W_{S,0}/(2(n-f));
//    effective transfers store both changes locally, reliably broadcast
//    <T, c, c'>, and complete after T_Acks from n-f-1 *other* servers.
//    Null (aborted) transfers complete immediately and store nothing.
//  * C1 is structural: transfer() only ever moves *this* server's weight.
//  * A server acknowledges a transfer (T_Ack) only once BOTH changes of
//    the (issuer, counter) pair are stored — slightly stronger than the
//    paper's per-change ack, closing a race where write-backs of a single
//    half could count toward completion.
//  * Before applying a weight *gain*, the node runs the registered
//    refresh hook (Algorithm 4 line 9: "register <- read()"); the dynamic
//    storage layer uses this to complete a read before its quorum power
//    grows. Standalone deployments leave the default no-op hook.
//  * The gain target stores a transfer pair whole: both halves of every
//    (issuer, counter) pair carrying a gain for this node wait for the
//    refresh, and all such changes of one write_changes call share one
//    refresh. A half that arrives while its pair waits joins the
//    waiting batch. Safety: holding the loss half back is
//    indistinguishable from the T message reaching the target later,
//    which asynchrony allows, and the refresh is an ordinary read by a
//    co-located client. T_Ack still needs both halves, so transfer
//    completion and read_changes Validity II are unchanged. Applying the
//    halves together means every client learns a transfer in one merge,
//    and restarts its operations once per transfer instead of twice.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "broadcast/reliable_broadcast.h"
#include "core/config.h"
#include "core/read_changes_engine.h"
#include "core/reassign_messages.h"
#include "runtime/env.h"

namespace wrs {

/// Outcome of a completed transfer invocation: the <Complete, c> message
/// of the paper, where c is the negative (source) change — zero-weight
/// when the invocation was null (aborted by the C2 check).
struct TransferOutcome {
  bool effective = false;
  Change completion_change;
};

class ReassignNode : public Process {
 public:
  using TransferCallback = std::function<void(const TransferOutcome&)>;
  using ReadChangesCallback = ReadChangesEngine::Callback;
  /// Called before a weight gain is applied; must invoke `done` (possibly
  /// asynchronously) when the pre-gain work (storage register refresh)
  /// finished.
  using RefreshHook = std::function<void(std::function<void()> done)>;

  ReassignNode(Env& env, ProcessId self, const SystemConfig& config);

  // --- public API (the problem's operations) ------------------------------
  /// transfer(self, to, delta): moves `delta` (> 0) of this server's
  /// weight to `to`. Processes are sequential: at most one outstanding
  /// transfer per node (throws std::logic_error otherwise).
  void transfer(ProcessId to, const Weight& delta, TransferCallback cb);

  /// read_changes(target) — any process may invoke; servers included.
  void read_changes(ProcessId target, ReadChangesCallback cb);

  /// Current weight of this server per its local change set.
  Weight weight() const { return changes_.weight_of(self_); }

  /// Weight of any server per the local change set.
  Weight weight_of(ProcessId server) const {
    return changes_.weight_of(server);
  }

  /// Snapshot of the local change set (tests, storage piggybacking).
  const ChangeSet& changes() const { return changes_; }

  const SystemConfig& config() const { return config_; }
  ProcessId id() const { return self_; }

  /// Reassignment messages dropped because they carried another group's
  /// shard id (should stay 0 — scoped broadcasts never produce them).
  std::uint64_t misrouted_count() const { return misrouted_; }

  bool transfer_in_flight() const { return pending_transfer_.has_value(); }

  void set_refresh_hook(RefreshHook hook) { refresh_hook_ = std::move(hook); }

  /// Anti-entropy (off by default): every `period` this node broadcasts
  /// <SYNC, C, lc?> to all servers; receivers merge via write_changes and
  /// re-acknowledge the sender's pending transfer pair when they already
  /// store it. Makes change sets converge — and stuck transfers complete
  /// — even when the fault plane dropped T / T_Ack / RB traffic.
  /// `period` <= 0 disables (any scheduled round becomes a no-op).
  void enable_sync(TimeNs period);

  // --- Process interface ---------------------------------------------------
  void on_message(ProcessId from, const Message& msg) override;

  /// Component-style dispatch for composition with the storage server in
  /// one Process; returns true iff the message belonged to this protocol.
  bool handle(ProcessId from, const Message& msg);

 private:
  struct PendingTransfer {
    std::uint64_t counter = 0;
    Change neg;
    std::set<ProcessId> acks;
    TransferCallback cb;
  };

  /// Algorithm 4 write_changes: stores every missing change from `incoming`
  /// (running the refresh hook before the pairs that carry a gain for this
  /// node) and T_Acks issuers whose pair completed. `done` fires when all
  /// changes are applied locally.
  void write_changes(const ChangeSet& incoming, std::function<void()> done);

  /// Changes waiting on one refresh_hook_ call, applied together when
  /// it finishes; `waiters` are the write_changes calls it holds up.
  struct HeldBatch {
    std::vector<Change> changes;
    std::vector<std::function<void()>> waiters;
  };
  using PairId = std::pair<ProcessId, std::uint64_t>;

  void apply_change(const Change& c);
  void maybe_ack_issuer(ProcessId issuer, std::uint64_t counter);
  /// Schedules the next anti-entropy round, which broadcasts <SYNC> and
  /// schedules the one after it.
  void schedule_sync();
  void on_rb_deliver(ProcessId origin, const Message& payload);
  void complete_transfer();

  bool misrouted(ShardId requested) {
    if (requested == config_.shard) return false;
    ++misrouted_;
    return true;
  }

  Env& env_;
  ProcessId self_;
  SystemConfig config_;
  std::vector<ProcessId> servers_;  // the group anti-entropy is scoped to
  Weight floor_;
  std::uint64_t misrouted_ = 0;

  ChangeSet changes_;
  std::uint64_t lc_ = kFirstCounter;
  ReliableBroadcast rb_;
  ReadChangesEngine read_engine_;

  std::optional<PendingTransfer> pending_transfer_;
  /// Pairs carrying a gain for this node whose refresh is in flight.
  std::map<PairId, std::shared_ptr<HeldBatch>> held_;
  RefreshHook refresh_hook_;
  TimeNs sync_period_ = 0;
  std::uint64_t sync_epoch_ = 0;  // invalidates in-flight sync timers
};

}  // namespace wrs
