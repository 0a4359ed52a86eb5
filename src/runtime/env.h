// Runtime interface shared by the discrete-event simulator (SimEnv), the
// thread-per-process runtime (ThreadEnv) and the socket runtime
// (SocketEnv).
//
// Execution model (all three runtimes guarantee it):
//  * Each process's handlers (`on_message`, scheduled callbacks,
//    `on_start`) run serially — never two at once for the same process.
//  * Links are reliable BY DEFAULT: a message from a correct process to
//    a correct process is eventually delivered exactly once; delivery
//    order between a pair of processes is NOT guaranteed (asynchrony).
//    The fault-injection plane (faults(), runtime/link_faults.h) can
//    deliberately violate reliability with partitions, probabilistic
//    loss, duplication, and (sim-only) bounded reordering.
//  * Crashing a process silently drops its queued and future messages.
//
// Protocols are event-driven state machines written only against this
// interface, so every protocol runs unmodified on all three substrates.
//
// What the runtimes share lives here, defined once: the traffic ledger
// and its export, the per-shard ledgers, the fault plane and its
// send-time verdict, and the group broadcast. A runtime supplies only
// what really differs: its clock, registration, crash handling and
// delivery.
#pragma once

#include <functional>
#include <memory>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "runtime/link_faults.h"
#include "runtime/message.h"
#include "runtime/task.h"
#include "runtime/traffic_ledger.h"

namespace wrs {

/// A deployed process (server or client role is up to the protocol).
class Process {
 public:
  virtual ~Process() = default;

  /// Called once before any message is delivered.
  virtual void on_start() {}

  /// Called for each delivered message, serialized per process.
  virtual void on_message(ProcessId from, const Message& msg) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Current time (simulated or wall-clock ns since construction).
  virtual TimeNs now() const = 0;

  /// Sends `msg` from `from` to `to`. Never blocks.
  virtual void send(ProcessId from, ProcessId to, MsgPtr msg) = 0;

  /// Runs `fn` in `pid`'s execution context after `delay`. Used for
  /// timeouts, retries, and workload pacing. If `pid` crashes before the
  /// deadline the callback is dropped. Task converts implicitly from any
  /// callable, holds small captures inline, and (unlike std::function)
  /// accepts move-only closures.
  virtual void schedule(ProcessId pid, TimeNs delay, Task fn) = 0;

  /// Registers the handler for `pid`. The process must outlive the Env run.
  virtual void register_process(ProcessId pid, Process* process) = 0;

  /// Crash-stops `pid`: queued and future messages/callbacks are dropped.
  virtual void crash(ProcessId pid) = 0;

  virtual bool is_crashed(ProcessId pid) const = 0;

  /// The fault-injection plane: partitions, message loss, duplication,
  /// reordering (see runtime/link_faults.h). Faults apply to messages
  /// SENT while active; healing does not resurrect dropped messages, so
  /// protocol liveness under faults needs retries
  /// (AbdClient::set_retry_interval) / anti-entropy
  /// (ReassignNode::enable_sync).
  LinkFaults& faults() { return faults_; }

  /// Message traffic counters ("msgs", "bytes", per-type counts). The
  /// snapshot is materialized on each call; on the thread and socket
  /// runtimes it is exact only once the deployment is quiescent.
  const Counters& traffic() const;

  /// Bumps a well-known ledger slot (e.g. AbdClient counting
  /// "reads.fast_path", SocketEnv counting "msgs.malformed"). Lock-free.
  void count_event(TrafficLedger::Slot slot, std::int64_t by = 1) {
    ledger_.inc(slot, by);
  }

  /// Group-scoped broadcast: sends to exactly `group` (including `from`
  /// when it is a member). Protocol components broadcast to their own
  /// config's server set: a sharded deployment runs several independent
  /// replica groups in one Env.
  void broadcast_to_group(ProcessId from, const std::vector<ProcessId>& group,
                          const MsgPtr& msg);

  // --- per-shard traffic accounting ---------------------------------------
  /// Attributes a message to a shard: the destination server's shard, or
  /// (for replies to clients) the sending server's. Returns a negative
  /// value for messages touching no server.
  using ShardOfMessage = std::function<int(ProcessId from, ProcessId to)>;

  /// Installs per-shard msgs/bytes counters next to traffic(). Call
  /// before the deployment starts; on the thread runtime the counters
  /// are only stable once the deployment is quiescent (like traffic()).
  void enable_shard_traffic(std::size_t shards, ShardOfMessage shard_of);

  bool shard_traffic_enabled() const { return !shard_traffic_.empty(); }
  std::size_t shard_traffic_shards() const { return shard_traffic_.size(); }

  /// Message counters of shard `g`; throws std::out_of_range naming the
  /// offender and valid range. The returned reference is a snapshot
  /// materialized on each call — read it when the deployment is
  /// quiescent (like traffic()).
  const Counters& shard_traffic(std::size_t g) const;

 protected:
  /// Charges one sent message to traffic() ("msgs", "bytes", "msg.<T>")
  /// and to its shard's counters. `bytes` is the message's encoded frame
  /// size: SimEnv and ThreadEnv get it from WireCodec::frame_size,
  /// SocketEnv from the frame it just encoded; the two agree by
  /// construction. Lock-free: the ledgers are sharded atomics and
  /// `shard_of` is a pure function of the ids.
  void count_send(ProcessId from, ProcessId to, const Message& msg,
                  std::size_t bytes);

  /// The fault plane's send-time verdict on one from->to message, drawn
  /// from `rng`; a lost message counts "msgs.lost", a duplicated one
  /// "msgs.dup". The caller serializes its own rng (SimEnv is single
  /// threaded, ThreadEnv holds rng_mu_, SocketEnv mu_).
  LinkFaults::Decision fault_verdict(ProcessId from, ProcessId to, Rng& rng);

 private:
  LinkFaults faults_;
  TrafficLedger ledger_;
  mutable Counters traffic_export_;
  std::vector<TrafficLedger> shard_traffic_;
  mutable std::vector<Counters> shard_traffic_export_;
  ShardOfMessage shard_of_;
};

}  // namespace wrs
