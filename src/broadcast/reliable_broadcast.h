// Crash-tolerant reliable broadcast (Hadzilacos & Toueg style).
//
// Guarantees, with at most f crash faults and reliable links:
//  * Validity: if a correct process broadcasts m, it delivers m.
//  * Agreement: if any correct process delivers m, every correct process
//    delivers m.
//  * Integrity: every process delivers m at most once.
//
// Mechanism: the origin sends <RB, origin, seq, payload> to all servers;
// on first receipt every server forwards the same message to all servers
// and then delivers the payload locally. The forwarding step is what
// provides Agreement when the origin crashes mid-broadcast.
//
// Algorithm 4 of the paper broadcasts its T messages through this
// primitive (line 14).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include "runtime/env.h"
#include "runtime/msg_pool.h"

namespace wrs {

/// The wrapper message carried on the wire.
class RbMsg : public MessageBase<RbMsg> {
 public:
  RbMsg(ProcessId origin, std::uint64_t seq, MsgPtr payload)
      : origin_(origin), seq_(seq), payload_(std::move(payload)) {}

  ProcessId origin() const { return origin_; }
  std::uint64_t seq() const { return seq_; }
  const MsgPtr& payload() const { return payload_; }

  std::string type_name() const override { return "RB"; }

 private:
  ProcessId origin_;
  std::uint64_t seq_;
  MsgPtr payload_;
};

/// Per-process reliable broadcast endpoint. Owned by a protocol component;
/// not itself a Process. The owner must route RbMsg instances received in
/// its on_message into handle().
///
/// A non-empty `group` scopes both the origin broadcast and the forward
/// step to exactly that server set (one replica group of a sharded
/// deployment); an empty group falls back to every server registered in
/// the Env (the classic single-group behavior).
class ReliableBroadcast {
 public:
  using DeliverFn = std::function<void(ProcessId origin, const Message&)>;

  ReliableBroadcast(Env& env, ProcessId self, DeliverFn deliver,
                    std::vector<ProcessId> group = {})
      : env_(env),
        self_(self),
        deliver_(std::move(deliver)),
        group_(std::move(group)) {}

  /// R-broadcasts `payload` to the group (including self).
  void broadcast(MsgPtr payload) {
    send_all(make_msg<RbMsg>(self_, next_seq_++, std::move(payload)));
  }

  /// Returns true iff `msg` was an RbMsg and has been consumed.
  bool handle(ProcessId /*from*/, const Message& msg) {
    const auto* rb = msg_cast<RbMsg>(msg);
    if (rb == nullptr) return false;
    auto key = std::make_pair(rb->origin(), rb->seq());
    if (!delivered_.insert(key).second) return true;  // duplicate
    // Forward before delivering so Agreement holds even if the local
    // deliver callback crashes this process.
    if (rb->origin() != self_) {
      send_all(make_msg<RbMsg>(rb->origin(), rb->seq(),
                                       rb->payload()));
    }
    deliver_(rb->origin(), *rb->payload());
    return true;
  }

  std::size_t delivered_count() const { return delivered_.size(); }

 private:
  void send_all(const MsgPtr& wrapped) {
    if (group_.empty()) {
      env_.broadcast_to_servers(self_, wrapped);
    } else {
      env_.broadcast_to_group(self_, group_, wrapped);
    }
  }

  Env& env_;
  ProcessId self_;
  DeliverFn deliver_;
  std::vector<ProcessId> group_;
  std::uint64_t next_seq_ = 0;
  std::set<std::pair<ProcessId, std::uint64_t>> delivered_;
};

}  // namespace wrs
