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

#include "common/flat_map.h"
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
/// `group` scopes both the origin broadcast and the forward step to
/// exactly that server set: the owner's config's servers, i.e. one
/// replica group of a (possibly sharded) deployment.
class ReliableBroadcast {
 public:
  using DeliverFn = std::function<void(ProcessId origin, const Message&)>;

  ReliableBroadcast(Env& env, ProcessId self, DeliverFn deliver,
                    std::vector<ProcessId> group)
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
    if (!first_copy(rb->origin(), rb->seq())) return true;  // duplicate
    // Forward before delivering so Agreement holds even if the local
    // deliver callback crashes this process.
    if (rb->origin() != self_) {
      send_all(make_msg<RbMsg>(rb->origin(), rb->seq(),
                                       rb->payload()));
    }
    deliver_(rb->origin(), *rb->payload());
    return true;
  }

  /// Payloads delivered so far, over every origin.
  std::size_t delivered_count() const {
    std::size_t n = 0;
    for (const auto& [origin, seen] : delivered_) {
      n += seen.below + seen.above.size();
    }
    return n;
  }

  /// Delivered seqs held above their origin's watermark: zero once every
  /// origin's deliveries are contiguous.
  std::size_t above_watermark() const {
    std::size_t n = 0;
    for (const auto& [origin, seen] : delivered_) n += seen.above.size();
    return n;
  }

 private:
  /// One origin's delivered seqs: all of [0, below), plus `above`.
  /// Origins number their broadcasts 0, 1, 2, ... so on a loss-free link
  /// the watermark advances and `above` drains: the state per origin is
  /// O(1) however many broadcasts it made. Under loss it can still grow:
  /// a seq that never arrives here (every copy dropped, or the origin
  /// crashed mid-send and no forward carried it) leaves a gap the
  /// watermark never passes, and `above` keeps every later seq.
  struct Delivered {
    std::uint64_t below = 0;
    std::set<std::uint64_t> above;
  };

  /// Records (origin, seq); true iff it had not been delivered before.
  bool first_copy(ProcessId origin, std::uint64_t seq) {
    Delivered& seen = delivered_[origin];
    if (seq < seen.below) return false;
    if (seq > seen.below) return seen.above.insert(seq).second;
    ++seen.below;
    while (!seen.above.empty() && *seen.above.begin() == seen.below) {
      seen.above.erase(seen.above.begin());
      ++seen.below;
    }
    return true;
  }

  void send_all(const MsgPtr& wrapped) {
    env_.broadcast_to_group(self_, group_, wrapped);
  }

  Env& env_;
  ProcessId self_;
  DeliverFn deliver_;
  std::vector<ProcessId> group_;
  std::uint64_t next_seq_ = 0;
  FlatMap<ProcessId, Delivered> delivered_;
};

}  // namespace wrs
