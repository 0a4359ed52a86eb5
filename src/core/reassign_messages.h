// Wire messages of the restricted pairwise weight reassignment protocol
// (Algorithms 3 and 4).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/change_set.h"
#include "runtime/message.h"

namespace wrs {

/// Requests and server-to-server traffic carry the shard id of their
/// replica group; a server drops reassignment traffic addressed to a
/// different group (see abd_messages.h for the sharding rationale).

/// <RC, s, g> — phase 1 of read_changes: asks a server for the changes it
/// stores for target `s`. op_id correlates responses with invocations.
class RcReq : public MessageBase<RcReq> {
 public:
  RcReq(std::uint64_t op_id, ProcessId target, ShardId shard = 0)
      : op_id_(op_id), target_(target), shard_(shard) {}
  std::uint64_t op_id() const { return op_id_; }
  ProcessId target() const { return target_; }
  ShardId shard() const { return shard_; }
  std::string type_name() const override { return "RC"; }

 private:
  std::uint64_t op_id_;
  ProcessId target_;
  ShardId shard_;
};

/// <RC_Ack, C_s> — a server's stored changes for the requested target.
class RcAck : public MessageBase<RcAck> {
 public:
  RcAck(std::uint64_t op_id, ChangeSet changes)
      : op_id_(op_id), changes_(std::move(changes)) {}
  std::uint64_t op_id() const { return op_id_; }
  const ChangeSet& changes() const { return changes_; }
  std::string type_name() const override { return "RC_ACK"; }

 private:
  std::uint64_t op_id_;
  ChangeSet changes_;
};

/// <WC, C, g> — phase 2 of read_changes: write back the unioned set so
/// that n-f servers store it before the invocation returns.
class WcReq : public MessageBase<WcReq> {
 public:
  WcReq(std::uint64_t op_id, ChangeSet changes, ShardId shard = 0)
      : op_id_(op_id), changes_(std::move(changes)), shard_(shard) {}
  std::uint64_t op_id() const { return op_id_; }
  const ChangeSet& changes() const { return changes_; }
  ShardId shard() const { return shard_; }
  std::string type_name() const override { return "WC"; }

 private:
  std::uint64_t op_id_;
  ChangeSet changes_;
  ShardId shard_;
};

/// <WC_Ack>.
class WcAck : public MessageBase<WcAck> {
 public:
  explicit WcAck(std::uint64_t op_id) : op_id_(op_id) {}
  std::uint64_t op_id() const { return op_id_; }
  std::string type_name() const override { return "WC_ACK"; }

 private:
  std::uint64_t op_id_;
};

/// <T, c, c', g> — the transfer announcement, reliably broadcast by the
/// issuer (Algorithm 4 line 14). Carries both changes of the pair.
class TransferMsg : public MessageBase<TransferMsg> {
 public:
  TransferMsg(Change neg, Change pos, ShardId shard = 0)
      : neg_(std::move(neg)), pos_(std::move(pos)), shard_(shard) {}
  const Change& neg() const { return neg_; }
  const Change& pos() const { return pos_; }
  ShardId shard() const { return shard_; }
  std::string type_name() const override { return "T"; }

 private:
  Change neg_;
  Change pos_;
  ShardId shard_;
};

/// <SYNC, C, lc?> — anti-entropy round (not in the paper, which assumes
/// reliable links): a server's periodic broadcast of its full change set,
/// used to restore convergence and transfer completion when the
/// fault-injection plane loses T / T_Ack traffic. `pending_counter`
/// carries the sender's in-flight transfer counter (if any) so receivers
/// that already stored the pair can RE-acknowledge — the original T_Ack
/// may have been dropped. Off unless ReassignNode::enable_sync is called.
class SyncMsg : public MessageBase<SyncMsg> {
 public:
  SyncMsg(ChangeSet changes, std::optional<std::uint64_t> pending_counter,
          ShardId shard = 0)
      : changes_(std::move(changes)),
        pending_counter_(pending_counter),
        shard_(shard) {}
  const ChangeSet& changes() const { return changes_; }
  const std::optional<std::uint64_t>& pending_counter() const {
    return pending_counter_;
  }
  ShardId shard() const { return shard_; }
  std::string type_name() const override { return "SYNC"; }

 private:
  ChangeSet changes_;
  std::optional<std::uint64_t> pending_counter_;
  ShardId shard_;
};

/// <T_Ack, lc, g> — acknowledgment that a server stored both changes of
/// the transfer identified by (issuer, counter).
class TAck : public MessageBase<TAck> {
 public:
  explicit TAck(std::uint64_t counter, ShardId shard = 0)
      : counter_(counter), shard_(shard) {}
  std::uint64_t counter() const { return counter_; }
  ShardId shard() const { return shard_; }
  std::string type_name() const override { return "T_ACK"; }

 private:
  std::uint64_t counter_;
  ShardId shard_;
};

}  // namespace wrs
