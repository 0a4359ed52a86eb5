// Wire messages of the (dynamic-weighted) ABD register protocol
// (Algorithms 5 and 6). The same messages serve the static baseline —
// then `changes` is null and no set is piggybacked.
//
// Operation multiplexing: every request carries the issuing client's
// OpId (identifies the storage operation; unique across every client in
// the process so co-located clients never confuse replies) plus a `seq`
// (the operation's phase-attempt counter, bumped on every phase start
// and change-set restart). Servers echo both verbatim; the client
// routes a reply to the operation by OpId and discards it as stale when
// the seq does not match the operation's current attempt.
#pragma once

#include <memory>
#include <vector>

#include "core/change_set.h"
#include "runtime/message.h"
#include "storage/tag.h"

namespace wrs {

/// Shared immutable change-set payload. Replies from servers carry the
/// server's current set; null from a bare test server. Immutability rule:
/// the set behind a ChangeSetPtr is never modified once the pointer is
/// handed to a reply. Every producer keeps it: DynamicStorageNode
/// publishes a fresh object each time its set grows, the wire codec
/// decodes a fresh object per frame, and tests build theirs before
/// sending. AbdClient relies on it to skip re-merging a pointer it has
/// already merged.
using ChangeSetPtr = std::shared_ptr<const ChangeSet>;

/// Identifies one client storage operation across all its phases and
/// restarts. Process-wide unique (see AbdClient::fresh_op_id).
using OpId = std::uint64_t;

/// Sharded deployments run several replica groups in one runtime, so
/// every REQUEST carries the shard id of the group the client addressed;
/// servers drop requests whose shard does not match their own group
/// (defense in depth against routing bugs — scoped broadcasts should
/// never produce them). Unsharded deployments are shard 0 throughout.
/// Replies are point-to-point and matched by OpId, so they carry none.

/// <R, opId, seq, g> — phase-1 request.
class ReadReq : public MessageBase<ReadReq> {
 public:
  explicit ReadReq(OpId op_id, RegisterKey key = "", std::uint32_t seq = 0,
                   ShardId shard = 0)
      : op_id_(op_id), seq_(seq), shard_(shard), key_(std::move(key)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  const RegisterKey& key() const { return key_; }
  std::string type_name() const override { return "R"; }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  ShardId shard_;
  RegisterKey key_;
};

/// <KEYS, opId, seq, g> — asks a server for the set of register keys it
/// stores (used by the multi-register refresh on weight gain).
class KeysReq : public MessageBase<KeysReq> {
 public:
  explicit KeysReq(OpId op_id, std::uint32_t seq = 0, ShardId shard = 0)
      : op_id_(op_id), seq_(seq), shard_(shard) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  std::string type_name() const override { return "KEYS"; }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  ShardId shard_;
};

/// <KEYS_A, opId, seq, keys, C>.
class KeysAck : public MessageBase<KeysAck> {
 public:
  KeysAck(OpId op_id, std::vector<RegisterKey> keys, ChangeSetPtr changes,
          std::uint32_t seq = 0)
      : op_id_(op_id),
        seq_(seq),
        keys_(std::move(keys)),
        changes_(std::move(changes)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  const std::vector<RegisterKey>& keys() const { return keys_; }
  const ChangeSetPtr& changes() const { return changes_; }
  std::string type_name() const override { return "KEYS_A"; }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  std::vector<RegisterKey> keys_;
  ChangeSetPtr changes_;
};

/// <R_A, reg, opId, seq, C> — phase-1 reply: register contents + change
/// set.
class ReadAck : public MessageBase<ReadAck> {
 public:
  ReadAck(OpId op_id, TaggedValue reg, ChangeSetPtr changes,
          std::uint32_t seq = 0)
      : op_id_(op_id),
        seq_(seq),
        reg_(std::move(reg)),
        changes_(std::move(changes)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  const TaggedValue& reg() const { return reg_; }
  const ChangeSetPtr& changes() const { return changes_; }
  std::string type_name() const override { return "R_A"; }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  TaggedValue reg_;
  ChangeSetPtr changes_;
};

/// <W, <tag, val>, opId, seq, g> — phase-2 request (write or read
/// write-back).
class WriteReq : public MessageBase<WriteReq> {
 public:
  WriteReq(OpId op_id, TaggedValue reg, RegisterKey key = "",
           std::uint32_t seq = 0, ShardId shard = 0)
      : op_id_(op_id),
        seq_(seq),
        shard_(shard),
        reg_(std::move(reg)),
        key_(std::move(key)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  const TaggedValue& reg() const { return reg_; }
  const RegisterKey& key() const { return key_; }
  std::string type_name() const override { return "W"; }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  ShardId shard_;
  TaggedValue reg_;
  RegisterKey key_;
};

/// <B, g, [frame...]> — batched wire envelope (client -> servers).
///
/// A batching client coalesces the phase requests of several operations
/// addressed to the SAME shard into one envelope: `frames` holds the
/// individual ReadReq / WriteReq / KeysReq messages exactly as the
/// unbatched protocol would have sent them, so servers apply each frame
/// through the ordinary per-request logic (idempotent, seq-echoing) and
/// nothing about the quorum protocol changes — only the message count.
/// The fault plane acts on whole envelopes: dropping / duplicating /
/// reordering a BatchRequest drops / duplicates / reorders every frame
/// in it together.
///
/// On the wire the envelope amortizes the frame prelude: each frame
/// costs its own payload plus a 5-byte nested prelude (tag + length)
/// instead of a full 14-byte frame prelude (net/wire_format.h).
class BatchRequest : public MessageBase<BatchRequest> {
 public:
  BatchRequest(ShardId shard, std::vector<MsgPtr> frames)
      : shard_(shard), frames_(std::move(frames)) {}
  ShardId shard() const { return shard_; }
  const std::vector<MsgPtr>& frames() const { return frames_; }
  std::string type_name() const override { return "B"; }

 private:
  ShardId shard_;
  std::vector<MsgPtr> frames_;
};

/// <B_A, [frame...]> — one reply per BatchRequest, carrying the
/// per-(op_id, seq) acks of every applied frame. The client demultiplexes
/// the frames back into its concurrent two-phase state machines exactly
/// as if they had arrived as individual messages.
class BatchReply : public MessageBase<BatchReply> {
 public:
  explicit BatchReply(std::vector<MsgPtr> frames)
      : frames_(std::move(frames)) {}
  const std::vector<MsgPtr>& frames() const { return frames_; }
  std::string type_name() const override { return "B_A"; }

 private:
  std::vector<MsgPtr> frames_;
};

/// <W_A, opId, seq, C>.
class WriteAck : public MessageBase<WriteAck> {
 public:
  WriteAck(OpId op_id, ChangeSetPtr changes, std::uint32_t seq = 0)
      : op_id_(op_id), seq_(seq), changes_(std::move(changes)) {}
  OpId op_id() const { return op_id_; }
  std::uint32_t seq() const { return seq_; }
  const ChangeSetPtr& changes() const { return changes_; }
  std::string type_name() const override { return "W_A"; }

 private:
  OpId op_id_;
  std::uint32_t seq_;
  ChangeSetPtr changes_;
};

}  // namespace wrs
