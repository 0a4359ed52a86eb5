// Wire messages of the elastic-resharding handoff (src/rebalance/).
//
// A migration moves ONE register between replica groups while both keep
// serving traffic, in three quorum rounds driven by the MigrationEngine:
//
//   1. MigFreeze  -> source group.  Each server fences the key behind the
//      migration's map epoch (client requests for the key are parked, see
//      AbdServer; the migration fence outranks, and so preempts, any
//      snapshot fence, and never waits) and answers at once with a plain
//      ReadAck carrying its replica —
//      the freeze doubles as the final ABD read, so the engine's quorum
//      of freeze acks yields the definitive (tag, value) by the standard
//      intersection argument.
//   2. MigCommit(install) -> destination group.  Carries the frozen
//      (tag, value); each server installs it tag-monotonically AND marks
//      itself the key's owner in the same step, then acks with a plain
//      WriteAck. Install and ownership flip atomically per server, so a
//      destination quorum can serve reads the moment this round completes.
//   3. MigCommit -> source group.  Flips the source servers' route marks
//      to "owned by dest as of epoch e" and lifts the fence; parked
//      requests drain as WrongShardAck redirects (parked snapshot freezes
//      as kMoved flags) and late clients learn the move lazily.
//
// Acks reuse ReadAck/WriteAck — the fence rides the existing ABD quorum
// machinery (AbdClient grows kFreeze/kCommit op kinds), so exactly three
// new message types hit the wire (WireType 20..22).
//
// Safety is epoch monotonicity (servers and ShardMap copies apply only
// strictly-newer marks; the engine is the single epoch allocator) plus
// the per-key tag order (the installed value's tag dominates every write
// completed at the source before the freeze).
#pragma once

#include <cstdint>
#include <optional>

#include "storage/abd_messages.h"

namespace wrs {

/// <M_FRZ, opId, seq, g, key, epoch, dest> — freeze `key` at its source
/// group `g` behind map epoch `epoch`; acked by ReadAck (the final read).
/// `dest` travels for observability (logs, tests) — safety never reads it.
class MigFreeze : public MessageBase<MigFreeze> {
 public:
  MigFreeze(OpId op_id, RegisterKey key, std::uint64_t epoch, ShardId dest,
            std::uint32_t seq = 0, ShardId shard = 0)
      : op_id_(op_id),
        epoch_(epoch),
        seq_(seq),
        shard_(shard),
        dest_(dest),
        key_(std::move(key)) {}
  OpId op_id() const { return op_id_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  ShardId dest() const { return dest_; }
  const RegisterKey& key() const { return key_; }
  std::string type_name() const override { return "M_FRZ"; }

 private:
  OpId op_id_;
  std::uint64_t epoch_;
  std::uint32_t seq_;
  ShardId shard_;
  ShardId dest_;
  RegisterKey key_;
};

/// <M_CMT, opId, seq, g, key, owner, epoch, install?> — commit "key is
/// owned by `owner` as of `epoch`" at group `g`; acked by WriteAck. The
/// destination-group round carries the frozen replica in `install` (the
/// write-with-tag); the source-group round carries none.
class MigCommit : public MessageBase<MigCommit> {
 public:
  MigCommit(OpId op_id, RegisterKey key, ShardId owner, std::uint64_t epoch,
            std::optional<TaggedValue> install = std::nullopt,
            std::uint32_t seq = 0, ShardId shard = 0)
      : op_id_(op_id),
        epoch_(epoch),
        seq_(seq),
        shard_(shard),
        owner_(owner),
        key_(std::move(key)),
        install_(std::move(install)) {}
  OpId op_id() const { return op_id_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint32_t seq() const { return seq_; }
  ShardId shard() const { return shard_; }
  ShardId owner() const { return owner_; }
  const RegisterKey& key() const { return key_; }
  const std::optional<TaggedValue>& install() const { return install_; }
  std::string type_name() const override { return "M_CMT"; }

 private:
  OpId op_id_;
  std::uint64_t epoch_;
  std::uint32_t seq_;
  ShardId shard_;
  ShardId owner_;
  RegisterKey key_;
  std::optional<TaggedValue> install_;
};

/// <W_S, opId, seq, key, owner, epoch> — server -> client redirect: the
/// addressed group no longer owns `key`; it moved to `owner` as of map
/// epoch `epoch`. The router merges the override into its ShardMap copy
/// (newest epoch wins) and reissues the operation at the current owner.
class WrongShardAck : public MessageBase<WrongShardAck> {
 public:
  WrongShardAck(OpId op_id, RegisterKey key, ShardId owner,
                std::uint64_t epoch, std::uint32_t seq = 0)
      : op_id_(op_id), epoch_(epoch), seq_(seq), owner_(owner),
        key_(std::move(key)) {}
  OpId op_id() const { return op_id_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint32_t seq() const { return seq_; }
  ShardId owner() const { return owner_; }
  const RegisterKey& key() const { return key_; }
  std::string type_name() const override { return "W_S"; }

 private:
  OpId op_id_;
  std::uint64_t epoch_;
  std::uint32_t seq_;
  ShardId owner_;
  RegisterKey key_;
};

}  // namespace wrs
