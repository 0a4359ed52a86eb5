#include "net/wire_codec.h"

#include <bit>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "broadcast/reliable_broadcast.h"
#include "core/reassign_messages.h"
#include "monitor/adaptive_node.h"
#include "runtime/msg_pool.h"
#include "storage/abd_messages.h"
#include "storage/migration_messages.h"
#include "storage/snapshot_messages.h"

namespace wrs::net {
namespace {

// Thrown inside the decoder on any malformed input; decode_frame() turns
// it (and anything else the reconstructed types throw — denormal
// Rationals, duplicate change ids) into nullopt at the boundary.
struct CodecError : std::runtime_error {
  explicit CodecError(const char* what) : std::runtime_error(what) {}
};

// --- primitive reader ------------------------------------------------------

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), end_(len) {}

  std::size_t remaining() const { return end_ - pos_; }
  bool done() const { return pos_ == end_; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    // Construct from the buffer range: std::string always copies.
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// A sub-reader over the next `n` bytes (for length-delimited nested
  /// messages); consumes them from this reader.
  Reader slice(std::size_t n) {
    need(n);
    Reader sub(data_ + pos_, n);
    pos_ += n;
    return sub;
  }

  /// Guards count-prefixed containers: a claimed element count whose
  /// minimum encoding would not fit in the remaining bytes is malformed
  /// (rejects absurd counts before any allocation).
  void check_count(std::uint64_t count, std::size_t min_elem_bytes) const {
    if (count * min_elem_bytes > remaining()) {
      throw CodecError("wire: container count exceeds frame");
    }
  }

 private:
  void need(std::size_t n) const {
    if (end_ - pos_ < n) throw CodecError("wire: truncated frame");
  }

  const std::uint8_t* data_;
  std::size_t pos_ = 0;
  std::size_t end_;
};

// --- shared composite encodings --------------------------------------------

void put_weight(SpanWriter& w, const Weight& v) {
  w.i64(v.num());
  w.i64(v.den());
}

Weight get_weight(Reader& r) {
  std::int64_t num = r.i64();
  std::int64_t den = r.i64();
  // Rational(num, den) throws on den == 0; a NON-normalized pair decodes
  // fine but would re-encode differently, so reject it explicitly — valid
  // encoders only ever emit normalized weights.
  Weight v(num, den);
  if (v.num() != num || v.den() != den) {
    throw CodecError("wire: denormalized weight");
  }
  return v;
}

void put_change(SpanWriter& w, const Change& c) {
  w.u32(c.id.issuer);
  w.u64(c.id.counter);
  w.u32(c.id.target);
  put_weight(w, c.delta);
}

constexpr std::size_t kChangeBytes = 4 + 8 + 4 + 16;

Change get_change(Reader& r) {
  ProcessId issuer = r.u32();
  std::uint64_t counter = r.u64();
  ProcessId target = r.u32();
  Weight delta = get_weight(r);
  return Change(issuer, counter, target, std::move(delta));
}

void put_change_set(SpanWriter& w, const ChangeSet& cs) {
  // all() iterates the underlying ordered map — deterministic order, so
  // round trips are byte-identical.
  std::vector<Change> changes = cs.all();
  w.u32(static_cast<std::uint32_t>(changes.size()));
  for (const Change& c : changes) put_change(w, c);
}

ChangeSet get_change_set(Reader& r) {
  std::uint32_t n = r.u32();
  r.check_count(n, kChangeBytes);
  ChangeSet cs;
  for (std::uint32_t i = 0; i < n; ++i) {
    // add() throws on a duplicate id with a different delta — malformed.
    cs.add(get_change(r));
  }
  return cs;
}

void put_changes_ptr(SpanWriter& w, const ChangeSetPtr& cs) {
  w.u8(cs ? 1 : 0);
  if (cs) put_change_set(w, *cs);
}

ChangeSetPtr get_changes_ptr(Reader& r) {
  std::uint8_t present = r.u8();
  if (present > 1) throw CodecError("wire: bad optional marker");
  if (!present) return nullptr;
  return make_pooled<const ChangeSet>(get_change_set(r));
}

void put_tagged_value(SpanWriter& w, const TaggedValue& tv) {
  w.i64(tv.tag.ts);
  w.u32(tv.tag.pid);
  w.str(tv.value);
}

TaggedValue get_tagged_value(Reader& r) {
  TaggedValue tv;
  tv.tag.ts = r.i64();
  tv.tag.pid = r.u32();
  tv.value = r.str();
  return tv;
}

void put_snap_entries(SpanWriter& w, const std::vector<SnapEntry>& entries) {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const SnapEntry& e : entries) {
    w.str(e.key);
    put_tagged_value(w, e.reg);
    w.u8(e.flag);
    w.u32(e.owner);
    w.u64(e.epoch);
  }
}

std::vector<SnapEntry> get_snap_entries(Reader& r) {
  std::uint32_t n = r.u32();
  // Minimum entry: empty key (4) + tag (12) + empty value (4) + flag/
  // owner/epoch (13).
  r.check_count(n, 33);
  std::vector<SnapEntry> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SnapEntry e;
    e.key = r.str();
    e.reg = get_tagged_value(r);
    e.flag = r.u8();
    if (e.flag > SnapEntry::kMoved) throw CodecError("wire: bad snap flag");
    e.owner = r.u32();
    e.epoch = r.u64();
    entries.push_back(std::move(e));
  }
  return entries;
}

void put_key_list(SpanWriter& w, const std::vector<RegisterKey>& keys) {
  w.u32(static_cast<std::uint32_t>(keys.size()));
  for (const RegisterKey& k : keys) w.str(k);
}

std::vector<RegisterKey> get_key_list(Reader& r) {
  std::uint32_t n = r.u32();
  r.check_count(n, 4);
  std::vector<RegisterKey> keys;
  keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) keys.push_back(r.str());
  return keys;
}

// --- per-type payloads ------------------------------------------------------

void put_message(SpanWriter& w, const Message& msg, int depth);
MsgPtr get_message(Reader& r, int depth);

void put_frames(SpanWriter& w, const std::vector<MsgPtr>& frames, int depth) {
  w.u32(static_cast<std::uint32_t>(frames.size()));
  for (const MsgPtr& f : frames) put_message(w, *f, depth);
}

std::vector<MsgPtr> get_frames(Reader& r, int depth) {
  std::uint32_t n = r.u32();
  r.check_count(n, 5);  // nested prelude: u8 tag + u32 length
  std::vector<MsgPtr> frames;
  frames.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) frames.push_back(get_message(r, depth));
  return frames;
}

/// Writes one payload body (no tag, no length). `depth` is the nesting
/// level already consumed; nested messages bump it.
void put_body(SpanWriter& w, const Message& msg, int depth) {
  if (const auto* m = msg_cast<ReadReq>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(m->shard());
    w.str(m->key());
  } else if (const auto* m = msg_cast<ReadAck>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    put_tagged_value(w, m->reg());
    put_changes_ptr(w, m->changes());
  } else if (const auto* m = msg_cast<WriteReq>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(m->shard());
    put_tagged_value(w, m->reg());
    w.str(m->key());
  } else if (const auto* m = msg_cast<WriteAck>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    put_changes_ptr(w, m->changes());
  } else if (const auto* m = msg_cast<KeysReq>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(m->shard());
  } else if (const auto* m = msg_cast<KeysAck>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(static_cast<std::uint32_t>(m->keys().size()));
    for (const RegisterKey& k : m->keys()) w.str(k);
    put_changes_ptr(w, m->changes());
  } else if (const auto* m = msg_cast<BatchRequest>(msg)) {
    w.u32(m->shard());
    put_frames(w, m->frames(), depth);
  } else if (const auto* m = msg_cast<BatchReply>(msg)) {
    put_frames(w, m->frames(), depth);
  } else if (const auto* m = msg_cast<RcReq>(msg)) {
    w.u64(m->op_id());
    w.u32(m->target());
    w.u32(m->shard());
  } else if (const auto* m = msg_cast<RcAck>(msg)) {
    w.u64(m->op_id());
    put_change_set(w, m->changes());
  } else if (const auto* m = msg_cast<WcReq>(msg)) {
    w.u64(m->op_id());
    w.u32(m->shard());
    put_change_set(w, m->changes());
  } else if (const auto* m = msg_cast<WcAck>(msg)) {
    w.u64(m->op_id());
  } else if (const auto* m = msg_cast<TransferMsg>(msg)) {
    put_change(w, m->neg());
    put_change(w, m->pos());
    w.u32(m->shard());
  } else if (const auto* m = msg_cast<TAck>(msg)) {
    w.u64(m->counter());
    w.u32(m->shard());
  } else if (const auto* m = msg_cast<SyncMsg>(msg)) {
    w.u8(m->pending_counter() ? 1 : 0);
    if (m->pending_counter()) w.u64(*m->pending_counter());
    w.u32(m->shard());
    put_change_set(w, m->changes());
  } else if (const auto* m = msg_cast<RbMsg>(msg)) {
    w.u32(m->origin());
    w.u64(m->seq());
    put_message(w, *m->payload(), depth);
  } else if (const auto* m = msg_cast<PingMsg>(msg)) {
    w.i64(m->sent_at());
  } else if (const auto* m = msg_cast<PongMsg>(msg)) {
    w.i64(m->sent_at());
  } else if (const auto* m = msg_cast<RttReportMsg>(msg)) {
    w.u32(static_cast<std::uint32_t>(m->rtts().size()));
    for (const auto& [pid, rtt] : m->rtts()) {  // std::map: ordered
      w.u32(pid);
      w.f64(rtt);
    }
  } else if (const auto* m = msg_cast<MigFreeze>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(m->shard());
    w.u64(m->epoch());
    w.u32(m->dest());
    w.str(m->key());
  } else if (const auto* m = msg_cast<MigCommit>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(m->shard());
    w.u64(m->epoch());
    w.u32(m->owner());
    w.str(m->key());
    w.u8(m->install() ? 1 : 0);
    if (m->install()) put_tagged_value(w, *m->install());
  } else if (const auto* m = msg_cast<WrongShardAck>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u64(m->epoch());
    w.u32(m->owner());
    w.str(m->key());
  } else if (const auto* m = msg_cast<SnapReq>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(m->shard());
    put_key_list(w, m->keys());
  } else if (const auto* m = msg_cast<SnapAck>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u8(m->held() ? 1 : 0);
    put_snap_entries(w, m->entries());
    put_changes_ptr(w, m->changes());
  } else if (const auto* m = msg_cast<SnapFreeze>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(m->shard());
    w.u64(m->snap_id());
    put_key_list(w, m->keys());
  } else if (const auto* m = msg_cast<SnapRelease>(msg)) {
    w.u64(m->op_id());
    w.u32(m->seq());
    w.u32(m->shard());
    w.u64(m->snap_id());
    put_snap_entries(w, m->installs());
  } else {
    throw std::invalid_argument("WireCodec: no wire mapping for message type " +
                                msg.type_name());
  }
}

/// Reads one payload body of type `type`; the reader is scoped to exactly
/// the body bytes, and leftovers are malformed (checked by the caller).
MsgPtr get_body(Reader& r, WireType type, int depth) {
  switch (type) {
    case WireType::kReadReq: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ShardId shard = r.u32();
      RegisterKey key = r.str();
      return make_msg<ReadReq>(op, std::move(key), seq, shard);
    }
    case WireType::kReadAck: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      TaggedValue tv = get_tagged_value(r);
      ChangeSetPtr cs = get_changes_ptr(r);
      return make_msg<ReadAck>(op, std::move(tv), std::move(cs), seq);
    }
    case WireType::kWriteReq: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ShardId shard = r.u32();
      TaggedValue tv = get_tagged_value(r);
      RegisterKey key = r.str();
      return make_msg<WriteReq>(op, std::move(tv), std::move(key), seq,
                                        shard);
    }
    case WireType::kWriteAck: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ChangeSetPtr cs = get_changes_ptr(r);
      return make_msg<WriteAck>(op, std::move(cs), seq);
    }
    case WireType::kKeysReq: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ShardId shard = r.u32();
      return make_msg<KeysReq>(op, seq, shard);
    }
    case WireType::kKeysAck: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      std::uint32_t n = r.u32();
      r.check_count(n, 4);
      std::vector<RegisterKey> keys;
      keys.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) keys.push_back(r.str());
      ChangeSetPtr cs = get_changes_ptr(r);
      return make_msg<KeysAck>(op, std::move(keys), std::move(cs), seq);
    }
    case WireType::kBatchRequest: {
      ShardId shard = r.u32();
      return make_msg<BatchRequest>(shard, get_frames(r, depth));
    }
    case WireType::kBatchReply:
      return make_msg<BatchReply>(get_frames(r, depth));
    case WireType::kRcReq: {
      std::uint64_t op = r.u64();
      ProcessId target = r.u32();
      ShardId shard = r.u32();
      return make_msg<RcReq>(op, target, shard);
    }
    case WireType::kRcAck: {
      std::uint64_t op = r.u64();
      return make_msg<RcAck>(op, get_change_set(r));
    }
    case WireType::kWcReq: {
      std::uint64_t op = r.u64();
      ShardId shard = r.u32();
      return make_msg<WcReq>(op, get_change_set(r), shard);
    }
    case WireType::kWcAck:
      return make_msg<WcAck>(r.u64());
    case WireType::kTransfer: {
      Change neg = get_change(r);
      Change pos = get_change(r);
      ShardId shard = r.u32();
      return make_msg<TransferMsg>(std::move(neg), std::move(pos),
                                           shard);
    }
    case WireType::kTAck: {
      std::uint64_t counter = r.u64();
      ShardId shard = r.u32();
      return make_msg<TAck>(counter, shard);
    }
    case WireType::kSync: {
      std::uint8_t present = r.u8();
      if (present > 1) throw CodecError("wire: bad optional marker");
      std::optional<std::uint64_t> pending;
      if (present) pending = r.u64();
      ShardId shard = r.u32();
      return make_msg<SyncMsg>(get_change_set(r), pending, shard);
    }
    case WireType::kRb: {
      ProcessId origin = r.u32();
      std::uint64_t seq = r.u64();
      return make_msg<RbMsg>(origin, seq, get_message(r, depth));
    }
    case WireType::kPing:
      return make_msg<PingMsg>(r.i64());
    case WireType::kPong:
      return make_msg<PongMsg>(r.i64());
    case WireType::kRttReport: {
      std::uint32_t n = r.u32();
      r.check_count(n, 12);
      std::map<ProcessId, double> rtts;
      for (std::uint32_t i = 0; i < n; ++i) {
        ProcessId pid = r.u32();
        double rtt = r.f64();
        if (!rtts.emplace(pid, rtt).second) {
          throw CodecError("wire: duplicate rtt key");
        }
      }
      return make_msg<RttReportMsg>(std::move(rtts));
    }
    case WireType::kMigFreeze: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ShardId shard = r.u32();
      std::uint64_t epoch = r.u64();
      ShardId dest = r.u32();
      RegisterKey key = r.str();
      return make_msg<MigFreeze>(op, std::move(key), epoch, dest, seq,
                                         shard);
    }
    case WireType::kMigCommit: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ShardId shard = r.u32();
      std::uint64_t epoch = r.u64();
      ShardId owner = r.u32();
      RegisterKey key = r.str();
      std::uint8_t present = r.u8();
      if (present > 1) throw CodecError("wire: bad optional marker");
      std::optional<TaggedValue> install;
      if (present) install = get_tagged_value(r);
      return make_msg<MigCommit>(op, std::move(key), owner, epoch,
                                         std::move(install), seq, shard);
    }
    case WireType::kWrongShard: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      std::uint64_t epoch = r.u64();
      ShardId owner = r.u32();
      RegisterKey key = r.str();
      return make_msg<WrongShardAck>(op, std::move(key), owner, epoch,
                                             seq);
    }
    case WireType::kSnapReq: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ShardId shard = r.u32();
      return make_msg<SnapReq>(op, get_key_list(r), seq, shard);
    }
    case WireType::kSnapAck: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      std::uint8_t held = r.u8();
      if (held > 1) throw CodecError("wire: bad held marker");
      std::vector<SnapEntry> entries = get_snap_entries(r);
      ChangeSetPtr cs = get_changes_ptr(r);
      return make_msg<SnapAck>(op, std::move(entries), std::move(cs), seq,
                               held == 1);
    }
    case WireType::kSnapFreeze: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ShardId shard = r.u32();
      SnapId snap = r.u64();
      return make_msg<SnapFreeze>(op, snap, get_key_list(r), seq, shard);
    }
    case WireType::kSnapRelease: {
      OpId op = r.u64();
      std::uint32_t seq = r.u32();
      ShardId shard = r.u32();
      SnapId snap = r.u64();
      return make_msg<SnapRelease>(op, snap, get_snap_entries(r), seq, shard);
    }
  }
  throw CodecError("wire: unknown type tag");
}

std::optional<WireType> type_tag(const Message& msg) {
  if (msg_cast<ReadReq>(msg)) return WireType::kReadReq;
  if (msg_cast<ReadAck>(msg)) return WireType::kReadAck;
  if (msg_cast<WriteReq>(msg)) return WireType::kWriteReq;
  if (msg_cast<WriteAck>(msg)) return WireType::kWriteAck;
  if (msg_cast<KeysReq>(msg)) return WireType::kKeysReq;
  if (msg_cast<KeysAck>(msg)) return WireType::kKeysAck;
  if (msg_cast<BatchRequest>(msg)) return WireType::kBatchRequest;
  if (msg_cast<BatchReply>(msg)) return WireType::kBatchReply;
  if (msg_cast<RcReq>(msg)) return WireType::kRcReq;
  if (msg_cast<RcAck>(msg)) return WireType::kRcAck;
  if (msg_cast<WcReq>(msg)) return WireType::kWcReq;
  if (msg_cast<WcAck>(msg)) return WireType::kWcAck;
  if (msg_cast<TransferMsg>(msg)) return WireType::kTransfer;
  if (msg_cast<TAck>(msg)) return WireType::kTAck;
  if (msg_cast<SyncMsg>(msg)) return WireType::kSync;
  if (msg_cast<RbMsg>(msg)) return WireType::kRb;
  if (msg_cast<PingMsg>(msg)) return WireType::kPing;
  if (msg_cast<PongMsg>(msg)) return WireType::kPong;
  if (msg_cast<RttReportMsg>(msg)) return WireType::kRttReport;
  if (msg_cast<MigFreeze>(msg)) return WireType::kMigFreeze;
  if (msg_cast<MigCommit>(msg)) return WireType::kMigCommit;
  if (msg_cast<WrongShardAck>(msg)) return WireType::kWrongShard;
  if (msg_cast<SnapReq>(msg)) return WireType::kSnapReq;
  if (msg_cast<SnapAck>(msg)) return WireType::kSnapAck;
  if (msg_cast<SnapFreeze>(msg)) return WireType::kSnapFreeze;
  if (msg_cast<SnapRelease>(msg)) return WireType::kSnapRelease;
  return std::nullopt;
}

/// Nested encoding: u8 tag + u32 body length + body.
void put_message(SpanWriter& w, const Message& msg, int depth) {
  if (depth + 1 > kMaxNestingDepth) {
    throw std::invalid_argument("WireCodec: message nesting too deep");
  }
  std::optional<WireType> type = type_tag(msg);
  if (!type) {
    throw std::invalid_argument("WireCodec: no wire mapping for message type " +
                                msg.type_name());
  }
  w.u8(static_cast<std::uint8_t>(*type));
  std::size_t len_at = w.size();
  w.u32(0);  // backfilled
  std::size_t body_at = w.size();
  put_body(w, msg, depth + 1);
  w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - body_at));
}

MsgPtr get_message(Reader& r, int depth) {
  if (depth + 1 > kMaxNestingDepth) {
    throw CodecError("wire: message nesting too deep");
  }
  std::uint8_t tag = r.u8();
  std::uint32_t len = r.u32();
  Reader body = r.slice(len);
  MsgPtr msg = get_body(body, static_cast<WireType>(tag), depth + 1);
  if (!body.done()) throw CodecError("wire: trailing bytes in nested message");
  return msg;
}

}  // namespace

std::vector<std::uint8_t> WireCodec::encode_frame(ProcessId from, ProcessId to,
                                                  const Message& msg) {
  EncodeArena arena;
  Segment seg = encode_frame_arena(arena, from, to, msg);
  return {seg.data(), seg.data() + seg.size()};
}

Segment WireCodec::encode_frame_arena(EncodeArena& arena, ProcessId from,
                                      ProcessId to, const Message& msg) {
  std::optional<WireType> type = type_tag(msg);
  if (!type) {
    throw std::invalid_argument("WireCodec: no wire mapping for message type " +
                                msg.type_name());
  }
  // First attempt encodes into whatever the current chunk has left
  // (plenty for any protocol frame); an overflow escalates the
  // reservation geometrically until the frame fits. The retry re-runs
  // the whole encode — overflows are rare enough that simplicity wins
  // over resumable state.
  std::size_t want = 0;
  for (;;) {
    std::uint8_t* base = arena.reserve(want);
    SpanWriter w(base, arena.writable());
    try {
      w.u32(0);  // body length, backfilled
      w.u8(kWireVersion);
      w.u8(static_cast<std::uint8_t>(*type));
      w.u32(from);
      w.u32(to);
      put_body(w, msg, /*depth=*/0);
      w.patch_u32(0, static_cast<std::uint32_t>(w.size() - 4));
      return arena.commit(w.size());
    } catch (const ArenaFull&) {
      want = want == 0 ? kArenaChunkBytes : want * 2;
    }
  }
}

std::optional<DecodedFrame> WireCodec::decode_frame(const std::uint8_t* body,
                                                    std::size_t len) {
  try {
    Reader r(body, len);
    std::uint8_t version = r.u8();
    if (version != kWireVersion) return std::nullopt;
    std::uint8_t tag = r.u8();
    DecodedFrame frame;
    frame.from = r.u32();
    frame.to = r.u32();
    frame.msg = get_body(r, static_cast<WireType>(tag), /*depth=*/0);
    if (!r.done()) return std::nullopt;  // trailing garbage
    return frame;
  } catch (const std::exception&) {
    // CodecError, plus anything the reconstructed domain types throw on
    // invalid states (denormal Rational, duplicate change id, ...).
    return std::nullopt;
  }
}

bool WireCodec::encodable(const Message& msg) {
  return type_tag(msg).has_value();
}

std::optional<WireType> WireCodec::wire_type_of(const Message& msg) {
  return type_tag(msg);
}

}  // namespace wrs::net
