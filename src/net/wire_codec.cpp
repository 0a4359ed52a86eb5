#include "net/wire_codec.h"

#include <bit>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

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

// --- counting writer -------------------------------------------------------

/// SpanWriter's interface over no memory: it only adds up the bytes the
/// same put_* calls would write. frame_size() runs it, so the size every
/// runtime charges is the size of the frame the encoder produces.
class CountingWriter {
 public:
  std::size_t size() const { return n_; }
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i64(std::int64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void str(const std::string& s) { n_ += 4 + s.size(); }
  void patch_u32(std::size_t, std::uint32_t) {}
  /// Counts `n` bytes of fixed-width items without visiting them.
  void skip(std::size_t n) { n_ += n; }

 private:
  std::size_t n_ = 0;
};

// --- shared composite encodings --------------------------------------------

template <typename W>
void put_weight(W& w, const Weight& v) {
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

template <typename W>
void put_change(W& w, const ChangeId& id, const Weight& delta) {
  w.u32(id.issuer);
  w.u64(id.counter);
  w.u32(id.target);
  put_weight(w, delta);
}

constexpr std::size_t kChangeBytes = 4 + 8 + 4 + 16;

Change get_change(Reader& r) {
  ProcessId issuer = r.u32();
  std::uint64_t counter = r.u64();
  ProcessId target = r.u32();
  Weight delta = get_weight(r);
  return Change(issuer, counter, target, std::move(delta));
}

template <typename W>
void put_change_set(W& w, const ChangeSet& cs) {
  w.u32(static_cast<std::uint32_t>(cs.size()));
  if constexpr (std::is_same_v<W, CountingWriter>) {
    // Every change is fixed-width: counting needs no walk of the set,
    // which piggybacks on every storage reply and grows with transfers.
    w.skip(cs.size() * kChangeBytes);
  } else {
    // for_each walks the underlying ordered map in place — deterministic
    // order (so round trips are byte-identical) and no copy of the set.
    cs.for_each([&w](const ChangeId& id, const Weight& delta) {
      put_change(w, id, delta);
    });
  }
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

template <typename W>
void put_changes_ptr(W& w, const ChangeSetPtr& cs) {
  w.u8(cs ? 1 : 0);
  if (cs) put_change_set(w, *cs);
}

ChangeSetPtr get_changes_ptr(Reader& r) {
  std::uint8_t present = r.u8();
  if (present > 1) throw CodecError("wire: bad optional marker");
  if (!present) return nullptr;
  return make_pooled<const ChangeSet>(get_change_set(r));
}

template <typename W>
void put_tagged_value(W& w, const TaggedValue& tv) {
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

template <typename W>
void put_snap_entries(W& w, const std::vector<SnapEntry>& entries) {
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

template <typename W>
void put_key_list(W& w, const std::vector<RegisterKey>& keys) {
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

[[noreturn]] void throw_unmapped(const Message& msg) {
  throw std::invalid_argument("WireCodec: no wire mapping for message type " +
                              msg.type_name());
}

template <typename W>
void put_message(W& w, const Message& msg, int depth);
MsgPtr get_message(Reader& r, int depth);

template <typename W>
void put_frames(W& w, const std::vector<MsgPtr>& frames, int depth) {
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
template <typename W>
void put_body(W& w, const Message& msg, int depth) {
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
    put_key_list(w, m->keys());
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
    put_change(w, m->neg().id, m->neg().delta);
    put_change(w, m->pos().id, m->pos().delta);
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
    throw_unmapped(msg);
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
      std::vector<RegisterKey> keys = get_key_list(r);
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

template <typename T>
std::pair<Message::TypeId, WireType> wire_entry(WireType type) {
  return {message_type_id<T>(), type};
}

/// The wire tag of `msg`'s type: one lookup in a Message::TypeId-indexed
/// table built on first use. Building it allocates the TypeIds of every
/// wire-mapped type, so an id past its end has no mapping.
std::optional<WireType> type_tag(const Message& msg) {
  static const std::vector<std::uint8_t> by_id = [] {
    std::vector<std::uint8_t> table;  // 0: no mapping (tags start at 1)
    for (auto [id, type] : {
             wire_entry<ReadReq>(WireType::kReadReq),
             wire_entry<ReadAck>(WireType::kReadAck),
             wire_entry<WriteReq>(WireType::kWriteReq),
             wire_entry<WriteAck>(WireType::kWriteAck),
             wire_entry<KeysReq>(WireType::kKeysReq),
             wire_entry<KeysAck>(WireType::kKeysAck),
             wire_entry<BatchRequest>(WireType::kBatchRequest),
             wire_entry<BatchReply>(WireType::kBatchReply),
             wire_entry<RcReq>(WireType::kRcReq),
             wire_entry<RcAck>(WireType::kRcAck),
             wire_entry<WcReq>(WireType::kWcReq),
             wire_entry<WcAck>(WireType::kWcAck),
             wire_entry<TransferMsg>(WireType::kTransfer),
             wire_entry<TAck>(WireType::kTAck),
             wire_entry<SyncMsg>(WireType::kSync),
             wire_entry<RbMsg>(WireType::kRb),
             wire_entry<PingMsg>(WireType::kPing),
             wire_entry<PongMsg>(WireType::kPong),
             wire_entry<RttReportMsg>(WireType::kRttReport),
             wire_entry<MigFreeze>(WireType::kMigFreeze),
             wire_entry<MigCommit>(WireType::kMigCommit),
             wire_entry<WrongShardAck>(WireType::kWrongShard),
             wire_entry<SnapReq>(WireType::kSnapReq),
             wire_entry<SnapAck>(WireType::kSnapAck),
             wire_entry<SnapFreeze>(WireType::kSnapFreeze),
             wire_entry<SnapRelease>(WireType::kSnapRelease)}) {
      if (id >= table.size()) table.resize(id + 1, 0);
      table[id] = static_cast<std::uint8_t>(type);
    }
    return table;
  }();
  const Message::TypeId id = msg.type_id();
  if (id >= by_id.size() || by_id[id] == 0) return std::nullopt;
  return static_cast<WireType>(by_id[id]);
}

/// Nested encoding: u8 tag + u32 body length + body. Counting an
/// unmapped nested payload (a baseline's message inside an RbMsg)
/// charges the 5-byte nested prelude and an empty body, the nested twin
/// of frame_size()'s rule for unmapped frames; encoding one throws.
template <typename W>
void put_message(W& w, const Message& msg, int depth) {
  if (depth + 1 > kMaxNestingDepth) {
    throw std::invalid_argument("WireCodec: message nesting too deep");
  }
  std::optional<WireType> type = type_tag(msg);
  if constexpr (!std::is_same_v<W, CountingWriter>) {
    if (!type) throw_unmapped(msg);
  }
  w.u8(type ? static_cast<std::uint8_t>(*type) : 0);
  std::size_t len_at = w.size();
  w.u32(0);  // backfilled
  std::size_t body_at = w.size();
  if (type) put_body(w, msg, depth + 1);
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

std::size_t WireCodec::frame_size(const Message& msg) {
  std::optional<WireType> type = type_tag(msg);
  if (!type) return kFramePreludeBytes;
  CountingWriter w;
  put_body(w, msg, /*depth=*/0);
  return kFramePreludeBytes + w.size();
}

Segment WireCodec::encode_frame_arena(EncodeArena& arena, ProcessId from,
                                      ProcessId to, const Message& msg) {
  std::optional<WireType> type = type_tag(msg);
  if (!type) throw_unmapped(msg);
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
