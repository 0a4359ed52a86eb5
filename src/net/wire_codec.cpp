#include "net/wire_codec.h"

#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
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

// --- field codecs ----------------------------------------------------------

template <typename W>
void put_message(W& w, const Message& msg, int depth);
MsgPtr get_message(Reader& r, int depth);

/// Field<T> writes and reads one message field of C++ type T. A layout's
/// decoder parameters name the type, and so the codec, of each field;
/// `depth` is the nesting level already consumed (only nested messages
/// use it). A type without a specialization has no wire encoding.
template <typename T>
struct Field;

template <>
struct Field<std::uint32_t> {
  static void put(auto& w, std::uint32_t v, int) { w.u32(v); }
  static std::uint32_t get(Reader& r, int) { return r.u32(); }
};

template <>
struct Field<std::uint64_t> {
  static void put(auto& w, std::uint64_t v, int) { w.u64(v); }
  static std::uint64_t get(Reader& r, int) { return r.u64(); }
};

template <>
struct Field<std::int64_t> {
  static void put(auto& w, std::int64_t v, int) { w.i64(v); }
  static std::int64_t get(Reader& r, int) { return r.i64(); }
};

/// u8 0 or 1; also the presence marker of optional fields.
template <>
struct Field<bool> {
  static void put(auto& w, bool v, int) { w.u8(v ? 1 : 0); }
  static bool get(Reader& r, int) {
    std::uint8_t v = r.u8();
    if (v > 1) throw CodecError("wire: bad marker byte");
    return v == 1;
  }
};

template <>
struct Field<std::string> {
  static constexpr std::size_t kMinBytes = 4;
  static void put(auto& w, const std::string& v, int) { w.str(v); }
  static std::string get(Reader& r, int) { return r.str(); }
};

template <>
struct Field<Weight> {
  static void put(auto& w, const Weight& v, int) {
    w.i64(v.num());
    w.i64(v.den());
  }
  static Weight get(Reader& r, int) {
    std::int64_t num = r.i64();
    std::int64_t den = r.i64();
    // Rational(num, den) throws on den == 0; a NON-normalized pair
    // decodes fine but would re-encode differently, so reject it
    // explicitly — valid encoders only ever emit normalized weights.
    Weight v(num, den);
    if (v.num() != num || v.den() != den) {
      throw CodecError("wire: denormalized weight");
    }
    return v;
  }
};

template <>
struct Field<Change> {
  static constexpr std::size_t kBytes = 4 + 8 + 4 + 16;
  static void put(auto& w, const Change& c, int) {
    put_id_delta(w, c.id, c.delta);
  }
  static void put_id_delta(auto& w, const ChangeId& id, const Weight& delta) {
    w.u32(id.issuer);
    w.u64(id.counter);
    w.u32(id.target);
    Field<Weight>::put(w, delta, 0);
  }
  static Change get(Reader& r, int) {
    ProcessId issuer = r.u32();
    std::uint64_t counter = r.u64();
    ProcessId target = r.u32();
    Weight delta = Field<Weight>::get(r, 0);
    return Change(issuer, counter, target, std::move(delta));
  }
};

template <>
struct Field<ChangeSet> {
  template <typename W>
  static void put(W& w, const ChangeSet& cs, int) {
    w.u32(static_cast<std::uint32_t>(cs.size()));
    if constexpr (std::is_same_v<W, CountingWriter>) {
      // Every change is fixed-width: counting needs no walk of the set,
      // which piggybacks on every storage reply and grows with transfers.
      w.skip(cs.size() * Field<Change>::kBytes);
    } else {
      // for_each walks the underlying ordered map in place — deterministic
      // order (so round trips are byte-identical) and no copy of the set.
      cs.for_each([&w](const ChangeId& id, const Weight& delta) {
        Field<Change>::put_id_delta(w, id, delta);
      });
    }
  }
  static ChangeSet get(Reader& r, int) {
    std::uint32_t n = r.u32();
    r.check_count(n, Field<Change>::kBytes);
    ChangeSet cs;
    for (std::uint32_t i = 0; i < n; ++i) {
      // add() throws on a duplicate id with a different delta — malformed.
      cs.add(Field<Change>::get(r, 0));
    }
    return cs;
  }
};

/// Present marker + the change set (present only).
template <>
struct Field<ChangeSetPtr> {
  static void put(auto& w, const ChangeSetPtr& cs, int) {
    Field<bool>::put(w, cs != nullptr, 0);
    if (cs) Field<ChangeSet>::put(w, *cs, 0);
  }
  static ChangeSetPtr get(Reader& r, int) {
    if (!Field<bool>::get(r, 0)) return nullptr;
    return make_pooled<const ChangeSet>(Field<ChangeSet>::get(r, 0));
  }
};

/// Present marker + the value (present only).
template <typename T>
struct Field<std::optional<T>> {
  static void put(auto& w, const std::optional<T>& v, int depth) {
    Field<bool>::put(w, v.has_value(), 0);
    if (v) Field<T>::put(w, *v, depth);
  }
  static std::optional<T> get(Reader& r, int depth) {
    if (!Field<bool>::get(r, 0)) return std::nullopt;
    return Field<T>::get(r, depth);
  }
};

template <>
struct Field<TaggedValue> {
  static void put(auto& w, const TaggedValue& tv, int) {
    w.i64(tv.tag.ts);
    w.u32(tv.tag.pid);
    w.str(tv.value);
  }
  static TaggedValue get(Reader& r, int) {
    TaggedValue tv;
    tv.tag.ts = r.i64();
    tv.tag.pid = r.u32();
    tv.value = r.str();
    return tv;
  }
};

template <>
struct Field<SnapEntry> {
  // Empty key (4) + tag (12) + empty value (4) + flag/owner/epoch (13).
  static constexpr std::size_t kMinBytes = 33;
  static void put(auto& w, const SnapEntry& e, int) {
    w.str(e.key);
    Field<TaggedValue>::put(w, e.reg, 0);
    w.u8(e.flag);
    w.u32(e.owner);
    w.u64(e.epoch);
  }
  static SnapEntry get(Reader& r, int) {
    SnapEntry e;
    e.key = r.str();
    e.reg = Field<TaggedValue>::get(r, 0);
    e.flag = r.u8();
    if (e.flag > SnapEntry::kMoved) throw CodecError("wire: bad snap flag");
    e.owner = r.u32();
    e.epoch = r.u64();
    return e;
  }
};

/// A nested message: u8 tag + u32 body length + body (see put_message).
template <>
struct Field<MsgPtr> {
  static constexpr std::size_t kMinBytes = 5;
  static void put(auto& w, const MsgPtr& m, int depth) {
    put_message(w, *m, depth);
  }
  static MsgPtr get(Reader& r, int depth) { return get_message(r, depth); }
};

/// u32 count + the elements in order.
template <typename T>
struct Field<std::vector<T>> {
  static void put(auto& w, const std::vector<T>& v, int depth) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) Field<T>::put(w, e, depth);
  }
  static std::vector<T> get(Reader& r, int depth) {
    std::uint32_t n = r.u32();
    // Rejects absurd counts before reserving anything.
    r.check_count(n, Field<T>::kMinBytes);
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(Field<T>::get(r, depth));
    return v;
  }
};

/// RTT gossip: u32 count + (u32 pid, f64 rtt) in ascending pid order.
template <>
struct Field<std::map<ProcessId, double>> {
  static void put(auto& w, const std::map<ProcessId, double>& rtts, int) {
    w.u32(static_cast<std::uint32_t>(rtts.size()));
    for (const auto& [pid, rtt] : rtts) {
      w.u32(pid);
      w.f64(rtt);
    }
  }
  static std::map<ProcessId, double> get(Reader& r, int) {
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
    return rtts;
  }
};

// --- layouts ----------------------------------------------------------------

/// An encoder's field list, in wire order: values the accessors return by
/// value are held by value, the rest by reference into the message.
template <typename... A>
std::tuple<A...> fields(A&&... a) {
  return std::tuple<A...>(std::forward<A>(a)...);
}

// Type-level only: a lambda's parameter types, and a field list's types,
// without references or const.
template <typename F, typename R, typename... A>
std::tuple<std::remove_cvref_t<A>...> params(R (F::*)(A...) const);
template <typename... A>
std::tuple<std::remove_cvref_t<A>...> decayed(std::tuple<A...>);

/// One wire type's layout: its tag, an encoder that lists the message's
/// fields in wire order, and a decoder whose parameters are those fields
/// (their types pick each field's codec) and whose body rebuilds the
/// message. The two halves are checked against each other at compile
/// time, so a field the encoder adds, drops or retypes fails the build.
template <typename Encode, typename Decode>
struct Layout {
  using Msg = std::tuple_element_t<0, decltype(params(&Encode::operator()))>;
  using Fields = decltype(params(&Decode::operator()));
  static_assert(std::is_same_v<decltype(decayed(Encode{}(std::declval<Msg>()))),
                               Fields>,
                "a layout's encoder must list its decoder's parameter types");
  static_assert(std::is_same_v<decltype(std::apply(std::declval<Decode>(),
                                                   std::declval<Fields>())),
                               std::shared_ptr<Msg>>,
                "a layout's decoder must build the type its encoder reads");

  WireType type;
  Encode encode;  // captureless: put() and get() default-construct
  Decode decode;  // these two, so a layout needs no instance

  template <typename W>
  static void put(W& w, const Message& msg, int depth) {
    std::apply(
        [&w, depth](const auto&... f) {
          (Field<std::remove_cvref_t<decltype(f)>>::put(w, f, depth), ...);
        },
        Encode{}(static_cast<const Msg&>(msg)));
  }

  // Flattened: each decoder inlines its field reads and the message's
  // construction. Without it gcc -O2 keeps them as calls, and string
  // moves among them, which costs 5-10% per decoded frame.
  [[gnu::flatten]] static MsgPtr get(Reader& r, int depth) {
    return Build<Fields>::get(r, depth);
  }

 private:
  // Takes the fields as its constructor's arguments: a braced initializer
  // evaluates them left to right, in wire order.
  template <typename Tuple>
  struct Build;
  template <typename... F>
  struct Build<std::tuple<F...>> {
    MsgPtr msg;
    explicit Build(F... f) : msg(Decode{}(std::move(f)...)) {}
    static MsgPtr get(Reader& r, int depth) {
      return Build{Field<F>::get(r, depth)...}.msg;
    }
  };
};

template <typename Encode, typename Decode>
Layout(WireType, Encode, Decode) -> Layout<Encode, Decode>;

// Every wire type, in tag order. Adding one: a WireType value and its
// static_assert pin (net/wire_format.h), an entry here, and a golden
// frame in CodecFuzz.GoldenFramesArePinned.
constexpr std::tuple kLayouts{
    // ABD register protocol (storage/abd_messages.h).
    Layout{WireType::kReadReq,
           [](const ReadReq& m) {
             return fields(m.op_id(), m.seq(), m.shard(), m.key());
           },
           [](OpId op, std::uint32_t seq, ShardId shard, RegisterKey key) {
             return make_msg<ReadReq>(op, std::move(key), seq, shard);
           }},
    Layout{WireType::kReadAck,
           [](const ReadAck& m) {
             return fields(m.op_id(), m.seq(), m.reg(), m.changes());
           },
           [](OpId op, std::uint32_t seq, TaggedValue reg, ChangeSetPtr cs) {
             return make_msg<ReadAck>(op, std::move(reg), std::move(cs), seq);
           }},
    Layout{WireType::kWriteReq,
           [](const WriteReq& m) {
             return fields(m.op_id(), m.seq(), m.shard(), m.reg(), m.key());
           },
           [](OpId op, std::uint32_t seq, ShardId shard, TaggedValue reg,
              RegisterKey key) {
             return make_msg<WriteReq>(op, std::move(reg), std::move(key), seq,
                                       shard);
           }},
    Layout{WireType::kWriteAck,
           [](const WriteAck& m) {
             return fields(m.op_id(), m.seq(), m.changes());
           },
           [](OpId op, std::uint32_t seq, ChangeSetPtr cs) {
             return make_msg<WriteAck>(op, std::move(cs), seq);
           }},
    Layout{WireType::kKeysReq,
           [](const KeysReq& m) {
             return fields(m.op_id(), m.seq(), m.shard());
           },
           [](OpId op, std::uint32_t seq, ShardId shard) {
             return make_msg<KeysReq>(op, seq, shard);
           }},
    Layout{WireType::kKeysAck,
           [](const KeysAck& m) {
             return fields(m.op_id(), m.seq(), m.keys(), m.changes());
           },
           [](OpId op, std::uint32_t seq, std::vector<RegisterKey> keys,
              ChangeSetPtr cs) {
             return make_msg<KeysAck>(op, std::move(keys), std::move(cs), seq);
           }},
    Layout{WireType::kBatchRequest,
           [](const BatchRequest& m) { return fields(m.shard(), m.frames()); },
           [](ShardId shard, std::vector<MsgPtr> frames) {
             return make_msg<BatchRequest>(shard, std::move(frames));
           }},
    Layout{WireType::kBatchReply,
           [](const BatchReply& m) { return fields(m.frames()); },
           [](std::vector<MsgPtr> frames) {
             return make_msg<BatchReply>(std::move(frames));
           }},
    // Pairwise weight reassignment (core/reassign_messages.h).
    Layout{WireType::kRcReq,
           [](const RcReq& m) {
             return fields(m.op_id(), m.target(), m.shard());
           },
           [](std::uint64_t op, ProcessId target, ShardId shard) {
             return make_msg<RcReq>(op, target, shard);
           }},
    Layout{WireType::kRcAck,
           [](const RcAck& m) { return fields(m.op_id(), m.changes()); },
           [](std::uint64_t op, ChangeSet cs) {
             return make_msg<RcAck>(op, std::move(cs));
           }},
    Layout{WireType::kWcReq,
           [](const WcReq& m) {
             return fields(m.op_id(), m.shard(), m.changes());
           },
           [](std::uint64_t op, ShardId shard, ChangeSet cs) {
             return make_msg<WcReq>(op, std::move(cs), shard);
           }},
    Layout{WireType::kWcAck,
           [](const WcAck& m) { return fields(m.op_id()); },
           [](std::uint64_t op) { return make_msg<WcAck>(op); }},
    Layout{WireType::kTransfer,
           [](const TransferMsg& m) {
             return fields(m.neg(), m.pos(), m.shard());
           },
           [](Change neg, Change pos, ShardId shard) {
             return make_msg<TransferMsg>(std::move(neg), std::move(pos),
                                          shard);
           }},
    Layout{WireType::kTAck,
           [](const TAck& m) { return fields(m.counter(), m.shard()); },
           [](std::uint64_t counter, ShardId shard) {
             return make_msg<TAck>(counter, shard);
           }},
    Layout{WireType::kSync,
           [](const SyncMsg& m) {
             return fields(m.pending_counter(), m.shard(), m.changes());
           },
           [](std::optional<std::uint64_t> pending, ShardId shard,
              ChangeSet cs) {
             return make_msg<SyncMsg>(std::move(cs), pending, shard);
           }},
    // Reliable broadcast wrapper (broadcast/reliable_broadcast.h).
    Layout{WireType::kRb,
           [](const RbMsg& m) {
             return fields(m.origin(), m.seq(), m.payload());
           },
           [](ProcessId origin, std::uint64_t seq, MsgPtr payload) {
             return make_msg<RbMsg>(origin, seq, std::move(payload));
           }},
    // Adaptive-weights gossip (monitor/adaptive_node.h).
    Layout{WireType::kPing,
           [](const PingMsg& m) { return fields(m.sent_at()); },
           [](TimeNs sent_at) { return make_msg<PingMsg>(sent_at); }},
    Layout{WireType::kPong,
           [](const PongMsg& m) { return fields(m.sent_at()); },
           [](TimeNs sent_at) { return make_msg<PongMsg>(sent_at); }},
    Layout{WireType::kRttReport,
           [](const RttReportMsg& m) { return fields(m.rtts()); },
           [](std::map<ProcessId, double> rtts) {
             return make_msg<RttReportMsg>(std::move(rtts));
           }},
    // Elastic resharding (storage/migration_messages.h).
    Layout{WireType::kMigFreeze,
           [](const MigFreeze& m) {
             return fields(m.op_id(), m.seq(), m.shard(), m.epoch(), m.dest(),
                           m.key());
           },
           [](OpId op, std::uint32_t seq, ShardId shard, std::uint64_t epoch,
              ShardId dest, RegisterKey key) {
             return make_msg<MigFreeze>(op, std::move(key), epoch, dest, seq,
                                        shard);
           }},
    Layout{WireType::kMigCommit,
           [](const MigCommit& m) {
             return fields(m.op_id(), m.seq(), m.shard(), m.epoch(),
                           m.owner(), m.key(), m.install());
           },
           [](OpId op, std::uint32_t seq, ShardId shard, std::uint64_t epoch,
              ShardId owner, RegisterKey key,
              std::optional<TaggedValue> install) {
             return make_msg<MigCommit>(op, std::move(key), owner, epoch,
                                        std::move(install), seq, shard);
           }},
    Layout{WireType::kWrongShard,
           [](const WrongShardAck& m) {
             return fields(m.op_id(), m.seq(), m.epoch(), m.owner(), m.key());
           },
           [](OpId op, std::uint32_t seq, std::uint64_t epoch, ShardId owner,
              RegisterKey key) {
             return make_msg<WrongShardAck>(op, std::move(key), owner, epoch,
                                            seq);
           }},
    // Cross-shard atomic snapshots (storage/snapshot_messages.h).
    Layout{WireType::kSnapReq,
           [](const SnapReq& m) {
             return fields(m.op_id(), m.seq(), m.shard(), m.keys());
           },
           [](OpId op, std::uint32_t seq, ShardId shard,
              std::vector<RegisterKey> keys) {
             return make_msg<SnapReq>(op, std::move(keys), seq, shard);
           }},
    Layout{WireType::kSnapAck,
           [](const SnapAck& m) {
             return fields(m.op_id(), m.seq(), m.held(), m.entries(),
                           m.changes());
           },
           [](OpId op, std::uint32_t seq, bool held,
              std::vector<SnapEntry> entries, ChangeSetPtr cs) {
             return make_msg<SnapAck>(op, std::move(entries), std::move(cs),
                                      seq, held);
           }},
    Layout{WireType::kSnapFreeze,
           [](const SnapFreeze& m) {
             return fields(m.op_id(), m.seq(), m.shard(), m.snap_id(),
                           m.keys());
           },
           [](OpId op, std::uint32_t seq, ShardId shard, SnapId snap,
              std::vector<RegisterKey> keys) {
             return make_msg<SnapFreeze>(op, snap, std::move(keys), seq, shard);
           }},
    Layout{WireType::kSnapRelease,
           [](const SnapRelease& m) {
             return fields(m.op_id(), m.seq(), m.shard(), m.snap_id(),
                           m.installs());
           },
           [](OpId op, std::uint32_t seq, ShardId shard, SnapId snap,
              std::vector<SnapEntry> installs) {
             return make_msg<SnapRelease>(op, snap, std::move(installs), seq,
                                          shard);
           }},
};

// --- dispatch ---------------------------------------------------------------

[[noreturn]] void throw_unmapped(const Message& msg) {
  throw std::invalid_argument("WireCodec: no wire mapping for message type " +
                              msg.type_name());
}

/// A mapped type's tag and its layout's encoder, instantiated for the
/// frame writer and for the counting writer.
struct Encoder {
  WireType type{};
  void (*put)(SpanWriter&, const Message&, int) = nullptr;
  void (*count)(CountingWriter&, const Message&, int) = nullptr;

  void write(SpanWriter& w, const Message& msg, int depth) const {
    put(w, msg, depth);
  }
  void write(CountingWriter& w, const Message& msg, int depth) const {
    count(w, msg, depth);
  }
};

template <typename L>
void add_encoder(std::vector<Encoder>& table, const L& layout) {
  const Message::TypeId id = message_type_id<typename L::Msg>();
  if (id >= table.size()) table.resize(id + 1);
  table[id] = {layout.type, &L::template put<SpanWriter>,
               &L::template put<CountingWriter>};
}

/// The encoder of `msg`'s type, or null if it has no layout: one lookup in
/// a Message::TypeId-indexed table built on first use. Building it
/// allocates the TypeId of every laid-out type, so an id past its end has
/// no layout.
const Encoder* encoder_of(const Message& msg) {
  static const std::vector<Encoder> by_id = std::apply(
      [](const auto&... layout) {
        std::vector<Encoder> table;
        (add_encoder(table, layout), ...);
        return table;
      },
      kLayouts);
  const Message::TypeId id = msg.type_id();
  if (id >= by_id.size() || by_id[id].put == nullptr) return nullptr;
  return &by_id[id];
}

/// The decoder of each wire tag (null: unknown tag), indexed by the u8 tag.
constexpr auto kDecoders = std::apply(
    [](const auto&... layout) {
      std::array<MsgPtr (*)(Reader&, int), 256> table{};
      ((table[static_cast<std::uint8_t>(layout.type)] =
            &std::remove_cvref_t<decltype(layout)>::get),
       ...);
      return table;
    },
    kLayouts);
static_assert(std::apply(
                  [](const auto&... layout) {
                    std::array<bool, 256> used{};
                    return (!std::exchange(
                                used[static_cast<std::uint8_t>(layout.type)],
                                true) &&
                            ...);
                  },
                  kLayouts),
              "two layouts share a WireType");

/// Reads one payload body with wire tag `tag`; the reader is scoped to
/// exactly the body bytes, and leftovers are malformed (checked by the
/// caller).
MsgPtr decode_payload(Reader& r, std::uint8_t tag, int depth) {
  if (kDecoders[tag] == nullptr) throw CodecError("wire: unknown type tag");
  return kDecoders[tag](r, depth);
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
  const Encoder* enc = encoder_of(msg);
  if constexpr (!std::is_same_v<W, CountingWriter>) {
    if (!enc) throw_unmapped(msg);
  }
  w.u8(enc ? static_cast<std::uint8_t>(enc->type) : 0);
  std::size_t len_at = w.size();
  w.u32(0);  // backfilled
  std::size_t body_at = w.size();
  if (enc) enc->write(w, msg, depth + 1);
  w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - body_at));
}

MsgPtr get_message(Reader& r, int depth) {
  if (depth + 1 > kMaxNestingDepth) {
    throw CodecError("wire: message nesting too deep");
  }
  std::uint8_t tag = r.u8();
  std::uint32_t len = r.u32();
  Reader body = r.slice(len);
  MsgPtr msg = decode_payload(body, tag, depth + 1);
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
  const Encoder* enc = encoder_of(msg);
  if (!enc) return kFramePreludeBytes;
  CountingWriter w;
  enc->write(w, msg, /*depth=*/0);
  return kFramePreludeBytes + w.size();
}

Segment WireCodec::encode_frame_arena(EncodeArena& arena, ProcessId from,
                                      ProcessId to, const Message& msg) {
  const Encoder* enc = encoder_of(msg);
  if (!enc) throw_unmapped(msg);
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
      w.u8(static_cast<std::uint8_t>(enc->type));
      w.u32(from);
      w.u32(to);
      enc->write(w, msg, /*depth=*/0);
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
    frame.msg = decode_payload(r, tag, /*depth=*/0);
    if (!r.done()) return std::nullopt;  // trailing garbage
    return frame;
  } catch (const std::exception&) {
    // CodecError, plus anything the reconstructed domain types throw on
    // invalid states (denormal Rational, duplicate change id, ...).
    return std::nullopt;
  }
}

bool WireCodec::encodable(const Message& msg) {
  return encoder_of(msg) != nullptr;
}

std::optional<WireType> WireCodec::wire_type_of(const Message& msg) {
  const Encoder* enc = encoder_of(msg);
  if (!enc) return std::nullopt;
  return enc->type;
}

}  // namespace wrs::net
