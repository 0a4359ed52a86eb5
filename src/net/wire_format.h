// The wire format of the socket runtime.
//
// Frame layout (all integers little-endian, no padding):
//
//   offset  size  field
//   ------  ----  --------------------------------------------------------
//   0       4     u32  body length (bytes following this field)
//   4       1     u8   wire version            (kWireVersion)
//   5       1     u8   wire type tag           (WireType below)
//   6       4     u32  sender process id       (from)
//   10      4     u32  receiver process id     (to)
//   14      ...   type-specific payload
//
// The 4+1+1+4+4 = 14-byte prelude precedes every frame. It is
// length-prefixed so a stream socket can be cut into frames with one u32
// read, versioned so incompatible peers reject each other's traffic
// instead of misparsing it, and self-addressed so one connection can
// carry traffic for ANY (from, to) pair — a wrs-node process hosts a
// whole replica group behind a single listening socket, and clients are
// routed back over whichever connection they dialed in on. Every runtime
// charges a message's encoded frame size (WireCodec::frame_size), so the
// in-process runtimes count the bytes this format would put on the wire.
//
// Type tags: the in-process runtime dispatches on CRTP type ids
// (Message::type_id()), but those are allocated lazily in first-use
// order and therefore differ between OS processes. WireType pins ONE
// stable on-the-wire tag per message type, so the lazy in-process tags
// never leak onto the wire. Every payload layout lives in one list,
// `kLayouts` in net/wire_codec.cpp: one entry per wire type holds its
// tag, its fields in wire order, and a decoder whose parameter types
// name each field's encoding and whose body rebuilds the message. The
// codec serializes through a table indexed by Message::type_id() and
// deserializes through one indexed by the wire tag, both built from
// that list; an entry whose field list disagrees with its decoder's
// parameters fails to compile.
//
// Adding a wire type:
//   1. append a WireType value below (never renumber one);
//   2. pin it with a static_assert next to the others;
//   3. add its entry to kLayouts in net/wire_codec.cpp;
//   4. add its golden frame to CodecFuzz.GoldenFramesArePinned (and a
//      generator to the round-trip corpus in tests/test_codec_fuzz.cpp).
//
// Nested messages (the frames of a BatchRequest/BatchReply envelope, the
// payload of a reliable-broadcast RbMsg) are encoded recursively as
//
//   u8 wire type tag | u32 body length | body
//
// with a hard nesting-depth cap (kMaxNestingDepth) so adversarial input
// cannot recurse the decoder.
//
// Primitive encodings:
//   u8/u32/u64      little-endian fixed width
//   i64             two's complement in a u64
//   f64             IEEE-754 bit pattern in a u64 (RTT gossip)
//   string/bytes    u32 length + raw bytes
//   Weight          i64 numerator + i64 denominator (always normalized)
//   Tag             i64 ts + u32 pid
//   TaggedValue     Tag + string value
//   Change          u32 issuer + u64 counter + u32 target + Weight
//   ChangeSet       u32 count + Change... (ascending ChangeId order)
//   optional<u64>   u8 present + u64 (present only)
//   ChangeSetPtr    u8 present + ChangeSet (present only)
//
// Every container is encoded in a deterministic order (ChangeSet and
// RTT maps iterate their ordered std::map, vectors keep their order), so
// serialize(deserialize(serialize(m))) is byte-identical — pinned by the
// codec fuzz test.
//
// Malformed input (truncated frame, unknown tag, bad version, length
// fields pointing past the buffer, denormal weights, duplicate change
// ids, over-deep nesting) makes decode_frame() return nullopt; it never
// throws out of the codec and never crashes. Decoded messages own every
// byte of their state — nothing aliases the receive buffer (pinned by
// the ASan lifetime test in tests/test_codec_fuzz.cpp).
#pragma once

#include <cstdint>
#include <cstddef>

namespace wrs::net {

/// Bumped on any incompatible change to the frame or payload encodings.
inline constexpr std::uint8_t kWireVersion = 1;

/// Bytes before the payload, counting the u32 length prefix.
inline constexpr std::size_t kFramePreludeBytes = 14;

/// Upper bound on one frame's body length; longer frames are malformed
/// (protects the reassembly buffer from absurd length prefixes).
inline constexpr std::size_t kMaxFrameBodyBytes = 64u << 20;

/// Maximum recursion depth of nested message encodings (a batch envelope
/// of RbMsg-wrapped payloads is depth 2; anything deeper is suspect).
inline constexpr int kMaxNestingDepth = 8;

/// Stable on-the-wire message type tags. Append-only: renumbering any
/// entry is a wire-protocol break (bump kWireVersion instead).
enum class WireType : std::uint8_t {
  // ABD register protocol (storage/abd_messages.h).
  kReadReq = 1,
  kReadAck = 2,
  kWriteReq = 3,
  kWriteAck = 4,
  kKeysReq = 5,
  kKeysAck = 6,
  kBatchRequest = 7,
  kBatchReply = 8,
  // Pairwise weight reassignment (core/reassign_messages.h).
  kRcReq = 9,
  kRcAck = 10,
  kWcReq = 11,
  kWcAck = 12,
  kTransfer = 13,
  kTAck = 14,
  kSync = 15,
  // Reliable broadcast wrapper (broadcast/reliable_broadcast.h).
  kRb = 16,
  // Adaptive-weights gossip (monitor/adaptive_node.h).
  kPing = 17,
  kPong = 18,
  kRttReport = 19,
  // Elastic resharding (storage/migration_messages.h). Freeze and commit
  // are acked by the plain ReadAck/WriteAck above — the migration fence
  // reuses the ABD quorum machinery, so only the three requests below
  // are new wire entries.
  kMigFreeze = 20,
  kMigCommit = 21,
  kWrongShard = 22,
  // Cross-shard atomic snapshots (storage/snapshot_messages.h). The
  // double-collect fast path and the fenced fallback share one ack type
  // (SnapAck carries per-key entries + flags + the `held` bit), so four
  // new wire entries cover collect, freeze, release, and their replies.
  kSnapReq = 23,
  kSnapAck = 24,
  kSnapFreeze = 25,
  kSnapRelease = 26,
};

// Compile-time pin of every tag value shipped so far. A new message type
// appended without its own static_assert, or any renumbering of an
// existing entry, fails the build here before it can silently change the
// wire format (the runtime twin is CodecFuzz.WireTypeTagsAreStable).
static_assert(static_cast<std::uint8_t>(WireType::kReadReq) == 1);
static_assert(static_cast<std::uint8_t>(WireType::kReadAck) == 2);
static_assert(static_cast<std::uint8_t>(WireType::kWriteReq) == 3);
static_assert(static_cast<std::uint8_t>(WireType::kWriteAck) == 4);
static_assert(static_cast<std::uint8_t>(WireType::kKeysReq) == 5);
static_assert(static_cast<std::uint8_t>(WireType::kKeysAck) == 6);
static_assert(static_cast<std::uint8_t>(WireType::kBatchRequest) == 7);
static_assert(static_cast<std::uint8_t>(WireType::kBatchReply) == 8);
static_assert(static_cast<std::uint8_t>(WireType::kRcReq) == 9);
static_assert(static_cast<std::uint8_t>(WireType::kRcAck) == 10);
static_assert(static_cast<std::uint8_t>(WireType::kWcReq) == 11);
static_assert(static_cast<std::uint8_t>(WireType::kWcAck) == 12);
static_assert(static_cast<std::uint8_t>(WireType::kTransfer) == 13);
static_assert(static_cast<std::uint8_t>(WireType::kTAck) == 14);
static_assert(static_cast<std::uint8_t>(WireType::kSync) == 15);
static_assert(static_cast<std::uint8_t>(WireType::kRb) == 16);
static_assert(static_cast<std::uint8_t>(WireType::kPing) == 17);
static_assert(static_cast<std::uint8_t>(WireType::kPong) == 18);
static_assert(static_cast<std::uint8_t>(WireType::kRttReport) == 19);
static_assert(static_cast<std::uint8_t>(WireType::kMigFreeze) == 20);
static_assert(static_cast<std::uint8_t>(WireType::kMigCommit) == 21);
static_assert(static_cast<std::uint8_t>(WireType::kWrongShard) == 22);
static_assert(static_cast<std::uint8_t>(WireType::kSnapReq) == 23);
static_assert(static_cast<std::uint8_t>(WireType::kSnapAck) == 24);
static_assert(static_cast<std::uint8_t>(WireType::kSnapFreeze) == 25);
static_assert(static_cast<std::uint8_t>(WireType::kSnapRelease) == 26);

}  // namespace wrs::net
