// Serializer/deserializer for every on-the-wire message type — see
// wire_format.h for the frame layout and encoding rules.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "net/encode_arena.h"
#include "net/wire_format.h"
#include "runtime/message.h"

namespace wrs::net {

/// One decoded frame: the routing pair plus a freshly built message that
/// owns all of its state (never aliases the receive buffer).
struct DecodedFrame {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  MsgPtr msg;
};

class WireCodec {
 public:
  /// Serializes a routed message into one complete frame (length prefix
  /// included), written straight into `arena` — the steady-state socket
  /// send path does zero heap allocations per frame. The returned Segment
  /// keeps its chunk alive; copies share the encode (duplicate sends).
  /// Throws std::invalid_argument for message types without a wire
  /// mapping (custom/test-only types — the socket runtime refuses them at
  /// send time).
  static Segment encode_frame_arena(EncodeArena& arena, ProcessId from,
                                    ProcessId to, const Message& msg);

  /// The size of the frame encode_frame_arena() would produce for `msg`
  /// (length prefix included), computed by running the same encoder
  /// through a writer that only counts: no memory is written and nothing
  /// is allocated. A type without a wire mapping is charged
  /// kFramePreludeBytes (an empty body), so every runtime can charge it.
  static std::size_t frame_size(const Message& msg);

  /// The same frame as an owned byte vector (a copy of one
  /// encode_frame_arena segment), for callers off the send path.
  static std::vector<std::uint8_t> encode_frame(ProcessId from, ProcessId to,
                                                const Message& msg);

  /// Parses one frame BODY (the bytes after the u32 length prefix; the
  /// transport strips the prefix during reassembly). Returns nullopt on
  /// any malformed input — truncation, trailing garbage, unknown tag,
  /// version mismatch, nested lengths pointing past the buffer — and
  /// never throws or crashes.
  static std::optional<DecodedFrame> decode_frame(const std::uint8_t* body,
                                                  std::size_t len);

  /// True iff `msg`'s concrete type has a wire mapping.
  static bool encodable(const Message& msg);

  /// The stable wire tag of `msg`'s concrete type (nullopt when the type
  /// has no mapping).
  static std::optional<WireType> wire_type_of(const Message& msg);
};

}  // namespace wrs::net
