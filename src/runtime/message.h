// Typed messages.
//
// Protocols define message structs deriving from Message. The in-process
// runtimes pass shared_ptr<const Message> between processes (zero-copy).
// A message does not know its own size: every runtime charges the bytes
// of its encoded frame, WireCodec::frame_size (net/wire_codec.h), so
// experiments account for exactly what the socket runtime would put on
// the wire (the piggybacked change sets of Algorithm 5/6 are the
// interesting case).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/types.h"

namespace wrs {

class Message {
 public:
  /// Process-wide unique tag per concrete message type, allocated lazily
  /// on first use. Dispatch compares tags instead of running dynamic_cast
  /// (msg_cast sits on the per-message hot path of both runtimes).
  using TypeId = std::uint32_t;

  virtual ~Message() = default;

  /// The concrete type's tag; implemented once by MessageBase below.
  virtual TypeId type_id() const = 0;

  /// Short type name for logging/metrics ("RC", "T_ACK", "W", ...).
  virtual std::string type_name() const = 0;

  /// Allocates a fresh tag (one per concrete type; see message_type_id).
  static TypeId allocate_type_id() {
    static std::atomic<TypeId> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
};

/// The tag of concrete message type T (stable for the process lifetime;
/// thread-safe via C++ static-local initialization).
template <typename T>
Message::TypeId message_type_id() {
  static const Message::TypeId id = Message::allocate_type_id();
  return id;
}

/// CRTP base every concrete message derives from:
///
///   class ReadReq : public MessageBase<ReadReq> { ... };
///
/// It pins type_id() to the derived type's tag, which is what makes the
/// cheap msg_cast below sound. Concrete message types must not be further
/// derived from (type_id is final).
template <typename Derived>
class MessageBase : public Message {
 public:
  TypeId type_id() const final { return message_type_id<Derived>(); }
};

using MsgPtr = std::shared_ptr<const Message>;

/// An addressed message in flight.
struct Envelope {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  MsgPtr msg;
};

/// Safe downcast helper: returns nullptr when the runtime delivered a
/// different message type. A tag comparison plus static_cast — no RTTI
/// walk on the delivery hot path.
template <typename T>
const T* msg_cast(const Message& m) {
  static_assert(std::is_base_of_v<MessageBase<T>, T>,
                "message types derive from MessageBase<T>");
  return m.type_id() == message_type_id<T>() ? static_cast<const T*>(&m)
                                             : nullptr;
}

}  // namespace wrs
