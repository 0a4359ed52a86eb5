// Arena-backed scatter-gather buffers for the socket send path.
//
// The pre-arena encode path allocated one std::vector per frame, moved
// it through a std::function command closure (a second allocation), and
// copied it into a per-connection deque. With the arena, a sender
// encodes directly into a large refcounted chunk and ships a `Segment`
// — a (chunk, offset, length) view — down to the transport's write
// queue, which hands segment spans straight to sendmsg(). Steady state:
// zero allocations per message, because chunks recycle through a
// process-wide pool the moment their last segment is released.
//
// Ownership model:
//  * `ArenaChunk` carries an atomic refcount. The arena that is filling
//    a chunk holds one reference; every Segment cut from it holds one
//    more. Chunks may therefore cross threads freely (encode on the
//    caller's thread, write + release on the transport loop thread).
//  * Standard-size chunks return to the global `ChunkPool` free list on
//    final release (the pool is a leaky singleton, like MsgPool, so
//    releases during static destruction stay safe). Oversize chunks —
//    frames bigger than one chunk — are one-shot heap allocations.
//  * A rotating arena takes its next chunk before letting go of the full
//    one, so a busy sender settles on two chunks at its first rotation,
//    however far its segments had drained by then.
//  * `EncodeArena` is single-threaded by design: use one per sending
//    thread (thread_local) or one owned by the loop thread.
//
// `SpanWriter` is the bounded writer the codec encodes through: it
// writes into a raw span and throws `ArenaFull` on overflow, which the
// caller turns into "reserve a bigger span and re-encode" (frames are
// almost always far smaller than a chunk, so the retry is cold).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

namespace wrs::net {

/// Usable payload bytes per pooled chunk. Large enough that hundreds of
/// protocol frames amortize one chunk rotation; small enough that a
/// handful of live chunks per process is noise.
inline constexpr std::size_t kArenaChunkBytes = 256 * 1024;

/// A refcounted block of encode memory; payload bytes follow the header.
struct ArenaChunk {
  std::atomic<std::uint32_t> refs{1};
  std::uint32_t cap = 0;  ///< usable payload bytes
  bool pooled = false;    ///< false: freed outright on last release

  std::uint8_t* data() {
    return reinterpret_cast<std::uint8_t*>(this) + sizeof(ArenaChunk);
  }

  void retain() { refs.fetch_add(1, std::memory_order_relaxed); }
  /// Returns the chunk to the pool (or the heap) when the last
  /// reference drops. Defined out of line: needs ChunkPool.
  void release() noexcept;
};

/// An immutable view of encoded bytes, keeping its chunk alive. Copy is
/// a refcount bump (fault-injected duplicate sends reuse one encode).
class Segment {
 public:
  Segment() = default;
  Segment(ArenaChunk* chunk, const std::uint8_t* data, std::size_t len)
      : chunk_(chunk), data_(data), len_(len) {
    if (chunk_ != nullptr) chunk_->retain();
  }

  Segment(const Segment& o) : Segment(o.chunk_, o.data_, o.len_) {}
  Segment(Segment&& o) noexcept
      : chunk_(o.chunk_), data_(o.data_), len_(o.len_) {
    o.chunk_ = nullptr;
    o.data_ = nullptr;
    o.len_ = 0;
  }

  Segment& operator=(const Segment& o) {
    if (this != &o) *this = Segment(o);  // copy-retain, then move in
    return *this;
  }

  Segment& operator=(Segment&& o) noexcept {
    if (this != &o) {
      reset();
      chunk_ = std::exchange(o.chunk_, nullptr);
      data_ = std::exchange(o.data_, nullptr);
      len_ = std::exchange(o.len_, 0);
    }
    return *this;
  }

  ~Segment() { reset(); }

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  explicit operator bool() const { return data_ != nullptr; }

 private:
  void reset() {
    if (chunk_ != nullptr) chunk_->release();
    chunk_ = nullptr;
    data_ = nullptr;
    len_ = 0;
  }

  ArenaChunk* chunk_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
};

/// Single-threaded bump allocator cutting Segments from pooled chunks.
class EncodeArena {
 public:
  EncodeArena() = default;
  ~EncodeArena();

  EncodeArena(const EncodeArena&) = delete;
  EncodeArena& operator=(const EncodeArena&) = delete;

  /// Ensures at least `min_bytes` (or, for 0, a useful working span) of
  /// contiguous writable space at the cursor and returns its base.
  /// Rotates to a fresh pooled chunk — or a one-shot oversize chunk —
  /// when the current one is (nearly) full.
  std::uint8_t* reserve(std::size_t min_bytes);

  /// Bytes writable at the pointer reserve() returned.
  std::size_t writable() const;

  /// Seals the first `n` bytes of the reserved span as a Segment and
  /// advances the cursor. `n` must not exceed writable().
  Segment commit(std::size_t n);

  /// Copies arbitrary bytes into the arena as one Segment.
  Segment copy(const std::uint8_t* p, std::size_t n) {
    std::memcpy(reserve(n), p, n);
    return commit(n);
  }

 private:
  ArenaChunk* cur_ = nullptr;
  std::size_t off_ = 0;
};

/// Thrown by SpanWriter on overflow; callers re-reserve and re-encode.
struct ArenaFull {};

/// Bounded little-endian writer over a raw span: the primitive layer
/// every wire frame is encoded through.
class SpanWriter {
 public:
  SpanWriter(std::uint8_t* base, std::size_t cap) : base_(base), cap_(cap) {}

  std::size_t size() const { return n_; }

  void u8(std::uint8_t v) {
    need(1);
    base_[n_++] = v;
  }

  void u32(std::uint32_t v) {
    need(4);
    for (int i = 0; i < 4; ++i) base_[n_++] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  void u64(std::uint64_t v) {
    need(8);
    for (int i = 0; i < 8; ++i) base_[n_++] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    need(s.size());
    std::memcpy(base_ + n_, s.data(), s.size());
    n_ += s.size();
  }

  /// Patches a previously written u32 in place (length backfill).
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) base_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

 private:
  void need(std::size_t n) const {
    if (cap_ - n_ < n) throw ArenaFull{};
  }

  std::uint8_t* base_;
  std::size_t cap_;
  std::size_t n_ = 0;
};

}  // namespace wrs::net
