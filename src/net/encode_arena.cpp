#include "net/encode_arena.h"

#include <mutex>
#include <new>
#include <vector>

namespace wrs::net {
namespace {

/// Process-wide recycler of standard-size chunks. Leaky singleton, like
/// MsgPool: segments released during static destruction must always
/// find a live pool, and LSan sees the free list as reachable.
class ChunkPool {
 public:
  static ChunkPool& instance() {
    static ChunkPool* pool = new ChunkPool();
    return *pool;
  }

  /// A chunk with cap >= max(min_cap, kArenaChunkBytes requirement);
  /// refs == 1 (the caller's reference). Oversize requests bypass the
  /// free list and are freed outright on release.
  ArenaChunk* acquire(std::size_t min_cap) {
    if (min_cap <= kArenaChunkBytes) {
      {
        std::lock_guard lock(mu_);
        if (!free_.empty()) {
          ArenaChunk* c = free_.back();
          free_.pop_back();
          c->refs.store(1, std::memory_order_relaxed);
          return c;
        }
      }
      return make(kArenaChunkBytes, /*pooled=*/true);
    }
    return make(min_cap, /*pooled=*/false);
  }

  void put(ArenaChunk* c) {
    std::lock_guard lock(mu_);
    free_.push_back(c);
  }

 private:
  static ArenaChunk* make(std::size_t cap, bool pooled) {
    void* raw = ::operator new(sizeof(ArenaChunk) + cap);
    auto* c = new (raw) ArenaChunk();
    c->cap = static_cast<std::uint32_t>(cap);
    c->pooled = pooled;
    return c;
  }

  std::mutex mu_;
  std::vector<ArenaChunk*> free_;
};

/// Below this much slack, rotate chunks instead of attempting an encode
/// that will almost certainly overflow and retry.
constexpr std::size_t kMinUsefulSpan = 4096;

}  // namespace

void ArenaChunk::release() noexcept {
  if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (pooled) {
      ChunkPool::instance().put(this);
    } else {
      this->~ArenaChunk();
      ::operator delete(this);
    }
  }
}

EncodeArena::~EncodeArena() {
  if (cur_ != nullptr) cur_->release();
}

std::uint8_t* EncodeArena::reserve(std::size_t min_bytes) {
  const std::size_t want = min_bytes == 0 ? kMinUsefulSpan : min_bytes;
  if (cur_ == nullptr || cur_->cap - off_ < want) {
    // Take the next chunk while still holding this one: if every
    // segment had drained, releasing first would hand back the same
    // chunk, and the sender's second chunk would be made at a later
    // rotation, in steady state.
    ArenaChunk* next = ChunkPool::instance().acquire(want);
    if (cur_ != nullptr) cur_->release();
    cur_ = next;
    off_ = 0;
  }
  return cur_->data() + off_;
}

std::size_t EncodeArena::writable() const {
  return cur_ == nullptr ? 0 : cur_->cap - off_;
}

Segment EncodeArena::commit(std::size_t n) {
  Segment seg(cur_, cur_->data() + off_, n);
  off_ += n;
  return seg;
}

}  // namespace wrs::net
