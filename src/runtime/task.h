// Move-only callable with small-buffer storage, a growable ring of them,
// and a deadline heap of them. Together these keep the runtime delivery
// and timer paths allocation-free:
//
//  - `std::function` must be copyable, so it cannot hold a move-only
//    capture (an owned MsgPtr moved off the send path), and libstdc++'s
//    inline buffer is 16 bytes — a delivery closure {Mailbox*, from,
//    MsgPtr} at 32 bytes always heap-allocates. `Task` is move-only with
//    a 48-byte inline buffer, so every runtime closure fits inline.
//  - `TaskRing` is a power-of-two ring that only ever grows (the
//    zephyr `lib/os/heap.h` pool idiom: reserve once, reuse forever), so
//    a mailbox's steady-state push/pop never touches the allocator,
//    unlike std::deque which frees and reallocates blocks as it drains.
//  - `TaskHeap` is the one deadline queue of all three runtimes: the
//    simulator's event queue and the thread and socket runtimes' timer
//    queues. A Task is 64 bytes behind an indirect relocate call, so a
//    binary heap of Tasks pays that call at every sift level. TaskHeap
//    parks each Task once in a slot arena and sifts 32-byte trivially
//    copyable keys instead; arena, key vector and free list only grow,
//    so steady-state push/pop never touches the allocator either.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace wrs {

class Task {
 public:
  // Sized for the largest runtime closure: {ptr, pid, pid, MsgPtr} is
  // 32 bytes; 48 leaves headroom for one extra capture without growing
  // Task past one cache line alongside its vtable pointer.
  static constexpr std::size_t kInlineBytes = 48;

  Task() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &kInlineVTable<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &kHeapVTable<Fn>;
    }
  }

  Task(Task&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(other.buf_, buf_);
      other.vt_ = nullptr;
    }
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(other.buf_, buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

 private:
  struct VTable {
    void (*invoke)(void* self);
    // Move-construct dst from src, then destroy src.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr VTable kInlineVTable = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* src, void* dst) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* self) { static_cast<Fn*>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable kHeapVTable = {
      [](void* self) { (**static_cast<Fn**>(self))(); },
      [](void* src, void* dst) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* self) { delete *static_cast<Fn**>(self); },
  };

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

/// FIFO ring with power-of-two capacity that grows on demand and never
/// shrinks: after warm-up, push/pop are pointer bumps. T must be
/// default-constructible and move-assignable (Task, the transport's
/// command records).
template <typename T>
class GrowRing {
 public:
  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  std::size_t capacity() const { return buf_.size(); }

  void push(T t) {
    if (size() == buf_.size()) grow();
    buf_[tail_ & mask_] = std::move(t);
    ++tail_;
  }

  T pop() {
    T t = std::move(buf_[head_ & mask_]);
    buf_[head_ & mask_] = T{};  // release resources now, not a lap later
    ++head_;
    return t;
  }

  /// i-th element from the front (0 = next pop). The transport's
  /// scatter-gather flush peeks a span of queued segments without
  /// popping them until the kernel accepted their bytes.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask_]; }

  void clear() {
    while (!empty()) pop();
  }

  /// O(1) exchange — the transport's two-ring drain (producers fill one
  /// ring under a lock, the loop thread drains the other) hinges on it.
  void swap(GrowRing& other) noexcept {
    buf_.swap(other.buf_);
    std::swap(mask_, other.mask_);
    std::swap(head_, other.head_);
    std::swap(tail_, other.tail_);
  }

 private:
  void grow() {
    const std::size_t n = size();
    const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(next);
    mask_ = cap - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// The mailbox/timer ring of small-buffer Tasks.
using TaskRing = GrowRing<Task>;

/// Min-heap of Tasks ordered by (at, seq), where seq counts pushes: equal
/// deadlines pop in push order, so a simulated run is a pure function of
/// its inputs. `tag` rides along for the owner to read at pop time (the
/// pid whose context runs the task, or the socket loop's timer token).
class TaskHeap {
 public:
  struct Entry {
    std::int64_t at;
    std::uint64_t tag;
    Task fn;
  };

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  /// Deadline of the entry pop() returns next; the heap must be non-empty.
  std::int64_t next_at() const { return keys_.front().at; }

  void push(std::int64_t at, std::uint64_t tag, Task fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(tasks_.size());
      tasks_.push_back(std::move(fn));
      // Every slot can be free at once: growing free_ with the arena
      // keeps pop() allocation-free.
      free_.reserve(tasks_.capacity());
    } else {
      slot = free_.back();
      free_.pop_back();
      tasks_[slot] = std::move(fn);
    }
    keys_.push_back(Key{at, seq_++, tag, slot});
    std::push_heap(keys_.begin(), keys_.end(), Later{});
  }

  /// Removes the earliest entry. Its Task leaves the arena before the
  /// caller runs it, so the task may push (and grow the arena) freely.
  Entry pop() {
    std::pop_heap(keys_.begin(), keys_.end(), Later{});
    const Key k = keys_.back();
    keys_.pop_back();
    free_.push_back(k.slot);
    return Entry{k.at, k.tag, std::move(tasks_[k.slot])};
  }

 private:
  struct Key {
    std::int64_t at;
    std::uint64_t seq;
    std::uint64_t tag;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Key>);

  /// std heaps are max-heaps: "later" sorts to the bottom.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::vector<Key> keys_;
  std::vector<Task> tasks_;          // slot arena; freed slots are empty
  std::vector<std::uint32_t> free_;  // free slots of tasks_
  std::uint64_t seq_ = 0;
};

}  // namespace wrs
