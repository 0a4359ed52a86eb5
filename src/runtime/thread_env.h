// Thread-per-process runtime.
//
// Each registered process gets a worker thread draining a mailbox of
// tasks (message deliveries and expired timers), so handlers are
// serialized per process exactly as in SimEnv. A single timer thread owns
// the deadline queue; message sends are routed through it when a latency
// model is configured (to inject WAN-like delays under real concurrency),
// or enqueued directly when not.
//
// The send path is engineered to scale with senders rather than
// serialize them (this runtime is the system's real-concurrency proof,
// so its overhead is what EXP-SH3 measures):
//
//  * Routing is an immutable pid→Mailbox snapshot published RCU-style:
//    register_process builds a new table under mu_ and swaps an atomic
//    pointer; send() does one acquire load and a binary search — no
//    lock. Retired tables are kept until destruction, so readers never
//    race reclamation.
//  * Traffic accounting goes through Env's TrafficLedger (sharded
//    relaxed atomics, pre-interned type slots): no lock.
//  * A small rng_mu_ is taken only when a fault decision or latency
//    sample actually needs the seeded rng; the common configuration
//    (no faults, no latency model) takes no lock at all.
//  * Mailboxes are cache-line-aligned (no false sharing between
//    neighbors) and LOCK-FREE on the delivery fast path: a bounded
//    Vyukov MPSC ring of small-buffer Tasks (steady-state
//    enqueue/deliver does zero heap allocations and takes zero locks —
//    bench/runtime_overhead gates the former), with the condvar notify
//    elided unless the worker is actually parked (a seq_cst-fence
//    Dekker handshake, not a lock, decides that). When the ring fills,
//    ALL enqueues divert to a mutex-guarded grow-only spill ring until
//    the worker drains it — per-sender FIFO survives the diversion —
//    so a burst past `mailbox_slots` degrades to the old locked path
//    instead of dropping or blocking.
//
// This runtime exists to demonstrate that every protocol in the library
// is a real concurrent program, not a simulator artifact: the integration
// tests run the full reassignment + storage stack on it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/rng.h"
#include "runtime/env.h"
#include "runtime/latency_model.h"
#include "runtime/mpsc_queue.h"
#include "runtime/task.h"

namespace wrs {

class ThreadEnv : public Env {
 public:
  /// Lock-free mailbox ring capacity (per process, rounded up to a
  /// power of two). Beyond this many undelivered tasks, enqueues spill
  /// to the locked overflow ring — correct but slower. 1024 comfortably
  /// covers every in-flight bound in the repo's benches.
  static constexpr std::size_t kDefaultMailboxSlots = 1024;

  /// `latency` may be null (deliver as fast as possible). Tests shrink
  /// `mailbox_slots` to force the overflow path deterministically.
  explicit ThreadEnv(std::shared_ptr<LatencyModel> latency = nullptr,
                     std::uint64_t seed = 1,
                     std::size_t mailbox_slots = kDefaultMailboxSlots);
  ~ThreadEnv() override;

  ThreadEnv(const ThreadEnv&) = delete;
  ThreadEnv& operator=(const ThreadEnv&) = delete;

  // --- Env interface -----------------------------------------------------
  TimeNs now() const override;
  void send(ProcessId from, ProcessId to, MsgPtr msg) override;
  void schedule(ProcessId pid, TimeNs delay, Task fn) override;
  /// Unlike the pre-chaos runtime, registration is allowed after start():
  /// the new process gets its worker thread and on_start immediately
  /// (mid-run "restart as a new reader" scenarios). Re-registering an id
  /// is an error on this runtime (the old worker owns the mailbox).
  void register_process(ProcessId pid, Process* process) override;
  void crash(ProcessId pid) override;
  bool is_crashed(ProcessId pid) const override;
  // Fault verdicts draw from the env's seeded rng under rng_mu_; the
  // reorder knob is ignored (reordering is the simulator's deterministic
  // specialty — real threads reorder for free).

  // --- Lifecycle ----------------------------------------------------------
  /// Launches worker and timer threads and delivers on_start.
  void start();

  /// Drains nothing; signals all threads to finish and joins them.
  void stop();

  bool started() const { return started_; }

 private:
  // Aligned so adjacent mailboxes (one per process, touched by different
  // worker threads) never share a cache line.
  //
  // Fast path: producers try_push into `ring` and (only when the worker
  // advertised it is parked) notify the condvar. Slow path: when the
  // ring is full, `overflow_active` flips on and EVERY enqueue goes to
  // the locked `overflow` ring until the worker empties it — a sender
  // that spilled message k there can only reach the lock-free ring
  // again after k was popped, so per-sender FIFO holds across the
  // diversion. Crash drops tasks at both enqueue (flag checked first)
  // and pop (worker discards while crashed) — in-ring tasks of a
  // crashed process are destroyed unexecuted, same observable behavior
  // as the old clear-under-mutex.
  struct alignas(kCacheLineSize) Mailbox {
    explicit Mailbox(std::size_t slots) : ring(slots) {}

    MpscRing<Task> ring;             // lock-free fast path
    std::mutex mu;                   // guards overflow + park handshake
    std::condition_variable cv;
    TaskRing overflow;               // guarded by mu
    std::atomic<bool> overflow_active{false};
    std::atomic<bool> stopped{false};   // set under mu (cv sync)
    std::atomic<bool> parked{false};    // worker blocks on cv iff true
    // Read lock-free on send/is_crashed paths; transitions false→true
    // exactly once.
    std::atomic<bool> crashed{false};
    Process* process = nullptr;
    std::thread worker;
  };

  /// Immutable pid→Mailbox table. register_process publishes a fresh one
  /// (entries sorted by pid) through routing_; send/is_crashed read it
  /// with one acquire load. Mailboxes themselves live until destruction,
  /// so a stale table never dangles.
  struct Routing {
    std::vector<std::pair<ProcessId, Mailbox*>> entries;

    Mailbox* find(ProcessId pid) const {
      auto it = std::lower_bound(
          entries.begin(), entries.end(), pid,
          [](const std::pair<ProcessId, Mailbox*>& e, ProcessId p) {
            return e.first < p;
          });
      return (it != entries.end() && it->first == pid) ? it->second : nullptr;
    }
  };

  const Routing* routing() const {
    return routing_.load(std::memory_order_acquire);
  }
  void publish_routing_locked();
  void enqueue_task(Mailbox* box, Task fn);
  void timer_loop();
  void worker_loop(Mailbox* box);
  /// Queues `fn` for `pid` at `at`, in now()'s clock (ns since epoch_).
  void timer_schedule(TimeNs at, ProcessId pid, Task fn);

  std::shared_ptr<LatencyModel> latency_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t mailbox_slots_;

  mutable std::mutex mu_;  // guards registration/lifecycle state
  std::map<ProcessId, std::unique_ptr<Mailbox>> boxes_;
  std::atomic<const Routing*> routing_{nullptr};
  std::vector<std::unique_ptr<Routing>> routing_history_;  // incl. current
  bool started_ = false;
  bool stopping_ = false;

  std::mutex rng_mu_;  // guards rng_ (fault + latency draws only)
  Rng rng_;

  // Timer thread state.
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  TaskHeap timers_;  // tag: the pid whose mailbox runs the task
  bool timer_stop_ = false;
  std::thread timer_thread_;
};

}  // namespace wrs
