#include "runtime/thread_env.h"

#include <cassert>
#include <stdexcept>

#include "common/logging.h"
#include "net/wire_codec.h"

namespace wrs {

using Clock = std::chrono::steady_clock;

ThreadEnv::ThreadEnv(std::shared_ptr<LatencyModel> latency, std::uint64_t seed,
                     std::size_t mailbox_slots)
    : latency_(std::move(latency)),
      epoch_(Clock::now()),
      mailbox_slots_(mailbox_slots < 2 ? 2 : mailbox_slots),
      rng_(seed) {
  // Publish an empty routing table so send() never sees null.
  auto empty = std::make_unique<Routing>();
  routing_.store(empty.get(), std::memory_order_release);
  routing_history_.push_back(std::move(empty));
}

ThreadEnv::~ThreadEnv() { stop(); }

TimeNs ThreadEnv::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void ThreadEnv::publish_routing_locked() {
  auto next = std::make_unique<Routing>();
  next->entries.reserve(boxes_.size());
  for (const auto& [pid, box] : boxes_) {
    next->entries.emplace_back(pid, box.get());  // std::map: already sorted
  }
  routing_.store(next.get(), std::memory_order_release);
  // Retired tables stay alive until destruction: a sender holding a stale
  // pointer only ever misses processes registered after its load, which
  // is indistinguishable from sending a moment earlier.
  routing_history_.push_back(std::move(next));
}

void ThreadEnv::register_process(ProcessId pid, Process* process) {
  if (process == nullptr) {
    throw std::invalid_argument("ThreadEnv: null process");
  }
  // The whole registration happens under mu_ so it is atomic with respect
  // to stop()'s box snapshot: a registration either completes fully
  // before the snapshot (its worker gets joined) or observes stopping_
  // and spawns nothing.
  std::lock_guard lock(mu_);
  if (boxes_.count(pid) != 0) {
    throw std::logic_error("ThreadEnv: process " + process_name(pid) +
                           " already registered");
  }
  auto box = std::make_unique<Mailbox>(mailbox_slots_);
  box->process = process;
  Mailbox* live = box.get();
  boxes_[pid] = std::move(box);
  publish_routing_locked();
  if (started_ && !stopping_) {
    // Mid-run deployment (e.g. a crashed reader restarting as a new
    // process): spawn the worker and deliver on_start immediately.
    live->worker = std::thread([this, live] { worker_loop(live); });
    enqueue_task(live, Task([live] { live->process->on_start(); }));
  }
}

void ThreadEnv::start() {
  // The whole launch runs under mu_ so it is atomic with respect to a
  // concurrent (now-legal) register_process: every box is spawned exactly
  // once — by start() if it was registered before, by register_process if
  // after.
  std::lock_guard lock(mu_);
  if (started_) return;
  started_ = true;
  timer_thread_ = std::thread([this] { timer_loop(); });
  for (auto& [pid, box] : boxes_) {
    Mailbox* b = box.get();
    b->worker = std::thread([this, b] { worker_loop(b); });
    enqueue_task(b, Task([b] { b->process->on_start(); }));
  }
}

void ThreadEnv::stop() {
  std::vector<Mailbox*> boxes;
  {
    std::lock_guard lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    // Snapshot under mu_: late register_process either finished before
    // this point (worker joined below) or sees stopping_ and stays inert.
    boxes.reserve(boxes_.size());
    for (auto& [pid, box] : boxes_) boxes.push_back(box.get());
  }
  {
    std::lock_guard lock(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  for (Mailbox* box : boxes) {
    {
      std::lock_guard lock(box->mu);
      box->stopped.store(true, std::memory_order_release);
    }
    box->cv.notify_all();
  }
  for (Mailbox* box : boxes) {
    if (box->worker.joinable()) box->worker.join();
  }
}

void ThreadEnv::worker_loop(Mailbox* box) {
  for (;;) {
    // stop() may leave tasks undelivered (it "drains nothing"); checking
    // here — not just when idle — keeps that prompt under load.
    if (box->stopped.load(std::memory_order_acquire)) return;
    Task task;
    bool have = false;
    if (box->ring.try_pop(task)) {
      have = true;
    } else if (box->overflow_active.load(std::memory_order_acquire)) {
      // Ring empty and a spill exists: drain it under the lock. The flag
      // clears only here, with the overflow empty, so producers keep
      // diverting (preserving their FIFO) until every spilled task left.
      std::lock_guard lock(box->mu);
      if (!box->overflow.empty()) {
        task = box->overflow.pop();
        have = true;
      }
      if (box->overflow.empty()) {
        box->overflow_active.store(false, std::memory_order_release);
      }
    } else {
      // Park. Dekker handshake with the producers' post-push fence:
      // advertise parked, fence, recheck — either this sees the push, or
      // the producer's fenced load sees parked and notifies under mu.
      box->parked.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (box->ring.can_pop() ||
          box->overflow_active.load(std::memory_order_acquire) ||
          box->stopped.load(std::memory_order_acquire)) {
        box->parked.store(false, std::memory_order_relaxed);
        continue;
      }
      std::unique_lock lock(box->mu);
      box->cv.wait(lock, [box] {
        return box->stopped.load(std::memory_order_acquire) ||
               box->overflow_active.load(std::memory_order_acquire) ||
               box->ring.can_pop();
      });
      box->parked.store(false, std::memory_order_relaxed);
      continue;
    }
    if (have && !box->crashed.load(std::memory_order_relaxed)) {
      task();
    }
    // Crashed: the popped task is destroyed unexecuted (drain).
  }
}

void ThreadEnv::enqueue_task(Mailbox* box, Task fn) {
  if (box->crashed.load(std::memory_order_acquire)) return;
  if (!box->overflow_active.load(std::memory_order_acquire) &&
      box->ring.try_push(std::move(fn))) {
    // Lock-free publish succeeded. Notify only when the worker is
    // parked; the fence pairs with the worker's park-then-recheck so a
    // wakeup is never missed.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (box->parked.load(std::memory_order_relaxed)) {
      { std::lock_guard lock(box->mu); }  // order notify after the wait
      box->cv.notify_one();
    }
    return;
  }
  // Ring full (or a spill is already active): divert to the locked
  // overflow ring. The worker drains it ring-first, so the diverted
  // task is delivered after everything already published.
  {
    std::lock_guard lock(box->mu);
    if (box->stopped.load(std::memory_order_relaxed) ||
        box->crashed.load(std::memory_order_relaxed)) {
      return;
    }
    box->overflow_active.store(true, std::memory_order_release);
    box->overflow.push(std::move(fn));
  }
  box->cv.notify_one();
}

void ThreadEnv::send(ProcessId from, ProcessId to, MsgPtr msg) {
  if (!msg) throw std::invalid_argument("ThreadEnv::send: null message");
  const Routing* routes = routing();
  Mailbox* src = routes->find(from);
  if (src != nullptr && src->crashed.load(std::memory_order_acquire)) return;
  const std::size_t bytes = net::WireCodec::frame_size(*msg);
  ledger_.count_message(*msg, static_cast<std::int64_t>(bytes));
  count_shard_traffic(from, to, bytes);
  TimeNs delay = 0;
  TimeNs dup_delay = -1;  // >= 0 iff the message is duplicated
  if (faults_.active() || latency_) {
    // Only fault decisions and latency samples need the seeded rng; the
    // default configuration never takes this lock.
    std::lock_guard lock(rng_mu_);
    if (faults_.active()) {
      LinkFaults::Decision fate = faults_.decide(from, to, rng_);
      if (!fate.deliver) {
        ledger_.inc(TrafficLedger::kMsgsLost);
        return;
      }
      if (fate.duplicate) {
        ledger_.inc(TrafficLedger::kMsgsDup);
        dup_delay = latency_ ? latency_->sample(from, to, rng_) : 0;
      }
      // fate.extra_delay (bounded reordering) is sim-only; ignored here.
    }
    if (latency_) delay = latency_->sample(from, to, rng_);
  }
  Mailbox* box = routes->find(to);
  if (box == nullptr) return;  // unknown target: drop
  // The duplicate (rare) pays for its own closure; the common path below
  // builds exactly one Task and MOVES the MsgPtr into it.
  if (dup_delay >= 0) {
    Task dup([box, from, msg] { box->process->on_message(from, *msg); });
    if (dup_delay <= 0) {
      enqueue_task(box, std::move(dup));
    } else {
      timer_schedule(now() + dup_delay, to, std::move(dup));
    }
  }
  Task deliver([box, from, msg = std::move(msg)] {
    // Executes in `to`'s context (on its worker thread). The Mailbox
    // pointer stays valid for the env's lifetime.
    box->process->on_message(from, *msg);
  });
  if (delay <= 0) {
    enqueue_task(box, std::move(deliver));
  } else {
    timer_schedule(now() + delay, to, std::move(deliver));
  }
}

void ThreadEnv::schedule(ProcessId pid, TimeNs delay, Task fn) {
  timer_schedule(now() + delay, pid, std::move(fn));
}

void ThreadEnv::timer_schedule(TimeNs at, ProcessId pid, Task fn) {
  bool wake = false;
  {
    std::lock_guard lock(timer_mu_);
    if (timer_stop_) return;
    // The timer thread only needs a nudge when this deadline preempts
    // the one it is currently sleeping toward.
    wake = timers_.empty() || at < timers_.next_at();
    timers_.push(at, pid, std::move(fn));
  }
  if (wake) timer_cv_.notify_one();
}

void ThreadEnv::timer_loop() {
  std::unique_lock lock(timer_mu_);
  for (;;) {
    if (timer_stop_) return;
    if (timers_.empty()) {
      timer_cv_.wait(lock, [this] { return timer_stop_ || !timers_.empty(); });
      continue;
    }
    const TimeNs next_at = timers_.next_at();
    if (now() < next_at) {
      timer_cv_.wait_until(lock, epoch_ + std::chrono::nanoseconds(next_at));
      continue;
    }
    TaskHeap::Entry item = timers_.pop();
    lock.unlock();
    const auto pid = static_cast<ProcessId>(item.tag);
    if (pid == kNoProcess) {
      // Env-internal work (scenario scripts) always runs — matching the
      // simulator, where kNoProcess events ignore the crashed set. It
      // executes on the timer thread, so it must only touch
      // thread-safe state.
      item.fn();
    } else {
      // Routed through the target's mailbox; enqueue_task drops the task
      // if the process crashed while the timer was pending (crash
      // semantics for in-flight deliveries, pinned by test).
      Mailbox* box = routing()->find(pid);
      if (box != nullptr) enqueue_task(box, std::move(item.fn));
    }
    lock.lock();
  }
}

void ThreadEnv::crash(ProcessId pid) {
  Mailbox* box = routing()->find(pid);
  if (box == nullptr) return;
  box->crashed.store(true, std::memory_order_release);
  {
    std::lock_guard lock(box->mu);
    box->overflow.clear();
  }
  // Only the worker may pop the lock-free ring: wake it so it promptly
  // drains (and destroys, unexecuted) whatever was already published.
  box->cv.notify_one();
}

bool ThreadEnv::is_crashed(ProcessId pid) const {
  Mailbox* box = routing()->find(pid);
  return box != nullptr && box->crashed.load(std::memory_order_acquire);
}

const Counters& ThreadEnv::traffic() const {
  traffic_export_ = ledger_.snapshot();
  return traffic_export_;
}

std::vector<ProcessId> ThreadEnv::server_ids() const {
  const Routing* routes = routing();
  std::vector<ProcessId> out;
  for (const auto& [pid, box] : routes->entries) {
    if (is_server(pid)) out.push_back(pid);
  }
  return out;
}

}  // namespace wrs
