// Awaitable completion values for the deployment facade.
//
// Every protocol operation in the library completes through a callback
// (processes are event-driven state machines). Await<T> is the one
// bridge from that callback world to straight-line driver code —
// examples, benches, tests — on every runtime substrate:
//
//   * on the deterministic simulator, get() runs the SimEnv's event loop
//     on the caller's thread until the value is fulfilled (the simulator
//     has no threads of its own);
//   * on the thread and socket runtimes (no SimEnv), get() blocks on a
//     condition variable and the fulfilling callback runs on a worker or
//     loop thread.
//
// Await is a cheap shared-state handle: copy it into the completion
// callback and fulfill() it there, keep a copy on the caller side and
// get() it. The same driver source therefore runs unmodified on any
// substrate — which one is in play is decided by the SimEnv the Cluster
// facade hands to make_await (null off the simulator), not by the call
// site. Cluster::call(pid, start) pairs a fresh Await with one hop into
// a process's execution context.
//
// Composition (for the pipelined client API): awaits chain and fan in
// without blocking one .get() per operation —
//
//   * then(fn) runs fn when the value arrives and yields an Await of
//     fn's result;
//   * when_all(a, b, ...) / when_all(vector) resolve when every input
//     has, to a tuple / vector of the values;
//   * poll() / ready() observe completion without blocking, for
//     open-loop drivers that must not stall their issue clock.
//
// Continuations run wherever fulfill() runs: inline in the simulator's
// event loop, or on the fulfilling worker thread on the thread runtime —
// keep them short and non-blocking, like any protocol callback.
#pragma once

#include <condition_variable>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "runtime/sim_env.h"

namespace wrs {

/// Thrown by Await<T>::get when the value did not arrive in time (the
/// protocol stalled, the deadline was too tight, or the operation's
/// quorum is unreachable).
class AwaitTimeout : public std::runtime_error {
 public:
  AwaitTimeout() : std::runtime_error("wrs::Await: timed out") {}
};

template <typename T>
class Await {
 public:
  /// An Await without a simulator blocks on its condition variable
  /// (thread and socket runtimes); with one, get() runs `sim`'s event
  /// loop until the value arrives.
  Await() : Await(nullptr) {}
  explicit Await(SimEnv* sim)
      : state_(std::make_shared<State>()), sim_(sim) {}

  /// Completion-callback side; the first fulfill wins, later ones are
  /// ignored (operations complete exactly once, but scenario scripts may
  /// race a timeout fulfillment against the real one). Registered
  /// continuations run inline, after the value is published.
  void fulfill(T value) const {
    std::vector<std::function<void(const T&)>> conts;
    {
      std::lock_guard lock(state_->mu);
      if (state_->value.has_value()) return;
      state_->value = std::move(value);
      conts = std::move(state_->continuations);
      state_->continuations.clear();
    }
    state_->cv.notify_all();
    for (auto& c : conts) c(*state_->value);
  }

  bool ready() const {
    std::lock_guard lock(state_->mu);
    return state_->value.has_value();
  }

  /// Non-blocking: the value if it has arrived, nullopt otherwise. Does
  /// not run the simulator — drive it via Cluster::run_for/quiesce.
  std::optional<T> poll() const {
    std::lock_guard lock(state_->mu);
    return state_->value;
  }

  /// Registers `fn` to run when the value arrives; runs it immediately
  /// (on the caller) when the value is already there. Any number of
  /// continuations may be registered.
  void on_ready(std::function<void(const T&)> fn) const {
    {
      std::lock_guard lock(state_->mu);
      if (!state_->value.has_value()) {
        state_->continuations.push_back(std::move(fn));
        return;
      }
    }
    fn(*state_->value);
  }

  /// Chains a continuation: returns an Await of fn's result, fulfilled
  /// when this value arrives. fn returning void yields Await<bool>
  /// (fulfilled with true) so the end of a chain stays awaitable.
  template <typename F>
  auto then(F fn) const {
    using R = std::invoke_result_t<F, const T&>;
    if constexpr (std::is_void_v<R>) {
      Await<bool> next(sim_);
      on_ready([next, fn = std::move(fn)](const T& v) {
        fn(v);
        next.fulfill(true);
      });
      return next;
    } else {
      Await<R> next(sim_);
      on_ready([next, fn = std::move(fn)](const T& v) {
        next.fulfill(fn(v));
      });
      return next;
    }
  }

  /// Waits up to `timeout`; nullopt if the value never arrived.
  std::optional<T> try_get(TimeNs timeout = seconds(120)) const {
    if (sim_ != nullptr) {
      // Simulator: make progress on the caller's thread. No other thread
      // can fulfill concurrently, so no lock is needed around the loop.
      sim_->run_until_pred([this] { return ready(); },
                           sim_->now() + timeout);
      std::lock_guard lock(state_->mu);
      return state_->value;
    }
    std::unique_lock lock(state_->mu);
    state_->cv.wait_for(lock, std::chrono::nanoseconds(timeout),
                        [this] { return state_->value.has_value(); });
    return state_->value;
  }

  /// Waits up to `timeout` and returns the value; throws AwaitTimeout if
  /// it never arrived.
  T get(TimeNs timeout = seconds(120)) const {
    auto v = try_get(timeout);
    if (!v.has_value()) throw AwaitTimeout();
    return *std::move(v);
  }

  /// The simulator this Await runs from get() (null on the thread and
  /// socket runtimes). Composition helpers propagate it to derived awaits.
  SimEnv* sim() const { return sim_; }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<T> value;
    std::vector<std::function<void(const T&)>> continuations;
  };

  std::shared_ptr<State> state_;
  SimEnv* sim_;
};

/// Fans in a homogeneous batch: resolves to the vector of all values
/// (in input order) once every part has resolved. The natural partner of
/// ClientHandle::read_batch / write_batch.
template <typename T>
Await<std::vector<T>> when_all(const std::vector<Await<T>>& parts) {
  SimEnv* sim = nullptr;
  for (const auto& p : parts) {
    if ((sim = p.sim()) != nullptr) break;
  }
  Await<std::vector<T>> all(sim);
  if (parts.empty()) {
    all.fulfill({});
    return all;
  }
  struct Gather {
    std::mutex mu;
    std::vector<std::optional<T>> slots;
    std::size_t remaining;
  };
  auto g = std::make_shared<Gather>();
  g->slots.resize(parts.size());
  g->remaining = parts.size();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].on_ready([g, all, i](const T& v) {
      bool done = false;
      {
        std::lock_guard lock(g->mu);
        g->slots[i] = v;
        done = (--g->remaining == 0);
      }
      if (!done) return;
      std::vector<T> out;
      out.reserve(g->slots.size());
      for (auto& s : g->slots) out.push_back(std::move(*s));
      all.fulfill(std::move(out));
    });
  }
  return all;
}

/// Fans in a heterogeneous set: resolves to the tuple of all values once
/// every part has (e.g. a write's Tag alongside a read's TaggedValue).
template <typename... Ts>
Await<std::tuple<Ts...>> when_all(const Await<Ts>&... parts) {
  static_assert(sizeof...(Ts) > 0, "when_all needs at least one await");
  SimEnv* sim = nullptr;
  auto pick = [&sim](const auto& p) {
    if (sim == nullptr) sim = p.sim();
  };
  (pick(parts), ...);
  Await<std::tuple<Ts...>> all(sim);
  struct Gather {
    std::mutex mu;
    std::tuple<std::optional<Ts>...> slots;
    std::size_t remaining = sizeof...(Ts);
  };
  auto g = std::make_shared<Gather>();
  [&]<std::size_t... Is>(std::index_sequence<Is...>) {
    auto finish = [g, all] {
      all.fulfill(std::tuple<Ts...>(std::move(*std::get<Is>(g->slots))...));
    };
    (std::get<Is>(std::tie(parts...))
         .on_ready([g, finish](const Ts& v) {
           bool done = false;
           {
             std::lock_guard lock(g->mu);
             std::get<Is>(g->slots) = v;
             done = (--g->remaining == 0);
           }
           if (done) finish();
         }),
     ...);
  }(std::index_sequence_for<Ts...>{});
  return all;
}

}  // namespace wrs
