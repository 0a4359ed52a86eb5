// Deterministic discrete-event simulator.
//
// Every run is a pure function of (seed, latency model, protocol logic):
// events are ordered by (time, sequence-number) so ties break
// deterministically. This is the substrate for the property tests that
// sweep seeds to explore asynchronous schedules, and for the latency
// benches with WAN profiles.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "runtime/env.h"
#include "runtime/latency_model.h"
#include "runtime/task.h"

namespace wrs {

class SimEnv : public Env {
 public:
  /// The simulator owns the latency model (shared so benches can retain a
  /// handle, e.g. to degrade a replica mid-run).
  SimEnv(std::shared_ptr<LatencyModel> latency, std::uint64_t seed);

  // --- Env interface -----------------------------------------------------
  TimeNs now() const override { return now_; }
  void send(ProcessId from, ProcessId to, MsgPtr msg) override;
  void schedule(ProcessId pid, TimeNs delay, Task fn) override;
  void register_process(ProcessId pid, Process* process) override;
  void crash(ProcessId pid) override;
  bool is_crashed(ProcessId pid) const override;
  // Fault verdicts draw from the simulator's seeded rng, so an entire
  // chaos episode (including bounded reordering) replays bit-for-bit
  // from the seed.

  // --- Simulation control -------------------------------------------------
  /// Delivers `on_start` to all registered processes (idempotent).
  void start();

  /// Runs events until the queue drains or `deadline` passes.
  /// Returns the number of events executed.
  std::size_t run_until(TimeNs deadline);

  /// Runs until `pred()` turns true (checked after each event) or the
  /// queue drains or `deadline` passes. Returns true iff pred held.
  bool run_until_pred(const std::function<bool()>& pred, TimeNs deadline);

  /// Runs everything (asserts the protocol quiesces). Returns event count.
  std::size_t run_to_quiescence(TimeNs deadline = seconds(3600));

  /// Executes one pending event; false if queue empty.
  bool step();

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }

  Rng& rng() { return rng_; }
  LatencyModel& latency_model() { return *latency_; }

  /// Extra adversarial knob: delays every message involving `pid` until
  /// `release_holds(pid)` — models an arbitrarily slow link without
  /// violating reliability.
  void hold_messages(ProcessId pid);
  void release_holds(ProcessId pid);

 private:
  void route(Envelope env, TimeNs extra_delay);
  void deliver(Envelope env, TimeNs extra_delay = 0);

  std::shared_ptr<LatencyModel> latency_;
  Rng rng_;
  TimeNs now_ = 0;
  bool started_ = false;
  /// Pending events by (time, push order); the tag is the pid whose
  /// execution context runs the event (kNoProcess for env-internal).
  TaskHeap queue_;
  /// Sorted by pid: start() walks it in pid order.
  FlatMap<ProcessId, Process*> processes_;
  std::set<ProcessId> crashed_;
  std::set<ProcessId> held_;
  /// Buffered (envelope, reorder-extra) — the extra delay drawn at send
  /// time survives the hold and applies at release.
  std::map<ProcessId, std::vector<std::pair<Envelope, TimeNs>>>
      held_messages_;
};

}  // namespace wrs
