#include "runtime/sim_env.h"

#include <cassert>
#include <stdexcept>

#include "common/logging.h"
#include "net/wire_codec.h"

namespace wrs {

SimEnv::SimEnv(std::shared_ptr<LatencyModel> latency, std::uint64_t seed)
    : latency_(std::move(latency)), rng_(seed) {
  if (!latency_) throw std::invalid_argument("SimEnv: null latency model");
}

void SimEnv::register_process(ProcessId pid, Process* process) {
  if (process == nullptr) {
    throw std::invalid_argument("SimEnv: null process");
  }
  processes_[pid] = process;
  if (started_) {
    queue_.push(now_, pid, [process] { process->on_start(); });
  }
}

void SimEnv::start() {
  if (started_) return;
  started_ = true;
  for (auto& [pid, proc] : processes_) {
    Process* p = proc;
    queue_.push(now_, pid, [p] { p->on_start(); });
  }
}

void SimEnv::send(ProcessId from, ProcessId to, MsgPtr msg) {
  if (!msg) throw std::invalid_argument("SimEnv::send: null message");
  if (crashed_.count(from) != 0) return;  // a crashed process sends nothing
  count_send(from, to, *msg, net::WireCodec::frame_size(*msg));
  Envelope env{from, to, std::move(msg)};
  if (!faults().active()) {
    route(std::move(env), 0);
    return;
  }
  LinkFaults::Decision fate = fault_verdict(from, to, rng_);
  if (!fate.deliver) return;
  if (fate.duplicate) {
    route(Envelope{env.from, env.to, env.msg}, fate.extra_delay);
  }
  route(std::move(env), fate.extra_delay);
}

void SimEnv::route(Envelope env, TimeNs extra_delay) {
  if (held_.count(env.from) != 0 || held_.count(env.to) != 0) {
    ProcessId key = held_.count(env.to) != 0 ? env.to : env.from;
    held_messages_[key].emplace_back(std::move(env), extra_delay);
    return;
  }
  deliver(std::move(env), extra_delay);
}

void SimEnv::deliver(Envelope env, TimeNs extra_delay) {
  TimeNs delay = latency_->sample(env.from, env.to, rng_) + extra_delay;
  ProcessId to = env.to;
  ProcessId from = env.from;
  MsgPtr msg = std::move(env.msg);
  queue_.push(now_ + delay, to, [this, from, to, msg] {
    auto it = processes_.find(to);
    if (it == processes_.end()) return;  // never registered: drop
    it->second->on_message(from, *msg);
  });
}

void SimEnv::schedule(ProcessId pid, TimeNs delay, Task fn) {
  queue_.push(now_ + delay, pid, std::move(fn));
}

void SimEnv::crash(ProcessId pid) {
  crashed_.insert(pid);
  held_messages_.erase(pid);
}

bool SimEnv::is_crashed(ProcessId pid) const {
  return crashed_.count(pid) != 0;
}

void SimEnv::hold_messages(ProcessId pid) { held_.insert(pid); }

void SimEnv::release_holds(ProcessId pid) {
  held_.erase(pid);
  auto it = held_messages_.find(pid);
  if (it == held_messages_.end()) return;
  auto msgs = std::move(it->second);
  held_messages_.erase(it);
  for (auto& [env, extra] : msgs) deliver(std::move(env), extra);
}

bool SimEnv::step() {
  if (queue_.empty()) return false;
  TaskHeap::Entry ev = queue_.pop();
  assert(ev.at >= now_);
  now_ = ev.at;
  // Events addressed to crashed processes are dropped (their captures
  // are released here, with ev); env-internal events (kNoProcess) always
  // run.
  const auto pid = static_cast<ProcessId>(ev.tag);
  if (pid != kNoProcess && crashed_.count(pid) != 0) return true;
  ev.fn();
  return true;
}

std::size_t SimEnv::run_until(TimeNs deadline) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.next_at() <= deadline) {
    step();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

bool SimEnv::run_until_pred(const std::function<bool()>& pred,
                            TimeNs deadline) {
  if (pred()) return true;
  while (!queue_.empty() && queue_.next_at() <= deadline) {
    step();
    if (pred()) return true;
  }
  return pred();
}

std::size_t SimEnv::run_to_quiescence(TimeNs deadline) {
  std::size_t executed = 0;
  while (!queue_.empty()) {
    if (queue_.next_at() > deadline) {
      WRS_WARN("SimEnv: deadline reached with " << queue_.size()
                                                << " events pending");
      break;
    }
    step();
    ++executed;
  }
  return executed;
}

}  // namespace wrs
