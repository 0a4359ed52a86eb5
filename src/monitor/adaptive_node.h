// AdaptiveNode: a DynamicStorageNode plus the monitoring/adaptation loop.
//
//   * every `probe_interval` the node pings all other servers, records
//     RTTs, and gossips its RTT vector to the other servers;
//   * from the gossiped vectors each node derives a *perceived latency*
//     per server k: the median of RTT_i[k] over reporters i != k. This
//     makes "server 4 is slow" visible to server 4 itself (its own pings
//     cannot distinguish "I am slow" from "everyone else is slow");
//   * every `eval_interval` the node consults the WeightPolicy and, when
//     the policy says so, invokes transfer(fastest, step) on the embedded
//     ReassignNode. A tick that finds the node's own transfer still in
//     flight is kept, not dropped: the policy runs once more as soon as
//     that transfer completes. So one transfer is in flight at a time,
//     and the policy never runs more often than the timer ticks.
//
// This closes the loop the paper sketches: monitoring system -> weight
// reassignment -> dynamic-weighted quorums. Per C1, a node only ever
// moves its own weight.
#pragma once

#include <map>
#include <memory>

#include "monitor/latency_monitor.h"
#include "monitor/weight_policy.h"
#include "runtime/msg_pool.h"
#include "storage/dynamic_node.h"

namespace wrs {

/// Probe messages.
class PingMsg : public MessageBase<PingMsg> {
 public:
  explicit PingMsg(TimeNs sent_at) : sent_at_(sent_at) {}
  TimeNs sent_at() const { return sent_at_; }
  std::string type_name() const override { return "PING"; }

 private:
  TimeNs sent_at_;
};

class PongMsg : public MessageBase<PongMsg> {
 public:
  explicit PongMsg(TimeNs sent_at) : sent_at_(sent_at) {}
  TimeNs sent_at() const { return sent_at_; }
  std::string type_name() const override { return "PONG"; }

 private:
  TimeNs sent_at_;
};

/// Gossiped RTT vector: the reporter's EWMA estimate per server.
class RttReportMsg : public MessageBase<RttReportMsg> {
 public:
  explicit RttReportMsg(std::map<ProcessId, double> rtts)
      : rtts_(std::move(rtts)) {}
  const std::map<ProcessId, double>& rtts() const { return rtts_; }
  std::string type_name() const override { return "RTT_REPORT"; }

 private:
  std::map<ProcessId, double> rtts_;
};

struct AdaptiveParams {
  TimeNs probe_interval = ms(50);
  /// Period of the policy timer. A tick that meets a transfer in flight
  /// runs the policy when that transfer completes instead.
  TimeNs eval_interval = ms(200);
  Weight step = Weight(1, 10);
  double slow_factor = 1.3;
  /// Adaptation can be disabled to build a "static WMQS" control group
  /// that still answers pings.
  bool adaptation_enabled = true;
};

class AdaptiveNode : public Process {
 public:
  AdaptiveNode(Env& env, ProcessId self, const SystemConfig& config,
               AdaptiveParams params)
      : env_(env),
        self_(self),
        config_(config),
        servers_(config.servers()),
        params_(std::move(params)),
        node_(env, self, config),
        policy_(params_.step, params_.slow_factor) {}

  DynamicStorageNode& storage() { return node_; }
  ReassignNode& reassign() { return node_.reassign(); }
  const LatencyMonitor& monitor() const { return monitor_; }
  std::uint64_t transfers_issued() const { return transfers_issued_; }

  /// Perceived latency of server k: median of the gossiped RTT_i[k] over
  /// reporters i != k (plus our own measurement). Empty until reports
  /// arrive.
  std::map<ProcessId, double> perceived_latencies() const {
    std::map<ProcessId, double> out;
    for (ProcessId k : config_.servers()) {
      std::vector<double> obs;
      for (const auto& [reporter, rtts] : reports_) {
        if (reporter == k) continue;
        auto it = rtts.find(k);
        if (it != rtts.end()) obs.push_back(it->second);
      }
      if (obs.empty()) continue;
      std::sort(obs.begin(), obs.end());
      out[k] = obs[obs.size() / 2];
    }
    return out;
  }

  void on_start() override {
    env_.schedule(self_, params_.probe_interval, [this] { probe(); });
    env_.schedule(self_, params_.eval_interval, [this] { evaluate(); });
  }

  void on_message(ProcessId from, const Message& msg) override {
    if (const auto* ping = msg_cast<PingMsg>(msg)) {
      env_.send(self_, from, make_msg<PongMsg>(ping->sent_at()));
      return;
    }
    if (const auto* pong = msg_cast<PongMsg>(msg)) {
      monitor_.add_sample(from, env_.now() - pong->sent_at());
      return;
    }
    if (const auto* report = msg_cast<RttReportMsg>(msg)) {
      reports_[from] = report->rtts();
      return;
    }
    node_.handle(from, msg);
  }

 private:
  void probe() {
    for (ProcessId s : servers_) {
      if (s == self_) continue;
      env_.send(self_, s, make_msg<PingMsg>(env_.now()));
    }
    // Gossip what we currently believe (our EWMA vector).
    if (!monitor_.estimates().empty()) {
      auto snapshot = monitor_.estimates();
      reports_[self_] = snapshot;  // include ourselves as a reporter
      env_.broadcast_to_group(
          self_, servers_,
          make_msg<RttReportMsg>(std::move(snapshot)));
    }
    env_.schedule(self_, params_.probe_interval, [this] { probe(); });
  }

  void evaluate() {
    env_.schedule(self_, params_.eval_interval, [this] { evaluate(); });
    if (!params_.adaptation_enabled) return;
    // A tick that meets a transfer in flight is kept for that transfer's
    // completion; a later tick that finds none (the transfer was issued
    // through the ReassignNode directly) takes its place.
    tick_missed_ = node_.reassign().transfer_in_flight();
    if (!tick_missed_) adapt();
  }

  /// One policy decision. The completion callback runs after the
  /// ReassignNode cleared its pending transfer, so a missed tick can issue
  /// the next transfer right there.
  void adapt() {
    auto decision = policy_.decide(self_, node_.reassign().weight(),
                                   config_.floor(), perceived_latencies());
    if (!decision.has_value()) return;
    ++transfers_issued_;
    node_.reassign().transfer(decision->dst, decision->delta,
                              [this](const TransferOutcome&) {
                                if (!tick_missed_) return;
                                tick_missed_ = false;
                                adapt();
                              });
  }

  Env& env_;
  ProcessId self_;
  SystemConfig config_;
  std::vector<ProcessId> servers_;  // cached group for probe broadcasts
  AdaptiveParams params_;
  DynamicStorageNode node_;
  LatencyMonitor monitor_;
  WeightPolicy policy_;
  std::map<ProcessId, std::map<ProcessId, double>> reports_;
  std::uint64_t transfers_issued_ = 0;
  bool tick_missed_ = false;  // a tick met a transfer in flight
};

}  // namespace wrs
