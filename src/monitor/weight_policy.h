// Decentralized weight policy in the WHEAT/AWARE spirit, constrained to
// the restricted pairwise problem:
//
//  * C1 — a server only ever moves its OWN weight, so the policy runs at
//    each server and may only propose outgoing transfers;
//  * C2 — proposals keep the server's weight strictly above the floor.
//
// Rule: if this server's RTT estimate is at least `slow_factor` times the
// current fastest server's estimate, donate to that fastest server, in
// one transfer, the largest multiple of `step` that C2 allows: the donor
// ends in (floor, floor + step], where a walk of single-step donations
// would stop, without the transfers in between. Like WHEAT and AWARE,
// which compute target weights instead of stepping toward them, fast
// servers gain voting power and slow ones drop to the floor at once —
// the adaptation mechanism the paper motivates with geo-replication.
#pragma once

#include <optional>

#include "common/rational.h"
#include "common/types.h"
#include "monitor/latency_monitor.h"

namespace wrs {

struct PolicyDecision {
  ProcessId dst = kNoProcess;
  Weight delta;
};

class WeightPolicy {
 public:
  WeightPolicy(Weight step, double slow_factor = 1.3)
      : step_(std::move(step)), slow_factor_(slow_factor) {}

  /// `self_weight` per the server's local change set; `floor` is
  /// W_{S,0}/(2(n-f)); `latency_by_server` is perceived latency per
  /// server (e.g. gossip medians from AdaptiveNode, or a single node's
  /// LatencyMonitor estimates in tests).
  std::optional<PolicyDecision> decide(
      ProcessId self, const Weight& self_weight, const Weight& floor,
      const std::map<ProcessId, double>& latency_by_server) const {
    auto mine_it = latency_by_server.find(self);
    if (mine_it == latency_by_server.end()) return std::nullopt;
    std::optional<ProcessId> fastest;
    double best = 0;
    for (const auto& [s, v] : latency_by_server) {
      if (!fastest.has_value() || v < best) {
        fastest = s;
        best = v;
      }
    }
    if (!fastest.has_value() || *fastest == self) return std::nullopt;
    if (mine_it->second < slow_factor_ * best) return std::nullopt;
    // C2 with margin: keep strictly above floor after donating one step.
    if (!(self_weight > step_ + floor)) return std::nullopt;
    // Donate the largest k * step that still does, i.e. the largest
    // integer k < room = (self - floor) / step; room > 1 here.
    const Weight room = (self_weight - floor) / step_;
    PolicyDecision d;
    d.dst = *fastest;
    d.delta = step_ * ((room.num() - 1) / room.den());
    return d;
  }

  /// Convenience overload over a LatencyMonitor.
  std::optional<PolicyDecision> decide(ProcessId self,
                                       const Weight& self_weight,
                                       const Weight& floor,
                                       const LatencyMonitor& monitor) const {
    return decide(self, self_weight, floor, monitor.estimates());
  }

  const Weight& step() const { return step_; }

 private:
  Weight step_;
  double slow_factor_;
};

}  // namespace wrs
