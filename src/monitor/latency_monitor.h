// Per-server latency estimation — the "monitoring system" the paper
// assumes as input to weight reassignment decisions ([9]-[11]).
//
// Exponentially weighted moving averages of observed round-trip times,
// one per server. Deliberately simple: the paper treats monitoring as an
// oracle; what matters here is the *interface* the reassignment policy
// consumes.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/types.h"

namespace wrs {

class LatencyMonitor {
 public:
  explicit LatencyMonitor(double alpha = 0.2) : alpha_(alpha) {}

  void add_sample(ProcessId server, TimeNs rtt) {
    auto it = ewma_.find(server);
    if (it == ewma_.end()) {
      ewma_[server] = static_cast<double>(rtt);
    } else {
      it->second = alpha_ * static_cast<double>(rtt) +
                   (1.0 - alpha_) * it->second;
    }
  }

  std::optional<double> estimate(ProcessId server) const {
    auto it = ewma_.find(server);
    if (it == ewma_.end()) return std::nullopt;
    return it->second;
  }

  bool has_estimates_for_all(const std::vector<ProcessId>& servers) const {
    return std::all_of(servers.begin(), servers.end(), [this](ProcessId s) {
      return ewma_.count(s) != 0;
    });
  }

  /// Fastest server by current estimate (nullopt when no samples yet).
  std::optional<ProcessId> fastest() const {
    std::optional<ProcessId> best;
    double best_v = 0;
    for (const auto& [s, v] : ewma_) {
      if (!best.has_value() || v < best_v) {
        best = s;
        best_v = v;
      }
    }
    return best;
  }

  const std::map<ProcessId, double>& estimates() const { return ewma_; }

 private:
  double alpha_;
  std::map<ProcessId, double> ewma_;
};

}  // namespace wrs
