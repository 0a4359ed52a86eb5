// Epoch-based consensus-free weight reassignment — a model of the
// protocol of Heydari et al. [11] ("Efficient consensus-free weight
// reassignment for atomic storage", NCA 2021), built as the comparison
// baseline for EXP-E1.
//
// Modeled behaviour (as characterized in Section VIII of the paper):
//  * Requests issued during epoch e are BATCHED and take effect only at
//    the boundary of epoch e+1 — application delay is dominated by the
//    epoch length, which must be tuned.
//  * Weight DECREASES always apply. Weight INCREASES are applied only
//    when no other server's increase competes in the same epoch —
//    without consensus the servers cannot agree which of two competing
//    increases is safe, so the protocol conservatively drops both. Every
//    dropped increase leaks voting power: the total weight of the system
//    decays below W_{S,0} as the system progresses (the criticism quoted
//    in Section VIII).
//
// This is explicitly a *model* capturing the two properties the paper
// compares against, not a re-implementation of [11]'s full protocol.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "broadcast/reliable_broadcast.h"
#include "core/config.h"
#include "runtime/env.h"

namespace wrs {

/// A pairwise reassignment request: move `delta` from `src` to `dst`.
struct EpochRequest {
  std::uint64_t epoch = 0;
  ProcessId issuer = kNoProcess;
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  Weight delta;
  TimeNs issued_at = 0;

  friend bool operator<(const EpochRequest& a, const EpochRequest& b) {
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    if (a.issuer != b.issuer) return a.issuer < b.issuer;
    return a.src < b.src;
  }
};

class EpochReqMsg : public MessageBase<EpochReqMsg> {
 public:
  explicit EpochReqMsg(EpochRequest req) : req_(std::move(req)) {}
  const EpochRequest& req() const { return req_; }
  std::string type_name() const override { return "EPOCH_REQ"; }

 private:
  EpochRequest req_;
};

class EpochReassignNode : public Process {
 public:
  /// `applied_cb(request, applied_delta, now)` fires when this node
  /// applies a request at an epoch boundary (applied_delta may be zero on
  /// the increase side when the increase was dropped).
  using AppliedCallback =
      std::function<void(const EpochRequest&, const Weight&, TimeNs)>;

  EpochReassignNode(Env& env, ProcessId self, const SystemConfig& config,
                    TimeNs epoch_length);

  void on_start() override;
  void on_message(ProcessId from, const Message& msg) override;

  /// Requests moving `delta` of this node's weight to `dst`; takes effect
  /// at the next epoch boundary (at the earliest).
  void request_transfer(ProcessId dst, const Weight& delta);

  void set_applied_callback(AppliedCallback cb) { applied_cb_ = std::move(cb); }

  const WeightMap& weights() const { return weights_; }
  Weight total_weight() const { return weights_.total(); }
  std::uint64_t dropped_increases() const { return dropped_increases_; }

 private:
  void on_epoch_boundary();
  void apply_epoch(std::uint64_t closing_epoch);

  Env& env_;
  ProcessId self_;
  SystemConfig config_;
  TimeNs epoch_length_;
  std::uint64_t epoch_ = 0;
  WeightMap weights_;
  ReliableBroadcast rb_;
  std::map<std::uint64_t, std::vector<EpochRequest>> pending_;  // by epoch
  AppliedCallback applied_cb_;
  std::uint64_t dropped_increases_ = 0;
};

}  // namespace wrs
