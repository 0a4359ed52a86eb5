#include "baselines/epoch_reassign.h"

#include <algorithm>
#include "runtime/msg_pool.h"

namespace wrs {

EpochReassignNode::EpochReassignNode(Env& env, ProcessId self,
                                     const SystemConfig& config,
                                     TimeNs epoch_length)
    : env_(env),
      self_(self),
      config_(config),
      epoch_length_(epoch_length),
      weights_(config.initial_weights),
      rb_(env, self,
          [this](ProcessId, const Message& payload) {
            const auto* m = msg_cast<EpochReqMsg>(payload);
            if (m == nullptr) return;
            pending_[m->req().epoch].push_back(m->req());
          },
          config.servers()) {}

void EpochReassignNode::on_start() {
  env_.schedule(self_, epoch_length_, [this] { on_epoch_boundary(); });
}

void EpochReassignNode::on_message(ProcessId from, const Message& msg) {
  rb_.handle(from, msg);
}

void EpochReassignNode::request_transfer(ProcessId dst, const Weight& delta) {
  EpochRequest req;
  req.epoch = epoch_;
  req.issuer = self_;
  req.src = self_;
  req.dst = dst;
  req.delta = delta;
  req.issued_at = env_.now();
  rb_.broadcast(make_msg<EpochReqMsg>(req));
}

void EpochReassignNode::on_epoch_boundary() {
  std::uint64_t closing = epoch_;
  ++epoch_;
  // Small settle delay before applying, so late RB deliveries for the
  // closing epoch are included (models [11]'s quorum-collect step).
  env_.schedule(self_, epoch_length_ / 10,
                [this, closing] { apply_epoch(closing); });
  env_.schedule(self_, epoch_length_, [this] { on_epoch_boundary(); });
}

void EpochReassignNode::apply_epoch(std::uint64_t closing_epoch) {
  auto it = pending_.find(closing_epoch);
  if (it == pending_.end()) return;
  std::vector<EpochRequest> batch = std::move(it->second);
  pending_.erase(it);
  std::sort(batch.begin(), batch.end());

  // Count competing increases per epoch: more than one distinct
  // destination ==> all increases dropped (no consensus to order them).
  std::map<ProcessId, int> dst_count;
  for (const auto& req : batch) dst_count[req.dst]++;
  bool competing = dst_count.size() > 1;

  TimeNs now = env_.now();
  for (const auto& req : batch) {
    // Decrease side always applies (cannot endanger Integrity).
    Weight decrease = req.delta;
    Weight src_w = weights_.of(req.src);
    if (!(src_w - decrease > config_.floor())) {
      // Clamp to keep the source above the floor.
      decrease = src_w - config_.floor();
      if (decrease.is_negative() || decrease.is_zero()) {
        if (applied_cb_) applied_cb_(req, Weight(0), now);
        continue;
      }
    }
    weights_.set(req.src, src_w - decrease);
    if (competing) {
      // Increase dropped: voting power leaks out of the system.
      ++dropped_increases_;
      if (applied_cb_) applied_cb_(req, Weight(0), now);
    } else {
      weights_.set(req.dst, weights_.of(req.dst) + decrease);
      if (applied_cb_) applied_cb_(req, decrease, now);
    }
  }
}

}  // namespace wrs
