#include "baselines/paxos_reassign.h"

#include <sstream>

namespace wrs {

PaxosReassignNode::PaxosReassignNode(Env& env, ProcessId self,
                                     const SystemConfig& config,
                                     std::uint64_t seed)
    : env_(env),
      self_(self),
      config_(config),
      weights_(config.initial_weights),
      paxos_(
          env, self, config.servers(), config.f,
          [this](InstanceId i, const PaxosValue& v) { on_decide(i, v); },
          seed) {}

std::string PaxosReassignNode::encode(ProcessId issuer, std::uint64_t serial,
                                      ProcessId src, ProcessId dst,
                                      const Weight& delta) {
  std::ostringstream os;
  os << issuer << ":" << serial << ":" << src << ":" << dst << ":"
     << delta.num() << "/" << delta.den();
  return os.str();
}

void PaxosReassignNode::transfer(ProcessId dst, const Weight& delta,
                                 TransferCallback cb) {
  PendingSubmit p;
  p.encoded = encode(self_, serial_++, self_, dst, delta);
  p.cb = std::move(cb);
  queue_.push_back(std::move(p));
  propose_pending();
}

void PaxosReassignNode::propose_pending() {
  if (proposing_ || queue_.empty()) return;
  proposing_ = true;
  paxos_.propose(next_propose_, queue_.front().encoded);
}

void PaxosReassignNode::on_decide(InstanceId instance,
                                  const PaxosValue& value) {
  decided_log_[instance] = value;
  if (instance >= next_propose_) next_propose_ = instance + 1;
  try_apply();
  // If our front submission was NOT the decided value, re-propose it at
  // the next free instance.
  if (proposing_ && !queue_.empty()) {
    if (value == queue_.front().encoded) {
      // Applied (or will be in try_apply); completion handled there.
    } else {
      proposing_ = false;
      propose_pending();
    }
  }
}

void PaxosReassignNode::try_apply() {
  while (true) {
    auto it = decided_log_.find(next_apply_);
    if (it == decided_log_.end()) return;
    const PaxosValue& v = it->second;

    // Decode issuer:serial:src:dst:num/den.
    std::istringstream is(v);
    std::uint64_t issuer = 0, serial = 0, src = 0, dst = 0;
    std::int64_t num = 0, den = 1;
    char sep = 0;
    is >> issuer >> sep >> serial >> sep >> src >> sep >> dst >> sep >> num >>
        sep >> den;
    Weight delta(num, den);

    // Deterministic validation: apply iff the source stays above the
    // floor (all replicas reach the same verdict in instance order).
    bool effective = false;
    Weight src_w = weights_.of(static_cast<ProcessId>(src));
    if (delta.is_positive() && src_w - delta > config_.floor()) {
      weights_.set(static_cast<ProcessId>(src), src_w - delta);
      weights_.set(static_cast<ProcessId>(dst),
                   weights_.of(static_cast<ProcessId>(dst)) + delta);
      effective = true;
    }

    // Completion for our own submission.
    if (!queue_.empty() && v == queue_.front().encoded) {
      PaxosTransferOutcome out;
      out.effective = effective;
      out.instance = next_apply_;
      auto cb = std::move(queue_.front().cb);
      queue_.pop_front();
      proposing_ = false;
      cb(out);
      propose_pending();
    }
    ++next_apply_;
  }
}

void PaxosReassignNode::on_message(ProcessId from, const Message& msg) {
  paxos_.handle(from, msg);
}

}  // namespace wrs
