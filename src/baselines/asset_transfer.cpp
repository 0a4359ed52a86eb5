#include "baselines/asset_transfer.h"

#include <stdexcept>
#include "runtime/msg_pool.h"

namespace wrs {

AssetTransferNode::AssetTransferNode(Env& env, ProcessId self,
                                     const SystemConfig& config)
    : env_(env),
      self_(self),
      config_(config),
      rb_(env, self,
          [this](ProcessId, const Message& payload) {
            const auto* m = msg_cast<AssetMsg>(payload);
            if (m != nullptr) apply(m->rec());
          },
          config.servers()) {
  // Initial balances mirror the initial weights (so EXP-X1 runs the same
  // workload on both services).
  for (const auto& [s, w] : config.initial_weights.entries()) {
    balances_[s] = w;
  }
}

Weight AssetTransferNode::balance_of(ProcessId account) const {
  auto it = balances_.find(account);
  return it == balances_.end() ? Weight(0) : it->second;
}

Weight AssetTransferNode::total() const {
  Weight sum(0);
  for (const auto& [_, b] : balances_) sum += b;
  return sum;
}

void AssetTransferNode::transfer(ProcessId dst, const Weight& amount,
                                 Callback cb) {
  if (pending_.has_value()) {
    throw std::logic_error("AssetTransferNode: transfer already in flight");
  }
  if (!amount.is_positive()) {
    throw std::invalid_argument("AssetTransferNode: amount must be > 0");
  }
  std::uint64_t serial = next_serial_++;
  // 1-asset-transfer validity: the balance may reach exactly zero —
  // contrast with the strict floor of RP-Integrity.
  if (balance() - amount < Weight(0)) {
    AssetOutcome out;
    out.accepted = false;
    out.serial = serial;
    cb(out);
    return;
  }
  AssetTransferRecord rec;
  rec.src = self_;
  rec.dst = dst;
  rec.serial = serial;
  rec.amount = amount;
  apply(rec);  // local apply; RB will dedup our own delivery
  Pending p;
  p.serial = serial;
  p.cb = std::move(cb);
  pending_ = std::move(p);
  rb_.broadcast(make_msg<AssetMsg>(rec));
}

void AssetTransferNode::apply(const AssetTransferRecord& rec) {
  auto key = std::make_pair(rec.src, rec.serial);
  if (!applied_.insert(key).second) return;
  balances_[rec.src] -= rec.amount;
  balances_[rec.dst] += rec.amount;
  if (rec.src != self_) {
    env_.send(self_, rec.src, make_msg<AssetAck>(rec.src,
                                                         rec.serial));
  }
}

void AssetTransferNode::on_message(ProcessId from, const Message& msg) {
  if (rb_.handle(from, msg)) return;
  if (const auto* ack = msg_cast<AssetAck>(msg)) {
    if (pending_.has_value() && pending_->serial == ack->serial() &&
        from != self_) {
      pending_->acks.insert(from);
      if (pending_->acks.size() >= config_.n - config_.f - 1) {
        AssetOutcome out;
        out.accepted = true;
        out.serial = pending_->serial;
        auto cb = std::move(pending_->cb);
        pending_.reset();
        cb(out);
      }
    }
    return;
  }
}

}  // namespace wrs
