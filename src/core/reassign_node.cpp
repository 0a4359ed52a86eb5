#include "core/reassign_node.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "common/logging.h"
#include "runtime/msg_pool.h"

namespace wrs {

ReassignNode::ReassignNode(Env& env, ProcessId self,
                           const SystemConfig& config)
    : env_(env),
      self_(self),
      config_(config),
      servers_(config.servers()),
      floor_(config.floor()),
      changes_(ChangeSet::initial(config.initial_weights)),
      rb_(env, self,
          [this](ProcessId origin, const Message& payload) {
            on_rb_deliver(origin, payload);
          },
          config.servers()),
      read_engine_(env, self, config),
      refresh_hook_([](std::function<void()> done) { done(); }) {
  // The paper's model assumes RP-Integrity at t=0. Starting below the
  // floor voids Lemma 1 (the floor would no longer imply Property 1
  // after transfers), so flag it loudly; deployments that never transfer
  // (static WMQS baselines reusing this node) may ignore the warning.
  if (!config_.satisfies_rp_floor()) {
    WRS_WARN("ReassignNode " << process_name(self)
                             << ": initial weights violate the RP-Integrity "
                                "floor "
                             << floor_.str()
                             << "; transfers may not preserve Property 1");
  }
}

void ReassignNode::transfer(ProcessId to, const Weight& delta,
                            TransferCallback cb) {
  if (pending_transfer_.has_value()) {
    throw std::logic_error(
        "ReassignNode: processes are sequential — previous transfer still "
        "in flight");
  }
  if (!(delta.is_positive())) {
    throw std::invalid_argument("ReassignNode::transfer: delta must be > 0");
  }
  if (to == self_ || to < config_.base || to >= config_.base + config_.n) {
    throw std::invalid_argument(
        "ReassignNode::transfer: destination " + process_name(to) +
        " outside this group's server range [" +
        std::to_string(config_.base) + ", " +
        std::to_string(config_.base + config_.n) + ")");
  }

  std::uint64_t counter = lc_++;
  // Algorithm 4 line 12: C2 — remain strictly above the floor.
  if (weight() > delta + floor_) {
    Change neg(self_, counter, self_, -delta);
    Change pos(self_, counter, to, delta);
    changes_.add(neg);
    changes_.add(pos);
    PendingTransfer p;
    p.counter = counter;
    p.neg = neg;
    p.cb = std::move(cb);
    pending_transfer_ = std::move(p);
    rb_.broadcast(make_msg<TransferMsg>(neg, pos, config_.shard));
    // Completion once n-f-1 other servers acked (line 15). With n-f-1 == 0
    // (n = f+1 is excluded by SystemConfig, so this cannot happen) the
    // transfer would complete immediately.
    if (config_.n - config_.f - 1 == 0) complete_transfer();
  } else {
    // Null transfer: <Complete, <s, lc, s, 0>> with nothing stored.
    TransferOutcome out;
    out.effective = false;
    out.completion_change = Change(self_, counter, self_, Weight(0));
    cb(out);
  }
}

void ReassignNode::read_changes(ProcessId target, ReadChangesCallback cb) {
  read_engine_.start(target, std::move(cb));
}

void ReassignNode::on_message(ProcessId from, const Message& msg) {
  if (!handle(from, msg)) {
    WRS_DEBUG("ReassignNode " << process_name(self_)
                              << ": unhandled message " << msg.type_name());
  }
}

bool ReassignNode::handle(ProcessId from, const Message& msg) {
  // Reliable-broadcast traffic (T messages travel inside).
  if (rb_.handle(from, msg)) return true;
  // Our own read_changes invocations.
  if (read_engine_.handle(from, msg)) return true;

  if (const auto* rc = msg_cast<RcReq>(msg)) {
    if (misrouted(rc->shard())) return true;
    // Algorithm 3 line 12-13: reply with the changes stored for target.
    env_.send(self_, from,
              make_msg<RcAck>(rc->op_id(),
                                      changes_.subset_for(rc->target())));
    return true;
  }
  if (const auto* wc = msg_cast<WcReq>(msg)) {
    if (misrouted(wc->shard())) return true;
    // Algorithm 3 line 14-15: store, then acknowledge.
    std::uint64_t op_id = wc->op_id();
    write_changes(wc->changes(), [this, from, op_id] {
      env_.send(self_, from, make_msg<WcAck>(op_id));
    });
    return true;
  }
  if (const auto* sync = msg_cast<SyncMsg>(msg)) {
    if (misrouted(sync->shard())) return true;
    std::optional<std::uint64_t> pending = sync->pending_counter();
    write_changes(sync->changes(), [this, from, pending] {
      // Re-ack the sender's in-flight pair even when it was acked before:
      // the original T_Ack may have been dropped by the fault plane.
      // Duplicate T_Acks collapse in the issuer's ack set.
      if (pending.has_value() && from != self_ &&
          changes_.count_pair(from, *pending) >= 2) {
        env_.send(self_, from,
                  make_msg<TAck>(*pending, config_.shard));
      }
    });
    return true;
  }
  if (const auto* ack = msg_cast<TAck>(msg)) {
    if (misrouted(ack->shard())) return true;
    if (pending_transfer_.has_value() &&
        pending_transfer_->counter == ack->counter() && from != self_) {
      pending_transfer_->acks.insert(from);
      if (pending_transfer_->acks.size() >= config_.n - config_.f - 1) {
        complete_transfer();
      }
    }
    return true;
  }
  return false;
}

void ReassignNode::enable_sync(TimeNs period) {
  sync_period_ = period;
  ++sync_epoch_;  // cancel any round scheduled under the old setting
  if (sync_period_ > 0) schedule_sync();
}

void ReassignNode::schedule_sync() {
  std::uint64_t epoch = sync_epoch_;
  env_.schedule(self_, sync_period_, [this, epoch] {
    if (epoch != sync_epoch_ || sync_period_ <= 0) return;
    std::optional<std::uint64_t> pending;
    if (pending_transfer_.has_value()) pending = pending_transfer_->counter;
    env_.broadcast_to_group(
        self_, servers_,
        make_msg<SyncMsg>(changes_, pending, config_.shard));
    schedule_sync();
  });
}

void ReassignNode::complete_transfer() {
  assert(pending_transfer_.has_value());
  TransferOutcome out;
  out.effective = true;
  out.completion_change = pending_transfer_->neg;
  auto cb = std::move(pending_transfer_->cb);
  pending_transfer_.reset();
  cb(out);
}

void ReassignNode::on_rb_deliver(ProcessId /*origin*/,
                                 const Message& payload) {
  const auto* t = msg_cast<TransferMsg>(payload);
  if (t == nullptr) {
    WRS_WARN("ReassignNode " << process_name(self_)
                             << ": unexpected RB payload "
                             << payload.type_name());
    return;
  }
  if (misrouted(t->shard())) return;
  ChangeSet pair;
  pair.add(t->neg());
  pair.add(t->pos());
  write_changes(pair, [] {});
}

void ReassignNode::write_changes(const ChangeSet& incoming,
                                 std::function<void()> done) {
  std::vector<Change> missing = changes_.missing_from(incoming);
  // Algorithm 4 lines 8-9: refresh the local register (via the hook)
  // before a gain becomes visible. Both halves of a pair carrying a gain
  // for this node wait for the refresh and then apply together, and all
  // of this call's such pairs share one refresh (safety argument in the
  // header). A half whose pair already waits on an earlier refresh joins
  // that batch.
  auto fresh = std::make_shared<HeldBatch>();
  for (const Change& c : missing) {
    if (c.target() == self_ && c.issuer() != self_ && c.delta.is_positive()) {
      held_.try_emplace(PairId{c.issuer(), c.counter()}, fresh);
    }
  }
  std::vector<std::shared_ptr<HeldBatch>> waits;
  for (const Change& c : missing) {
    auto it = held_.find(PairId{c.issuer(), c.counter()});
    if (it == held_.end()) {
      apply_change(c);
      continue;
    }
    std::vector<Change>& batch = it->second->changes;
    if (std::find(batch.begin(), batch.end(), c) == batch.end()) {
      batch.push_back(c);
    }
    if (std::find(waits.begin(), waits.end(), it->second) == waits.end()) {
      waits.push_back(it->second);
    }
  }
  if (waits.empty()) {
    done();
    return;
  }
  auto remaining = std::make_shared<std::size_t>(waits.size());
  auto all_done = std::make_shared<std::function<void()>>(std::move(done));
  for (const std::shared_ptr<HeldBatch>& batch : waits) {
    batch->waiters.push_back([remaining, all_done] {
      if (--*remaining == 0) (*all_done)();
    });
  }
  if (fresh->changes.empty()) return;  // everything waits on earlier ones
  refresh_hook_([this, fresh] {
    for (const Change& c : fresh->changes) {
      held_.erase(PairId{c.issuer(), c.counter()});
    }
    for (const Change& c : fresh->changes) apply_change(c);
    for (const std::function<void()>& waiter : fresh->waiters) waiter();
  });
}

void ReassignNode::apply_change(const Change& c) {
  if (!changes_.add(c)) return;  // lost a race with another path
  maybe_ack_issuer(c.issuer(), c.counter());
}

void ReassignNode::maybe_ack_issuer(ProcessId issuer, std::uint64_t counter) {
  if (issuer == self_) return;  // the issuer does not ack itself
  if (counter == kInitialChangeCounter) return;  // initial changes
  // Called only after an add that grew the set, and a pair's count
  // reaches 2 at exactly one add: each pair is acked once.
  if (changes_.count_pair(issuer, counter) < 2) return;  // wait for pair
  env_.send(self_, issuer, make_msg<TAck>(counter, config_.shard));
}

}  // namespace wrs
