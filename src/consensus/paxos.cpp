#include "consensus/paxos.h"

#include <memory>

#include "common/logging.h"
#include "consensus/paxos_messages.h"
#include "runtime/msg_pool.h"

namespace wrs {

PaxosNode::PaxosNode(Env& env, ProcessId self, std::uint32_t n,
                     std::uint32_t f, DecideCallback on_decide,
                     std::uint64_t seed)
    : env_(env),
      self_(self),
      n_(n),
      f_(f),
      on_decide_(std::move(on_decide)),
      rng_(seed ^ (std::uint64_t{self} << 32)) {}

std::optional<PaxosValue> PaxosNode::decision(InstanceId instance) const {
  auto it = decisions_.find(instance);
  if (it == decisions_.end()) return std::nullopt;
  return it->second;
}

void PaxosNode::propose(InstanceId instance, PaxosValue value) {
  if (decisions_.count(instance) != 0) return;
  ProposerState& p = proposers_[instance];
  if (p.active) return;  // already proposing; our value is queued by state
  p.active = true;
  p.my_value = std::move(value);
  start_round(instance);
}

void PaxosNode::start_round(InstanceId instance) {
  ProposerState& p = proposers_[instance];
  if (decisions_.count(instance) != 0) return;
  ++p.attempt;
  p.ballot = Ballot{p.attempt, self_};
  p.promises.clear();
  p.accepts.clear();
  p.best_accepted.reset();
  p.best_value.clear();
  p.accept_phase = false;
  env_.broadcast_to_servers(self_,
                            make_msg<PaxPrepare>(instance, p.ballot));
  retry_later(instance);
}

void PaxosNode::retry_later(InstanceId instance) {
  // Randomized exponential backoff; a fresh round only starts if the
  // instance is still undecided and this proposer is still active.
  ProposerState& p = proposers_[instance];
  std::uint64_t attempt = p.attempt;
  TimeNs backoff = kRetryTimeout * static_cast<TimeNs>(1 + p.attempt);
  backoff += static_cast<TimeNs>(rng_.below(
      static_cast<std::uint64_t>(kRetryTimeout)));
  env_.schedule(self_, backoff, [this, instance, attempt] {
    auto it = proposers_.find(instance);
    if (it == proposers_.end() || !it->second.active) return;
    if (decisions_.count(instance) != 0) return;
    if (it->second.attempt != attempt) return;  // a newer round is running
    start_round(instance);
  });
}

void PaxosNode::learn(InstanceId instance, const PaxosValue& value) {
  auto [it, inserted] = decisions_.emplace(instance, value);
  if (!inserted) return;
  auto pit = proposers_.find(instance);
  if (pit != proposers_.end()) pit->second.active = false;
  if (on_decide_) on_decide_(instance, value);
}

bool PaxosNode::handle(ProcessId from, const Message& msg) {
  if (const auto* prep = msg_cast<PaxPrepare>(msg)) {
    AcceptorState& a = acceptors_[prep->instance()];
    bool ok = prep->ballot() > a.promised;
    if (ok) a.promised = prep->ballot();
    env_.send(self_, from,
              make_msg<PaxPromise>(prep->instance(), prep->ballot(),
                                           ok, a.accepted_ballot,
                                           a.accepted_value));
    return true;
  }

  if (const auto* prom = msg_cast<PaxPromise>(msg)) {
    auto it = proposers_.find(prom->instance());
    if (it == proposers_.end()) return true;
    ProposerState& p = it->second;
    if (!p.active || p.accept_phase || !(prom->ballot() == p.ballot)) {
      return true;  // stale
    }
    if (!prom->ok()) return true;  // rejected; backoff timer will retry
    p.promises.insert(from);
    if (prom->accepted_ballot().has_value() &&
        (!p.best_accepted.has_value() ||
         *prom->accepted_ballot() > *p.best_accepted)) {
      p.best_accepted = *prom->accepted_ballot();
      p.best_value = prom->accepted_value();
    }
    if (p.promises.size() >= majority()) {
      p.accept_phase = true;
      const PaxosValue& v =
          p.best_accepted.has_value() ? p.best_value : p.my_value;
      env_.broadcast_to_servers(
          self_, make_msg<PaxAccept>(prom->instance(), p.ballot, v));
    }
    return true;
  }

  if (const auto* acc = msg_cast<PaxAccept>(msg)) {
    AcceptorState& a = acceptors_[acc->instance()];
    bool ok = !(acc->ballot() < a.promised);
    if (ok) {
      a.promised = acc->ballot();
      a.accepted_ballot = acc->ballot();
      a.accepted_value = acc->value();
    }
    env_.send(self_, from,
              make_msg<PaxAccepted>(acc->instance(), acc->ballot(),
                                            ok));
    return true;
  }

  if (const auto* acd = msg_cast<PaxAccepted>(msg)) {
    auto it = proposers_.find(acd->instance());
    if (it == proposers_.end()) return true;
    ProposerState& p = it->second;
    if (!p.active || !p.accept_phase || !(acd->ballot() == p.ballot)) {
      return true;
    }
    if (!acd->ok()) return true;
    p.accepts.insert(from);
    if (p.accepts.size() >= majority()) {
      // Decided: tell everyone (including self via loopback).
      PaxosValue v = p.best_accepted.has_value() ? p.best_value : p.my_value;
      env_.broadcast_to_servers(
          self_, make_msg<PaxLearn>(acd->instance(), v));
    }
    return true;
  }

  if (const auto* learn_msg = msg_cast<PaxLearn>(msg)) {
    learn(learn_msg->instance(), learn_msg->value());
    return true;
  }

  return false;
}

}  // namespace wrs
