// Single-decree Paxos, multi-instance, with colocated proposer/acceptor/
// learner roles on every server.
//
// Role in this repository:
//  * substrate for the consensus-based weight-reassignment baseline
//    (src/baselines/paxos_reassign.*), the kind of protocol the paper's
//    related work (AWARE [10], WHEAT [20]) relies on;
//  * a working referee for "this problem is as hard as consensus": the
//    EXP-C1 bench shows it stalls under the asynchrony/crash schedules
//    the consensus-free protocol shrugs off.
//
// Safety holds under full asynchrony; liveness needs partial synchrony
// (retries use randomized exponential backoff).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/rng.h"
#include "runtime/env.h"

namespace wrs {

/// Ballot = (round, proposer id), ordered lexicographically.
struct Ballot {
  std::uint64_t round = 0;
  ProcessId pid = kNoProcess;
  friend auto operator<=>(const Ballot&, const Ballot&) = default;
};

using PaxosValue = std::string;
using InstanceId = std::uint64_t;

class PaxosNode {
 public:
  using DecideCallback = std::function<void(InstanceId, const PaxosValue&)>;

  /// `on_decide` fires exactly once per instance on every correct node
  /// that learns the decision.
  PaxosNode(Env& env, ProcessId self, std::uint32_t n, std::uint32_t f,
            DecideCallback on_decide, std::uint64_t seed = 7);

  /// Proposes `value` for `instance`. Safe to call on multiple nodes for
  /// the same instance; Paxos decides a single value.
  void propose(InstanceId instance, PaxosValue value);

  /// Routes paxos messages; true iff consumed.
  bool handle(ProcessId from, const Message& msg);

  bool decided(InstanceId instance) const {
    return decisions_.count(instance) != 0;
  }
  std::optional<PaxosValue> decision(InstanceId instance) const;

 private:
  struct AcceptorState {
    Ballot promised;
    std::optional<Ballot> accepted_ballot;
    PaxosValue accepted_value;
  };
  struct ProposerState {
    bool active = false;
    PaxosValue my_value;
    Ballot ballot;
    std::set<ProcessId> promises;
    std::optional<Ballot> best_accepted;
    PaxosValue best_value;
    std::set<ProcessId> accepts;
    bool accept_phase = false;
    std::uint64_t attempt = 0;
  };

  void start_round(InstanceId instance);
  void retry_later(InstanceId instance);
  void learn(InstanceId instance, const PaxosValue& value);
  std::uint32_t majority() const { return n_ / 2 + 1; }

  Env& env_;
  ProcessId self_;
  std::uint32_t n_;
  std::uint32_t f_;
  DecideCallback on_decide_;
  Rng rng_;
  /// Retry backoff base (simulated time).
  static constexpr TimeNs kRetryTimeout = ms(20);

  std::map<InstanceId, AcceptorState> acceptors_;
  std::map<InstanceId, ProposerState> proposers_;
  std::map<InstanceId, PaxosValue> decisions_;
};

}  // namespace wrs
