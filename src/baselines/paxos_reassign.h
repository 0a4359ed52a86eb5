// Consensus-based weight reassignment — the approach the paper's related
// work takes in partially synchronous systems (AWARE [10], WHEAT [20],
// dynamic voting [22][28]).
//
// Every transfer is sequenced through a Paxos instance; all servers apply
// decided transfers in instance order against the replicated weight
// state, validating Integrity deterministically at application time.
// Strictly stronger than the restricted pairwise problem (any process
// may move any server's weight; no per-server floor is needed beyond
// Property 1) — but liveness now needs partial synchrony: EXP-C1 measures
// the stall under crash/asynchrony that the consensus-free protocol
// avoids.
#pragma once

#include <deque>
#include <functional>
#include <map>

#include "consensus/paxos.h"
#include "core/config.h"
#include "quorum/wmqs.h"
#include "runtime/env.h"

namespace wrs {

struct PaxosTransferOutcome {
  bool effective = false;
  InstanceId instance = 0;
};

class PaxosReassignNode : public Process {
 public:
  using TransferCallback = std::function<void(const PaxosTransferOutcome&)>;

  PaxosReassignNode(Env& env, ProcessId self, const SystemConfig& config,
                    std::uint64_t seed = 11);

  /// Submits transfer(src=self, dst, delta); completes once the transfer
  /// has been sequenced AND applied on this node.
  void transfer(ProcessId dst, const Weight& delta, TransferCallback cb);

  void on_message(ProcessId from, const Message& msg) override;

  const WeightMap& weights() const { return weights_; }

 private:
  struct PendingSubmit {
    std::string encoded;
    TransferCallback cb;
  };

  void on_decide(InstanceId instance, const PaxosValue& value);
  void try_apply();
  void propose_pending();

  static std::string encode(ProcessId issuer, std::uint64_t serial,
                            ProcessId src, ProcessId dst,
                            const Weight& delta);

  Env& env_;
  ProcessId self_;
  SystemConfig config_;
  WeightMap weights_;
  PaxosNode paxos_;

  std::map<InstanceId, PaxosValue> decided_log_;
  InstanceId next_apply_ = 0;
  InstanceId next_propose_ = 0;

  std::deque<PendingSubmit> queue_;
  bool proposing_ = false;
  std::uint64_t serial_ = 0;
};

}  // namespace wrs
