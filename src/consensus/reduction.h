// Executable reductions: consensus from weight reassignment.
//
// Algorithm 1 (Theorem 1): every server writes its proposal to the shared
// SWMR array R, then invokes reassign(s_i, +0.5) if s_i ∈ F or
// reassign(s_i, -0.5) otherwise, against a service solving the weight
// reassignment problem (our oracle). Integrity permits exactly ONE of
// those changes to be non-zero; everyone polls read_changes until they
// spot it and decides R[j] of its issuer.
//
// Algorithm 2 (Theorem 2): same skeleton for the *pairwise* problem —
// F servers shuffle 0.1 around a ring inside F (total weight of F
// unchanged, always effective); each server in S∖F tries to transfer 0.4
// to s_0 ∈ F. P-Integrity permits exactly one of the S∖F transfers to be
// effective; its issuer's proposal is the decision.
//
// Initial weights follow the paper: w(s∈F) = (n-1)/(2f),
// w(s∈S∖F) = (n+1)/(2(n-f)) — see reduction_initial_weights().
//
// Degenerate case: for f = 1 the paper's ring j = (i+1) mod f maps s_i to
// itself; self-transfers are meaningless, so the single F server simply
// skips its transfer (it plays no role in the agreement argument).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "consensus/oracle.h"
#include "consensus/shared_registers.h"
#include "core/config.h"
#include "runtime/env.h"

namespace wrs {

/// Common skeleton of both reduction servers.
class ReductionServerBase : public Process {
 public:
  using DecideCallback = std::function<void(const std::string&)>;

  ReductionServerBase(Env& env, ProcessId self, const SystemConfig& config,
                      std::shared_ptr<SharedRegisters> registers);

  /// The paper's propose(v_i).
  void propose(std::string value, DecideCallback cb);

  const std::optional<std::string>& decision() const { return decided_; }

  void on_message(ProcessId from, const Message& msg) override;

 protected:
  /// Issues this server's reassignment request (variant-specific);
  /// returns false when the server has no request to issue (degenerate
  /// f=1 ring case of Algorithm 2).
  virtual bool issue_request() = 0;

  /// Which servers' change sets to poll.
  virtual std::vector<ProcessId> poll_targets() const = 0;

  /// Inspects a polled change set; returns the deciding server's id when
  /// the effective change has been spotted.
  virtual std::optional<ProcessId> winning_issuer(
      ProcessId target, const ChangeSet& cs) const = 0;

  /// Hook invoked when this server's own request completed null.
  virtual void on_null_completion() {}

  void start_polling();
  void poll_round();
  void decide(ProcessId winner);

  Env& env_;
  ProcessId self_;
  SystemConfig config_;
  std::shared_ptr<SharedRegisters> registers_;
  std::string my_value_;
  DecideCallback cb_;
  std::optional<std::string> decided_;
  bool polling_ = false;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t lc_ = kFirstCounter;  // local counter for (re)issued requests
  std::set<std::uint64_t> outstanding_reads_;
  TimeNs poll_interval_ = ms(1);
};

/// Algorithm 1 server.
class Alg1Server : public ReductionServerBase {
 public:
  using ReductionServerBase::ReductionServerBase;

 protected:
  bool issue_request() override;
  std::vector<ProcessId> poll_targets() const override;
  std::optional<ProcessId> winning_issuer(ProcessId target,
                                          const ChangeSet& cs) const override;
};

/// Algorithm 2 server.
///
/// Liveness refinement: the paper's argument that "not all S∖F transfers
/// can complete null" (proof of Theorem 2) examines the quiesced state;
/// under adversarial interleavings with the F-ring mid-flight a transfer
/// may legitimately be aborted by P-Validity-I even though it would
/// succeed later. S∖F servers therefore RETRY a null transfer (fresh
/// counter, small backoff) until a winner is visible. P-Integrity still
/// permits at most one effective S∖F transfer ever, so Agreement is
/// unaffected, and in any no-winner quiesced state a retry is granted, so
/// Termination is restored.
class Alg2Server : public ReductionServerBase {
 public:
  using ReductionServerBase::ReductionServerBase;

 protected:
  bool issue_request() override;
  std::vector<ProcessId> poll_targets() const override;
  std::optional<ProcessId> winning_issuer(ProcessId target,
                                          const ChangeSet& cs) const override;
  void on_null_completion() override;
};

}  // namespace wrs
