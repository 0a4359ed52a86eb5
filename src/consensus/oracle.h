// Oracle weight-reassignment service.
//
// Theorems 1-2 prove that no asynchronous fault-tolerant implementation
// of the (pairwise) weight reassignment problem exists. To make the
// reductions *executable artifacts*, this oracle provides the problem's
// interface (reassign / transfer / read_changes per Definitions 3-4) as a
// centralized linearizer: requests are processed in arrival order, and
// Validity-I / P-Validity-I decide whether each request completes with a
// non-zero change (Integrity preserved) or a null change.
//
// The oracle is "magic" — it is a single process that never crashes; that
// is precisely the power the theorems say cannot be distilled from an
// asynchronous failure-prone system. Algorithms 1 and 2 run against it
// and solve consensus, which is the content of the reduction.
#pragma once

#include <memory>

#include "core/change_set.h"
#include "core/config.h"
#include "runtime/env.h"

namespace wrs {

// --- wire messages ---------------------------------------------------------

/// reassign(target, delta) request (Definition 3 interface).
class OracleReassignReq : public MessageBase<OracleReassignReq> {
 public:
  OracleReassignReq(std::uint64_t counter, ProcessId target, Weight delta)
      : counter_(counter), target_(target), delta_(std::move(delta)) {}
  std::uint64_t counter() const { return counter_; }
  ProcessId target() const { return target_; }
  const Weight& delta() const { return delta_; }
  std::string type_name() const override { return "ORA_REASSIGN"; }

 private:
  std::uint64_t counter_;
  ProcessId target_;
  Weight delta_;
};

/// transfer(src, dst, delta) request (Definition 4 interface).
class OracleTransferReq : public MessageBase<OracleTransferReq> {
 public:
  OracleTransferReq(std::uint64_t counter, ProcessId src, ProcessId dst,
                    Weight delta)
      : counter_(counter), src_(src), dst_(dst), delta_(std::move(delta)) {}
  std::uint64_t counter() const { return counter_; }
  ProcessId src() const { return src_; }
  ProcessId dst() const { return dst_; }
  const Weight& delta() const { return delta_; }
  std::string type_name() const override { return "ORA_TRANSFER"; }

 private:
  std::uint64_t counter_;
  ProcessId src_;
  ProcessId dst_;
  Weight delta_;
};

/// <Complete, c> response.
class OracleComplete : public MessageBase<OracleComplete> {
 public:
  explicit OracleComplete(Change change) : change_(std::move(change)) {}
  const Change& change() const { return change_; }
  std::string type_name() const override { return "ORA_COMPLETE"; }

 private:
  Change change_;
};

/// read_changes(target) request / response.
class OracleReadReq : public MessageBase<OracleReadReq> {
 public:
  OracleReadReq(std::uint64_t op_id, ProcessId target)
      : op_id_(op_id), target_(target) {}
  std::uint64_t op_id() const { return op_id_; }
  ProcessId target() const { return target_; }
  std::string type_name() const override { return "ORA_READ"; }

 private:
  std::uint64_t op_id_;
  ProcessId target_;
};

class OracleReadAck : public MessageBase<OracleReadAck> {
 public:
  OracleReadAck(std::uint64_t op_id, ChangeSet changes)
      : op_id_(op_id), changes_(std::move(changes)) {}
  std::uint64_t op_id() const { return op_id_; }
  const ChangeSet& changes() const { return changes_; }
  std::string type_name() const override { return "ORA_READ_ACK"; }

 private:
  std::uint64_t op_id_;
  ChangeSet changes_;
};

// --- the oracle process ------------------------------------------------------

/// Conventional process id for the oracle (outside the server range).
inline constexpr ProcessId kOracleId = kClientIdBase - 1;

class OracleReassignService : public Process {
 public:
  explicit OracleReassignService(Env& env, const SystemConfig& config);

  void on_message(ProcessId from, const Message& msg) override;

  /// Authoritative change set (test inspection).
  const ChangeSet& changes() const { return changes_; }

  /// Number of effective (non-null) completions granted so far.
  std::size_t effective_count() const { return effective_; }

 private:
  /// Integrity (Def. 3): after applying `candidate` changes, the f
  /// heaviest servers must weigh strictly less than half the new total.
  bool integrity_holds_after(const std::vector<Change>& candidate) const;

  Env& env_;
  SystemConfig config_;
  ChangeSet changes_;
  std::size_t effective_ = 0;
};

}  // namespace wrs
