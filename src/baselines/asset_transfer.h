// 1-asset transfer (Guerraoui et al., PODC 2019 [12]) — the problem the
// restricted pairwise weight reassignment is inspired by.
//
// Each server owns exactly one account; only the owner may spend from it;
// a transfer is valid iff the source balance stays NON-NEGATIVE. The
// consensus number of this restricted problem is 1, so the same
// broadcast-based skeleton as Algorithm 4 implements it asynchronously.
//
// The structural difference from weight reassignment (Section VIII):
// there is no Integrity-style condition on the *distribution* of assets —
// a balance may drop all the way to zero, whereas a server's weight must
// stay strictly above W_{S,0}/(2(n-f)). EXP-X1 runs the same workload on
// both services and shows the acceptance sets differ exactly on the
// transfers that would cross the floor.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "broadcast/reliable_broadcast.h"
#include "core/config.h"
#include "runtime/env.h"

namespace wrs {

struct AssetTransferRecord {
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  std::uint64_t serial = 0;  // per-source sequence number
  Weight amount;
};

class AssetMsg : public MessageBase<AssetMsg> {
 public:
  explicit AssetMsg(AssetTransferRecord rec) : rec_(std::move(rec)) {}
  const AssetTransferRecord& rec() const { return rec_; }
  std::string type_name() const override { return "ASSET_T"; }

 private:
  AssetTransferRecord rec_;
};

class AssetAck : public MessageBase<AssetAck> {
 public:
  AssetAck(ProcessId src, std::uint64_t serial) : src_(src), serial_(serial) {}
  ProcessId src() const { return src_; }
  std::uint64_t serial() const { return serial_; }
  std::string type_name() const override { return "ASSET_ACK"; }

 private:
  ProcessId src_;
  std::uint64_t serial_;
};

struct AssetOutcome {
  bool accepted = false;  // false: would make the balance negative
  std::uint64_t serial = 0;
};

class AssetTransferNode : public Process {
 public:
  using Callback = std::function<void(const AssetOutcome&)>;

  AssetTransferNode(Env& env, ProcessId self, const SystemConfig& config);

  /// Transfers `amount` from this server's account to `dst`'s. Accepted
  /// iff balance - amount >= 0; completes after n-f-1 acks.
  void transfer(ProcessId dst, const Weight& amount, Callback cb);

  void on_message(ProcessId from, const Message& msg) override;

  /// This server's view of any account balance.
  Weight balance_of(ProcessId account) const;
  Weight balance() const { return balance_of(self_); }

  /// Total assets across accounts per the local view (conserved).
  Weight total() const;

 private:
  void apply(const AssetTransferRecord& rec);

  Env& env_;
  ProcessId self_;
  SystemConfig config_;
  std::map<ProcessId, Weight> balances_;
  ReliableBroadcast rb_;
  std::set<std::pair<ProcessId, std::uint64_t>> applied_;

  std::uint64_t next_serial_ = 1;
  struct Pending {
    std::uint64_t serial = 0;
    std::set<ProcessId> acks;
    Callback cb;
  };
  std::optional<Pending> pending_;
};

}  // namespace wrs
