#include "runtime/env.h"

#include <stdexcept>
#include <string>

namespace wrs {

const Counters& Env::traffic() const {
  traffic_export_ = ledger_.snapshot();
  return traffic_export_;
}

void Env::broadcast_to_group(ProcessId from,
                             const std::vector<ProcessId>& group,
                             const MsgPtr& msg) {
  for (ProcessId pid : group) {
    send(from, pid, msg);
  }
}

void Env::enable_shard_traffic(std::size_t shards, ShardOfMessage shard_of) {
  if (shards == 0 || !shard_of) {
    throw std::invalid_argument(
        "Env::enable_shard_traffic: need shards >= 1 and a mapper");
  }
  // TrafficLedger is neither movable nor copyable (atomics), so the
  // vector is sized once here and never resized.
  shard_traffic_ = std::vector<TrafficLedger>(shards);
  shard_traffic_export_.resize(shards);
  shard_of_ = std::move(shard_of);
}

const Counters& Env::shard_traffic(std::size_t g) const {
  if (g >= shard_traffic_.size()) {
    throw std::out_of_range("Env: shard id " + std::to_string(g) +
                            " out of range [0, " +
                            std::to_string(shard_traffic_.size()) + ")");
  }
  shard_traffic_export_[g] = shard_traffic_[g].snapshot();
  return shard_traffic_export_[g];
}

void Env::count_send(ProcessId from, ProcessId to, const Message& msg,
                     std::size_t bytes) {
  ledger_.count_message(msg, static_cast<std::int64_t>(bytes));
  if (shard_traffic_.empty()) return;
  int g = shard_of_(from, to);
  if (g < 0 || static_cast<std::size_t>(g) >= shard_traffic_.size()) return;
  TrafficLedger& ledger = shard_traffic_[static_cast<std::size_t>(g)];
  ledger.inc(TrafficLedger::kMsgs);
  ledger.inc(TrafficLedger::kBytes, static_cast<std::int64_t>(bytes));
}

LinkFaults::Decision Env::fault_verdict(ProcessId from, ProcessId to,
                                        Rng& rng) {
  LinkFaults::Decision fate = faults_.decide(from, to, rng);
  if (!fate.deliver) {
    ledger_.inc(TrafficLedger::kMsgsLost);
  } else if (fate.duplicate) {
    ledger_.inc(TrafficLedger::kMsgsDup);
  }
  return fate;
}

}  // namespace wrs
