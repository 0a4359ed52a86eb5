// Lock-free traffic accounting for the runtime send/receive hot paths.
//
// The previous design bumped a string-keyed Counters map under the
// env-wide mutex — every send built "msg." + type_name() (a heap
// allocation), then serialized all senders on one lock. TrafficLedger
// replaces that with pre-interned slots:
//
//  - well-known events are enum indices into an array of relaxed
//    atomics — no key, no lock;
//  - per-message-type counts index by Message::TypeId; the id→name
//    string is interned once per process (first message of that type)
//    in a global registry, so the hot path never touches a string;
//  - counters are sharded across cache-line-aligned banks selected by a
//    thread-local id (the hardware_destructive_interference_size idiom,
//    SNIPPETS.md #1), so concurrent senders do not bounce one line.
//
// snapshot() folds the shards into a Counters map using the exact key
// names the string-keyed ledger produced ("msgs", "bytes", "msg.<T>",
// "msgs.lost", ...), emitting only nonzero keys — so Cluster::traffic()
// / shard_traffic() output is unchanged and stays pinned by tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "common/cacheline.h"
#include "common/metrics.h"
#include "runtime/message.h"

namespace wrs {

class TrafficLedger {
 public:
  enum Slot : unsigned {
    kMsgs = 0,
    kBytes,
    kMsgsLost,
    kMsgsDup,
    kMsgsIn,
    kBytesIn,
    kMsgsUnroutable,
    kMsgsMalformed,
    kMsgsNoHandler,
    /// Reads completed in one round (AbdClient: the phase-1 quorum
    /// unanimously reported the max tag, so the write-back was
    /// provably redundant and skipped).
    kReadsFastPath,
    /// Reads completed through the write-back round.
    kReadsWriteBack,
    kSlotCount,
  };

  /// Per-type slots cover TypeIds 1..kMaxTypeIds-1; the protocol defines
  /// ~25 concrete message types, ids are allocated densely from 1, and
  /// anything past the cap folds into a "msg.other" bucket rather than
  /// being dropped.
  static constexpr std::size_t kMaxTypeIds = 64;

  TrafficLedger() = default;
  TrafficLedger(const TrafficLedger&) = delete;
  TrafficLedger& operator=(const TrafficLedger&) = delete;

  void inc(Slot slot, std::int64_t by = 1) {
    shard().named[slot].fetch_add(by, std::memory_order_relaxed);
  }

  /// The send-path triple — "msgs", "bytes", "msg.<type>" — in one call
  /// with no lock and no string construction.
  void count_message(const Message& msg, std::int64_t bytes);

  /// Sum of one well-known slot across shards.
  std::int64_t get(Slot slot) const;

  /// Materializes the ledger as string-keyed Counters (nonzero keys
  /// only). Sums are relaxed reads, exact once senders have quiesced.
  Counters snapshot() const;

 private:
  // 8 banks bound the footprint (~5 KiB/ledger) while splitting the
  // handful of runtime threads (workers + timer + app threads) that
  // count concurrently.
  static constexpr std::size_t kShards = 8;

  struct alignas(kCacheLineSize) Shard {
    std::array<std::atomic<std::int64_t>, kSlotCount> named{};
    std::array<std::atomic<std::int64_t>, kMaxTypeIds> per_type{};
  };

  Shard& shard();

  std::array<Shard, kShards> shards_;
};

}  // namespace wrs
