#include "runtime/traffic_ledger.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wrs {

namespace {

constexpr const char* kSlotNames[TrafficLedger::kSlotCount] = {
    "msgs",            "bytes",          "msgs.lost",
    "msgs.dup",        "msgs.in",        "bytes.in",
    "msgs.unroutable", "msgs.malformed", "msgs.no_handler",
    "reads.fast_path", "reads.write_back",
};

// Process-wide TypeId -> "msg.<type_name>" registry. Entries are
// interned at most once per concrete message type (not per message):
// readers do a single acquire load; the slow path takes a mutex, builds
// the string, and publishes with release. Strings are owned by a static
// vector so the const char* stays valid for the process lifetime.
std::mutex g_intern_mu;
std::array<std::atomic<const char*>, TrafficLedger::kMaxTypeIds>
    g_type_keys{};

const char* intern_type_key(Message::TypeId id, const Message& msg) {
  std::lock_guard<std::mutex> lock(g_intern_mu);
  const char* existing = g_type_keys[id].load(std::memory_order_relaxed);
  if (existing != nullptr) return existing;
  static std::vector<std::unique_ptr<std::string>> owned;
  owned.push_back(std::make_unique<std::string>("msg." + msg.type_name()));
  const char* key = owned.back()->c_str();
  g_type_keys[id].store(key, std::memory_order_release);
  return key;
}

}  // namespace

void TrafficLedger::count_message(const Message& msg, std::int64_t bytes) {
  Shard& s = shard();
  s.named[kMsgs].fetch_add(1, std::memory_order_relaxed);
  s.named[kBytes].fetch_add(bytes, std::memory_order_relaxed);
  const Message::TypeId id = msg.type_id();
  if (id < kMaxTypeIds) {
    if (g_type_keys[id].load(std::memory_order_acquire) == nullptr) {
      intern_type_key(id, msg);
    }
    s.per_type[id].fetch_add(1, std::memory_order_relaxed);
  } else {
    // Overflow bucket; unreachable with the current ~25 message types.
    s.per_type[0].fetch_add(1, std::memory_order_relaxed);
  }
}

std::int64_t TrafficLedger::get(Slot slot) const {
  std::int64_t sum = 0;
  for (const Shard& s : shards_) {
    sum += s.named[slot].load(std::memory_order_relaxed);
  }
  return sum;
}

Counters TrafficLedger::snapshot() const {
  Counters out;
  for (unsigned slot = 0; slot < kSlotCount; ++slot) {
    std::int64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.named[slot].load(std::memory_order_relaxed);
    }
    if (sum != 0) out.inc(kSlotNames[slot], sum);
  }
  for (std::size_t id = 0; id < kMaxTypeIds; ++id) {
    std::int64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.per_type[id].load(std::memory_order_relaxed);
    }
    if (sum == 0) continue;
    const char* key = g_type_keys[id].load(std::memory_order_acquire);
    out.inc(key != nullptr ? key : "msg.other", sum);
  }
  return out;
}

TrafficLedger::Shard& TrafficLedger::shard() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned bank =
      next.fetch_add(1, std::memory_order_relaxed);
  return shards_[bank % kShards];
}

}  // namespace wrs
