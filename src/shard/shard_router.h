// Client-side shard routing layer: one operation-multiplexed AbdClient
// per shard; a read/write goes to the inner client already holding its
// key, else to ShardMap::shard_of(key).
//
// The router preserves the pipelined client's semantics exactly:
//  * per-key FIFO — the inner AbdClients' FIFO is the only one. A
//    migration can move a key between groups mid-operation, and two
//    FIFOs holding the same key would let a later same-key op overlap an
//    earlier one (and race the (max_ts+1, pid) tag choice). Two rules
//    keep every key in one FIFO: (1) a keyed op joins the inner client
//    that already holds(key), and only a key nobody holds is routed by
//    the map; (2) a redirect ejects the op with every op queued behind
//    it on that key and resumes them, in issue order, at the new owner;
//  * pipelining — operations on distinct keys multiplex freely, now both
//    within a shard (the AbdClient's op map) and across shards (disjoint
//    replica groups never share quorum traffic at all);
//  * change-set restarts stay shard-local: a reassignment in shard g
//    restarts only the operations routed to g.
//
// list_keys() fans out to every shard and resolves with the union once
// all groups answered — the sharded analogue of the single weighted
// quorum's key discovery.
//
// snapshot(keys) returns a CONSISTENT CUT across keys on any shards: a
// set of (key, register) pairs that all coexisted at one linearization
// point. Fast path: repeated pipelined collect rounds (one SnapReq per
// involved shard) until one round observes, for every key, the same tag
// the key showed in its latest earlier clean observation (double
// collect — the ABD tag is the modification counter); keys whose
// confirming tag was not quorum-unanimous get a write-back install
// before the cut returns. A key flagged kMoved whose override moves the
// map is re-collected at its new owner inside the same round, and the
// round ends only when every key, re-collected ones included, has been
// answered; each re-collect needs a strictly newer epoch for the key,
// so the chase is bounded. A key flagged otherwise (fenced, or a relic
// kMoved that does not move the map) records nothing for that round,
// and the other keys keep their observations.
//
// Why a per-key match is a cut: take two clean observations of a key in
// rounds a < b carrying the same tag t. The write tagged t had started
// before round a answered. No write with a higher tag completed before
// round b asked, or round b's quorum would have seen it. So t is the
// key's value at any instant T between the end of round b-1 and the
// start of round b, and the same T works for every key, since rounds
// run one after another. Tags survive migration verbatim: the
// destination installs the frozen (tag, value), and a redirected write
// keeps its once-chosen tag, so an observation at the old owner
// compares with one at the new owner by tag.
//
// Under sustained write pressure the double collect may never confirm,
// so after a bounded number of rounds the router switches to the fenced
// fallback (scan embedded in update): SnapFreeze fences the keys at
// every involved shard, SnapRelease installs the frozen maxima and
// lifts the fences — two rounds per shard. Servers rank fences
// (migrations first, then snapshots by instance id) and park a
// lower-ranked freeze until the fence lifts, so contending snapshotters
// queue instead of aborting. An attempt that sees a moved key, or that
// lost a fence before its release, retries at once with a fresh
// instance id; moved keys teach the router's map the same way
// WrongShardAck redirects do.
//
// Replies route back by SENDER: a server's global id names its shard, so
// handle() dispatches to exactly one inner client (no per-client probing
// on the reply hot path).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "shard/shard_map.h"
#include "storage/abd_client.h"

namespace wrs {

class ShardRouter {
 public:
  ShardRouter(Env& env, ProcessId self, ShardMap map);

  /// Routed atomic operations (see AbdClient for the callback contracts).
  OpId read(RegisterKey key, AbdClient::ReadCallback cb);
  OpId write(RegisterKey key, Value value, AbdClient::WriteCallback cb);

  /// Key discovery across every shard; cb fires once with the sorted
  /// union after all groups answered.
  OpId list_keys(AbdClient::KeysCallback cb);

  /// The consistent cut a snapshot() resolved with.
  struct SnapshotResult {
    /// One (key, register) per requested key, in first-occurrence
    /// request order (duplicates collapsed). All pairs coexisted at a
    /// single linearization point between the snapshot's invocation and
    /// its response.
    std::vector<std::pair<RegisterKey, TaggedValue>> cut;
    std::uint32_t rounds = 0;    ///< collect rounds run (fast path >= 2)
    bool used_fallback = false;  ///< the fenced fallback produced the cut
  };
  using SnapshotCallback = std::function<void(const SnapshotResult&)>;

  /// Atomic snapshot of `keys` (any shards); cb fires once with the cut.
  /// Never queued behind keyed traffic — snapshots multiplex freely with
  /// reads and writes, like list_keys(). An empty key set resolves
  /// immediately with an empty cut.
  OpId snapshot(std::vector<RegisterKey> keys, SnapshotCallback cb);

  /// Routes a server reply to the inner client of the sender's shard;
  /// true iff consumed. Messages from non-servers are not the router's.
  ///
  /// WrongShardAck redirects are the router's own: the carried override
  /// is merged into this client's ShardMap copy (newest epoch wins) and,
  /// when the map now disagrees with the sender's shard, the operation and
  /// every operation queued behind it on its key are ejected from the
  /// sender's inner client and reissued, in issue order, at the current
  /// owner — a write keeps its once-chosen tag. A redirect that does NOT
  /// move the map (a relic server lagging behind a newer migration) is
  /// consumed without ejecting, so stale redirects can never livelock an
  /// operation that is already at the right shard.
  bool handle(ProcessId from, const Message& msg);

  const ShardMap& map() const { return map_; }
  std::uint32_t num_shards() const { return map_.num_shards(); }
  ShardId shard_of(const RegisterKey& key) const { return map_.shard_of(key); }

  /// The inner client of shard `g` (validated like ShardMap::config).
  AbdClient& shard_client(ShardId g);

  // --- aggregated observability (sums/maxima over the inner clients) ------
  /// Max over shards of each inner client's started-op high-water mark
  /// (a lower bound on the true cross-shard concurrency).
  std::size_t max_in_flight() const;
  std::uint64_t restarts() const;
  std::uint64_t retransmits() const;
  /// Batched envelopes flushed / frames carried, summed over shards.
  std::uint64_t batches_sent() const;
  std::uint64_t batched_frames() const;
  /// Operations reissued at another shard after a WrongShardAck.
  std::uint64_t redirects() const { return redirects_; }
  /// Snapshots resolved / collect rounds run / fenced-fallback attempts.
  std::uint64_t snapshots_taken() const { return snapshots_taken_; }
  std::uint64_t snapshot_rounds() const { return snapshot_rounds_; }
  std::uint64_t snapshot_fallbacks() const { return snapshot_fallbacks_; }

  void set_retry_interval(TimeNs interval);
  /// Batched wire mode on every inner client. Batching is inherently
  /// same-shard: each inner client only ever talks to its own group, so
  /// coalescing its buffered phase broadcasts can never mix shards.
  void set_batching(std::size_t max_ops, TimeNs max_delay);

 private:
  /// Key indices grouped by shard: (shard, indices into SnapState::keys).
  using Parts = std::vector<std::pair<ShardId, std::vector<std::size_t>>>;

  /// One in-flight snapshot's state machine, shared by the per-shard
  /// fan-out callbacks of its current round.
  struct SnapState {
    std::vector<RegisterKey> keys;  ///< deduped, first-occurrence order
    SnapshotCallback cb;
    std::uint32_t rounds = 0;
    bool used_fallback = false;
    /// Double-collect memory: each key's latest clean tag, index-aligned
    /// with `keys` (empty until the key is first seen clean).
    std::vector<std::optional<Tag>> seen;
    /// Current round's per-key aggregates, index-aligned with `keys`.
    std::vector<AbdClient::CollectEntry> acc;
    /// Per-shard collects of this round (or freezes, releases, installs)
    /// still outstanding.
    std::size_t pending = 0;
    bool all_held = true;
    SnapId snap_id = 0;
    /// Fallback freeze partition (shard, key indices): the release round
    /// targets the SAME groups that were frozen, even if the map learns
    /// new overrides in between.
    Parts frozen_parts;
  };
  using SnapPtr = std::shared_ptr<SnapState>;

  Parts snap_partition(const SnapState& st,
                       const std::vector<std::size_t>& idxs) const;
  OpId snap_collect_round(SnapPtr st);
  /// Collects keys `which` of `st` at their current owners, as part of
  /// the current round (each shard's reply counts down `pending`).
  OpId snap_collect(const SnapPtr& st, const std::vector<std::size_t>& which);
  void snap_collect_done(SnapPtr st);
  void snap_install_and_finish(SnapPtr st);
  void snap_fallback(SnapPtr st);
  void snap_freeze_done(SnapPtr st);
  void snap_finish(SnapPtr st);

  /// The inner client a keyed operation joins: the one that holds the
  /// key, else the key's current owner in the map.
  AbdClient& client_for(const RegisterKey& key);

  /// Learned routing state: starts as the static hash map, accumulates
  /// overrides from WrongShardAck redirects.
  ShardMap map_;
  ProcessId self_ = 0;
  std::vector<std::unique_ptr<AbdClient>> clients_;
  std::uint64_t redirects_ = 0;
  std::uint64_t snapshots_taken_ = 0;
  std::uint64_t snapshot_rounds_ = 0;
  std::uint64_t snapshot_fallbacks_ = 0;
  std::uint32_t snap_seq_ = 0;  ///< per-client snapshot instance counter
};

}  // namespace wrs
