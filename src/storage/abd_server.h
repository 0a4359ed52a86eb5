// Server side of the (dynamic-weighted) ABD register — Algorithm 6.
//
// Differences from classical ABD:
//  * every reply carries the server's current set of changes (supplied
//    by a provider callback wired to the co-located ReassignNode; only
//    tests that drive a bare server pass a null provider);
//  * registers are NAMED: the paper's single register is key "". The
//    multi-register ("key-value") mode is an extension of the paper —
//    see DynamicStorageNode for the gain-refresh implications.
//
// Sharding: the server belongs to one replica group and DROPS requests
// whose shard id differs from its own (misrouted traffic — counted, so
// routing bugs surface in tests instead of silently inflating quorums).
//
// Batched envelopes: a BatchRequest is unpacked and every frame applied
// through the ordinary request logic; the acks travel back as one
// BatchReply. Each APPLIED frame costs a full service_time of modeled
// serial work (misrouted frames are free, like misrouted singles), so
// batching amortizes MESSAGES, never the M/D/1 CPU.
//
// Service-time model (off by default): set_service_time(t) makes the
// server behave like a node whose storage engine needs `t` of serial
// per-request work (disk/SSD access, CPU-bound state machine, ...).
// Requests are queued through a busy-until watermark — exactly an
// M/D/1-style serial queue — so a server's capacity is 1/t requests per
// second on BOTH runtimes. This is what gives a shard a finite, honest
// capacity in scale-out benchmarks: the quorum protocol above it is
// measured against a modeled per-node bottleneck instead of whatever
// the host machine's core count happens to be.
//
// Fences: one per-key fence serves migrations and atomic snapshots. Its
// holder is a migration or one snapshot attempt; client reads and writes
// of a fenced key park in the key's bounded queue until it lifts. One
// rule orders holders: a migration outranks every snapshot (its final
// read must stay definitive), snapshots rank by the (counter, client)
// pair of their SnapId, lower first. MigFreeze fences at once; a
// SnapFreeze takes all its keys, preempting lower holders, unless a
// higher holder fences one of them — then it parks whole in that key's
// queue and is replayed when the fence lifts. Nobody waits on a lower
// rank, so waits never form a cycle. A snapshot fence is a 1 s lease.
// An attempt that released, lost or let expire a fence here is retired
// with its client's older attempts and takes no fence here again, so a
// release's held=true proves the fence stood unbroken since the freeze
// read. MigCommit lifts the fence and flips the key's ROUTE MARK (map
// epoch, owner; newest epoch wins); a key marked with another owner is
// answered with a WrongShardAck redirect. SnapReq collects never wait:
// fenced keys come back kFrozen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "runtime/env.h"
#include "runtime/msg_pool.h"
#include "storage/abd_messages.h"
#include "storage/migration_messages.h"
#include "storage/snapshot_messages.h"

namespace wrs {

class AbdServer {
 public:
  /// `changes_provider` returns the server's current change set snapshot
  /// for piggybacking. A null provider (tests driving a bare server)
  /// makes every reply carry no set.
  using ChangesProvider = std::function<ChangeSetPtr()>;

  AbdServer(Env& env, ProcessId self, ChangesProvider changes_provider,
            ShardId shard = 0)
      : env_(env),
        self_(self),
        shard_(shard),
        changes_provider_(std::move(changes_provider)) {}

  /// Routes R / W / KEYS messages and batched envelopes; true iff
  /// consumed. Replies echo the request's (op_id, seq) so the client can
  /// route and de-stale them. Requests addressed to another shard are
  /// consumed but never answered.
  ///
  /// A BatchRequest is unpacked frame by frame through the same
  /// per-request logic, its acks collected into ONE BatchReply, and the
  /// envelope charged one `service_time` of serial work per APPLIED
  /// frame (misrouted frames are dropped without an ack and — like
  /// misrouted single requests — cost nothing): batching cuts messages,
  /// never modeled CPU.
  bool handle(ProcessId from, const Message& msg) {
    if (const auto* b = msg_cast<BatchRequest>(msg)) {
      if (misrouted(b->shard())) return true;
      ++batches_served_;
      std::vector<MsgPtr> acks;
      acks.reserve(b->frames().size());
      for (const MsgPtr& frame : b->frames()) {
        MsgPtr ack = apply(from, *frame);
        if (!ack) continue;
        if (msg_cast<WrongShardAck>(*ack)) {
          // Redirects travel as singles: the router intercepts them at
          // the top level (a nested redirect would reach the inner
          // client's demux, which cannot eject across shards).
          reply(from, std::move(ack), service_time_);
          continue;
        }
        acks.push_back(std::move(ack));
      }
      if (!acks.empty()) {
        TimeNs cost =
            service_time_ * static_cast<TimeNs>(acks.size());
        reply(from, make_msg<BatchReply>(std::move(acks)), cost);
      }
      return true;
    }
    if (const auto* f = msg_cast<MigFreeze>(msg)) {
      if (misrouted(f->shard())) return true;
      handle_freeze(from, *f);
      return true;
    }
    if (const auto* c = msg_cast<MigCommit>(msg)) {
      if (misrouted(c->shard())) return true;
      handle_commit(from, *c);
      return true;
    }
    if (const auto* s = msg_cast<SnapReq>(msg)) {
      if (misrouted(s->shard())) return true;
      handle_snap_collect(from, *s);
      return true;
    }
    if (const auto* s = msg_cast<SnapFreeze>(msg)) {
      if (misrouted(s->shard())) return true;
      handle_snap_freeze(from, *s);
      return true;
    }
    if (const auto* s = msg_cast<SnapRelease>(msg)) {
      if (misrouted(s->shard())) return true;
      handle_snap_release(from, *s);
      return true;
    }
    if (!msg_cast<ReadReq>(msg) && !msg_cast<WriteReq>(msg) &&
        !msg_cast<KeysReq>(msg)) {
      return false;
    }
    if (MsgPtr ack = apply(from, msg)) {
      reply(from, std::move(ack), service_time_);
    }
    return true;
  }

  /// Register contents for `key` (initial <<0,⊥>,⊥> when never written).
  const TaggedValue& reg(const RegisterKey& key = "") const {
    static const TaggedValue kEmpty{};
    auto it = regs_.find(key);
    return it == regs_.end() ? kEmpty : it->second;
  }
  void set_reg(TaggedValue reg, const RegisterKey& key = "") {
    regs_[key] = std::move(reg);
  }

  ShardId shard() const { return shard_; }
  /// Requests dropped because they carried another group's shard id —
  /// whole misrouted envelopes count once, like any other request.
  std::uint64_t misrouted_count() const { return misrouted_; }
  /// Batched envelopes unpacked (observability for batching tests).
  std::uint64_t batches_served() const { return batches_served_; }

  /// Serial per-request service time (0 = reply inline, the default —
  /// byte- and event-identical to the pre-model server).
  void set_service_time(TimeNs t) { service_time_ = t; }
  TimeNs service_time() const { return service_time_; }

  // --- fences and route marks ---------------------------------------------

  /// The migration state of one key as this server knows it.
  struct RouteMark {
    std::uint64_t epoch = 0;  ///< newest map epoch seen for the key
    ShardId owner = 0;        ///< the key's owner shard as of `epoch`
    bool committed = false;   ///< latest event was a commit (not a freeze)
  };

  /// This server's route mark for `key`, if any migration ever touched it
  /// (test observability; call only when the deployment is quiescent).
  std::optional<RouteMark> route_mark(const RegisterKey& key) const {
    auto it = route_marks_.find(key);
    if (it == route_marks_.end()) return std::nullopt;
    return it->second;
  }
  /// Whether any fence is up on `key` (same calling rules as route_mark).
  bool fenced(const RegisterKey& key) const { return fences_.count(key) > 0; }

  /// Requests parked behind a fence (cumulative).
  std::uint64_t frozen_parked() const { return frozen_parked_; }
  /// Parked requests dropped because a key's park queue overflowed —
  /// client retries cover these.
  std::uint64_t parked_dropped() const { return parked_dropped_; }
  /// Snapshot fences taken by SnapFreeze rounds (cumulative).
  std::uint64_t snap_fences_installed() const { return snap_fences_installed_; }

  /// Served read/write requests per key since the last drain, and clears
  /// the window. Thread-safe (the Rebalancer reads it from another
  /// execution context on the thread runtime).
  std::map<RegisterKey, std::uint64_t> drain_key_hits() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    std::map<RegisterKey, std::uint64_t> window(key_hits_.begin(),
                                                key_hits_.end());
    key_hits_.clear();
    return window;
  }

 private:
  /// Fence holder of a migration: snap_rank 0 outranks every snapshot.
  static constexpr SnapId kMigration = 0;

  ChangeSetPtr snapshot() const {
    return changes_provider_ ? changes_provider_() : nullptr;
  }

  bool misrouted(ShardId requested) {
    if (requested == shard_) return false;
    ++misrouted_;
    return true;
  }

  /// Applies one ABD request against the register state and returns its
  /// ack — or null when `msg` is no ABD request, is addressed to another
  /// shard (counted; defense in depth for frames of a batched envelope
  /// whose own shard id somehow disagrees with the envelope's), or was
  /// parked behind a fence (answered later, when the fence lifts).
  MsgPtr apply(ProcessId from, const Message& msg) {
    if (const auto* r = msg_cast<ReadReq>(msg)) {
      if (misrouted(r->shard())) return nullptr;
      if (MsgPtr verdict = route_check(from, *r)) {
        return verdict == kParkedSentinel() ? nullptr : verdict;
      }
      note_hit(r->key());
      return make_msg<ReadAck>(r->op_id(), reg(r->key()), snapshot(),
                                       r->seq());
    }
    if (const auto* w = msg_cast<WriteReq>(msg)) {
      if (misrouted(w->shard())) return nullptr;
      if (MsgPtr verdict = route_check(from, *w)) {
        return verdict == kParkedSentinel() ? nullptr : verdict;
      }
      note_hit(w->key());
      TaggedValue& slot = regs_[w->key()];
      if (slot.tag < w->reg().tag) slot = w->reg();
      return make_msg<WriteAck>(w->op_id(), snapshot(), w->seq());
    }
    if (const auto* k = msg_cast<KeysReq>(msg)) {
      if (misrouted(k->shard())) return nullptr;
      std::vector<RegisterKey> keys;
      keys.reserve(regs_.size());
      for (const auto& [key, _] : regs_) {
        // A replica left behind by an outbound migration is a ghost: the
        // key's owner lists it, this group must not (no double-listing
        // across the map-epoch commit).
        auto it = route_marks_.find(key);
        if (it != route_marks_.end() && it->second.owner != shard_) continue;
        keys.push_back(key);
      }
      std::sort(keys.begin(), keys.end());  // listings stay ascending
      return make_msg<KeysAck>(k->op_id(), std::move(keys), snapshot(),
                                       k->seq());
    }
    return nullptr;
  }

  /// Shared read/write admission: null means "serve it", the park
  /// sentinel means "parked behind the key's fence, answer later",
  /// anything else is the WrongShardAck to send instead. Only a parked
  /// request is copied.
  template <typename Req>
  MsgPtr route_check(ProcessId from, const Req& req) {
    const RegisterKey& key = req.key();
    if (fences_.count(key)) {
      park(from, key, make_msg<Req>(req));
      return kParkedSentinel();
    }
    auto it = route_marks_.find(key);
    if (it != route_marks_.end() && it->second.owner != shard_) {
      return make_msg<WrongShardAck>(req.op_id(), key, it->second.owner,
                                     it->second.epoch, req.seq());
    }
    return nullptr;
  }

  /// Parks one request behind the key's fence, bounded per key —
  /// overflow is shed to client retries.
  void park(ProcessId from, const RegisterKey& key, MsgPtr req) {
    auto& queue = parked_[key];
    if (queue.size() >= kMaxParkedPerKey) {
      ++parked_dropped_;  // client retry covers it
    } else {
      queue.push_back(Parked{from, std::move(req)});
      ++frozen_parked_;
    }
  }

  /// Distinguishes "parked" from "serve" in route_check's return channel.
  static const MsgPtr& kParkedSentinel() {
    static const MsgPtr sentinel =
        make_msg<WrongShardAck>(0, "", 0, 0);
    return sentinel;
  }

  /// Puts `key` under `holder`'s fence, retiring a snapshot it displaces.
  /// A snapshot fence (re)starts its lease; a migration's has none.
  void fence(const RegisterKey& key, SnapId holder) {
    Fence& f = fences_[key];  // gen 0: no fence was up
    if (f.gen == 0 || f.holder != holder) {
      if (f.gen != 0 && f.holder != kMigration) retire(f.holder);
      if (holder != kMigration) ++snap_fences_installed_;
    }
    f.holder = holder;
    f.gen = ++fence_gen_;
    if (holder == kMigration) return;
    env_.schedule(self_, kSnapLease, [this, key, gen = f.gen] {
      auto it = fences_.find(key);
      if (it != fences_.end() && it->second.gen == gen) lift(key);
    });
  }

  /// Lifts the fence on `key`, if any (retiring a snapshot holder), and
  /// replays the key's parked requests.
  void lift(const RegisterKey& key) {
    auto it = fences_.find(key);
    if (it == fences_.end()) return;
    if (it->second.holder != kMigration) retire(it->second.holder);
    fences_.erase(it);
    drain_parked(key);
  }

  /// Retires `snap` and, since a client's counters only grow, every
  /// older attempt of its client: none of them fences here again.
  void retire(SnapId snap) {
    std::uint32_t& mark = retired_[snap_client(snap)];
    mark = std::max(mark, snap_counter(snap));
  }
  bool retired(SnapId snap) const {
    auto it = retired_.find(snap_client(snap));
    return it != retired_.end() && snap_counter(snap) <= it->second;
  }

  /// MigFreeze: fence the key and answer with the replica — the final
  /// ABD read of the handoff. Stale freezes (older than the newest mark,
  /// or a duplicate of an epoch already committed) are dropped so a
  /// delayed/duplicated freeze can never re-fence a finished migration.
  void handle_freeze(ProcessId from, const MigFreeze& f) {
    RouteMark& mark = route_marks_[f.key()];
    bool fresh = f.epoch() > mark.epoch;
    bool retry = f.epoch() == mark.epoch && !mark.committed;
    if (!fresh && !retry) return;
    mark.epoch = f.epoch();
    mark.owner = shard_;
    mark.committed = false;
    fence(f.key(), kMigration);
    reply(from,
          make_msg<ReadAck>(f.op_id(), reg(f.key()), snapshot(),
                                    f.seq()),
          service_time_);
  }

  /// MigCommit: adopt "key is owned by `owner` as of `epoch`", lift the
  /// fence, and drain parked requests (they come out as redirects when
  /// ownership moved away). Applies for any epoch >= the newest mark
  /// (idempotent under engine retries); older commits are dropped
  /// without an ack.
  void handle_commit(ProcessId from, const MigCommit& c) {
    RouteMark& mark = route_marks_[c.key()];
    if (c.epoch() < mark.epoch) return;
    mark.epoch = c.epoch();
    mark.owner = c.owner();
    mark.committed = true;
    // The destination-side commit carries the frozen replica: install it
    // tag-monotonically in the same step that flips ownership, so a
    // destination quorum never serves the key without the migrated value.
    if (c.install()) {
      TaggedValue& slot = regs_[c.key()];
      if (slot.tag < c.install()->tag) slot = *c.install();
    }
    reply(from, make_msg<WriteAck>(c.op_id(), snapshot(), c.seq()),
          service_time_);
    lift(c.key());
  }

  /// Replays the key's parked queue in arrival order: SnapFreeze rounds
  /// re-enter handle_snap_freeze, client requests the ordinary apply
  /// path — each re-parks, redirects or is served as the key now stands.
  void drain_parked(const RegisterKey& key) {
    auto parked = parked_.find(key);
    if (parked == parked_.end()) return;
    std::vector<Parked> queue = std::move(parked->second);
    parked_.erase(parked);
    for (Parked& p : queue) {
      if (const auto* f = msg_cast<SnapFreeze>(*p.req)) {
        handle_snap_freeze(p.from, *f);
      } else if (MsgPtr ack = apply(p.from, *p.req)) {
        reply(p.from, std::move(ack), service_time_);
      }
    }
  }

  // --- atomic snapshots ----------------------------------------------------

  /// One key's slice of a collect/freeze ack: kFrozen when `frozen`,
  /// kMoved with the owner to route to when the key left this group,
  /// else the replica.
  SnapEntry snap_entry_for(const RegisterKey& key, bool frozen) {
    SnapEntry e;
    e.key = key;
    auto mark = route_marks_.find(key);
    if (frozen) {
      e.flag = SnapEntry::kFrozen;
    } else if (mark != route_marks_.end() && mark->second.owner != shard_) {
      e.flag = SnapEntry::kMoved;
      e.owner = mark->second.owner;
      e.epoch = mark->second.epoch;
    } else {
      note_hit(key);
      e.reg = reg(key);
    }
    return e;
  }

  /// SnapReq: the collect round — every requested key's replica (or its
  /// flag) in one reply; never waits on a fence. Costs one service_time
  /// per key: a collect reads as many registers as the individual reads
  /// it replaces, so it amortizes messages, never modeled CPU.
  void handle_snap_collect(ProcessId from, const SnapReq& s) {
    std::vector<SnapEntry> entries;
    entries.reserve(s.keys().size());
    for (const RegisterKey& key : s.keys()) {
      entries.push_back(snap_entry_for(key, fences_.count(key) > 0));
    }
    TimeNs cost = service_time_ * static_cast<TimeNs>(s.keys().size());
    reply(from,
          make_msg<SnapAck>(s.op_id(), std::move(entries), snapshot(),
                            s.seq()),
          cost);
  }

  /// Matches the parked SnapFreeze of `m`'s snapshot attempt.
  template <typename SnapMsg>
  static auto parked_freeze(const SnapMsg& m) {
    return [snap = m.snap_id()](const Parked& p) {
      const auto* f = msg_cast<SnapFreeze>(*p.req);
      return f != nullptr && f->snap_id() == snap;
    };
  }

  /// SnapFreeze: parks whole behind the first key a higher-ranked holder
  /// fences; otherwise fences every key that has not moved (preempting
  /// lower-ranked snapshots) and replies with the replicas — the freeze
  /// doubles as the fallback's read. A retired attempt takes no fence
  /// and gets kFrozen for every key it does not still hold; re-fencing a
  /// held key restarts the lease (idempotent under retransmits).
  void handle_snap_freeze(ProcessId from, const SnapFreeze& f) {
    const bool dead = retired(f.snap_id());
    for (const RegisterKey& key : f.keys()) {
      auto it = fences_.find(key);
      if (!dead && it != fences_.end() &&
          snap_rank(it->second.holder) < snap_rank(f.snap_id())) {
        auto& queue = parked_[key];
        if (std::none_of(queue.begin(), queue.end(), parked_freeze(f))) {
          park(from, key, make_msg<SnapFreeze>(f));  // once per attempt
        }
        return;
      }
    }
    std::vector<SnapEntry> entries;
    entries.reserve(f.keys().size());
    for (const RegisterKey& key : f.keys()) {
      auto it = fences_.find(key);
      const bool holds =
          it != fences_.end() && it->second.holder == f.snap_id();
      entries.push_back(snap_entry_for(key, dead && !holds));
      if (entries.back().flag == SnapEntry::kOk) fence(key, f.snap_id());
    }
    TimeNs cost = service_time_ * static_cast<TimeNs>(f.keys().size());
    reply(from,
          make_msg<SnapAck>(f.op_id(), std::move(entries), snapshot(),
                            f.seq()),
          cost);
  }

  /// SnapRelease: for every named key this snapshot still fences, adopt
  /// a kOk install tag-monotonically (the scanner's scan embedded in its
  /// update — the cut's values land before any parked writer resumes),
  /// lift the fence and drain the queue. Drops the snapshot's parked
  /// freezes and retires it. `held` is false when any named fence was
  /// lost (preempted, expired) or never taken.
  void handle_snap_release(ProcessId from, const SnapRelease& rel) {
    bool held = true;
    for (const SnapEntry& e : rel.installs()) {
      auto parked = parked_.find(e.key);
      if (parked != parked_.end()) {
        std::erase_if(parked->second, parked_freeze(rel));
      }
      auto it = fences_.find(e.key);
      if (it == fences_.end() || it->second.holder != rel.snap_id()) {
        held = false;
        continue;
      }
      if (e.flag == SnapEntry::kOk) {
        TaggedValue& slot = regs_[e.key];
        if (slot.tag < e.reg.tag) slot = e.reg;
      }
      lift(e.key);
    }
    retire(rel.snap_id());
    reply(from,
          make_msg<SnapAck>(rel.op_id(), std::vector<SnapEntry>{}, snapshot(),
                            rel.seq(), held),
          service_time_);
  }

  void note_hit(const RegisterKey& key) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++key_hits_[key];
  }

  /// Replies inline, or through the serial service queue: each request
  /// occupies the server for `cost` (one service_time_ per applied frame
  /// — a batched envelope costs as much modeled CPU as its frames would
  /// have individually), requests arriving while busy wait their turn
  /// (handlers are serialized per process, so the watermark needs no
  /// lock).
  void reply(ProcessId to, MsgPtr ack, TimeNs cost) {
    if (cost <= 0) {
      env_.send(self_, to, std::move(ack));
      return;
    }
    TimeNs free_at = std::max(env_.now(), busy_until_) + cost;
    busy_until_ = free_at;
    env_.schedule(self_, free_at - env_.now(),
                  [this, to, ack = std::move(ack)]() mutable {
                    env_.send(self_, to, std::move(ack));
                  });
  }

  /// One request waiting behind a fence: a client read/write or a
  /// lower-ranked SnapFreeze.
  struct Parked {
    ProcessId from;
    MsgPtr req;
  };
  /// Per-key park queue bound: the fence window is a couple of quorum
  /// round trips, so anything past this is a pathological pile-up better
  /// shed to client retries than buffered.
  static constexpr std::size_t kMaxParkedPerKey = 512;
  /// The per-key fence: its holder, and a generation that a stale lease
  /// timer (after a refresh, preemption or release) fails to match.
  struct Fence {
    SnapId holder = kMigration;
    std::uint64_t gen = 0;
  };

  Env& env_;
  ProcessId self_;
  ShardId shard_;
  ChangesProvider changes_provider_;
  /// Looked up on every request (reg(), then note_hit() on key_hits_),
  /// so both are hashed: O(1) in the key count, and references into them
  /// survive rehashing. Iteration order is unspecified — the one listing
  /// (KeysReq) sorts its reply.
  std::unordered_map<RegisterKey, TaggedValue> regs_;
  /// Checked on EVERY read/write (route_check) but populated only by the
  /// rare migration and snapshot verbs: flat and contiguous, so the
  /// common probe is a binary search over a handful of entries.
  FlatMap<RegisterKey, RouteMark> route_marks_;
  FlatMap<RegisterKey, Fence> fences_;
  FlatMap<RegisterKey, std::vector<Parked>> parked_;
  std::uint64_t fence_gen_ = 0;
  /// Per client: the newest counter of its retired snapshot attempts.
  FlatMap<std::uint32_t, std::uint32_t> retired_;
  std::uint64_t snap_fences_installed_ = 0;
  std::uint64_t misrouted_ = 0;
  std::uint64_t batches_served_ = 0;
  std::uint64_t frozen_parked_ = 0;
  std::uint64_t parked_dropped_ = 0;
  TimeNs service_time_ = 0;
  TimeNs busy_until_ = 0;
  /// Guards the hit-count window: written on the serve path (server
  /// context), drained by the Rebalancer from the engine's context.
  mutable std::mutex stats_mu_;
  std::unordered_map<RegisterKey, std::uint64_t> key_hits_;
};

}  // namespace wrs
