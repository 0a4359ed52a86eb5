// Reader/writer side of the (dynamic-weighted) ABD register — Algorithm 5,
// generalized to an operation-multiplexed pipeline.
//
// Every operation runs the two-phase read_write skeleton:
//   phase 1  broadcast <R>; collect <R_A, reg, C'> replies until the
//            responders form a *weighted quorum* under the client's
//            current change set C (threshold W_{S,0}/2);
//   phase 2  broadcast <W, <tag,val>> (the write-back for reads, the new
//            value with tag (max_ts+1, pid) for writes); collect <W_A>
//            until a weighted quorum acked.
//
// One-round reads: a read whose phase-1 quorum is UNANIMOUS (every
// responder reported the max tag) completes without phase 2 and counts
// "reads.fast_path"; any other read writes back and counts
// "reads.write_back". A write-back completes once servers holding a tag
// >= max form a weighted quorum under the client's change set C and
// none of their acks reported a newer change set. A unanimous phase 1
// is that same evidence, gathered one round earlier: each reply's
// change set is merged (a newer one restarts the read) before the
// quorum check, so the responders form a weighted quorum under C with
// no newer set reported, and each held a tag >= max when it replied
// (server tags never fall). Whatever makes a completed write-back
// visible to every later operation under dynamic weights (Algorithm 5's
// quorum argument) therefore covers this quorum too: no later read
// returns an older tag. A non-unanimous phase 1 proves nothing of the
// kind (a writer may have crashed with its phase 2 at a minority), so
// it writes back. Snapshot cuts skip the write-back of their unanimous
// keys on the same argument.
//
// Pipelining (beyond the paper's sequential client): many operations may
// be in flight at once, each an independent state machine keyed by its
// OpId in the request/reply messages. Nothing in the protocol requires
// per-client serialization across *distinct* keys — quorum intersection
// is per-operation — so independent operations multiplex freely over the
// same replicas. Operations on the SAME key from one client execute in
// issue order (a per-key FIFO): concurrent same-key writes from one
// process would otherwise race the (max_ts+1, pid) tag choice and could
// mint duplicate tags, and FIFO also gives drivers per-key program
// order. list_keys() has no key and never queues. This FIFO is the only
// one in the system: a sharded client (ShardRouter) keeps each key's
// operations inside one AbdClient (holds()) and moves a redirected key's
// whole queue at once (eject()/resume()), so it needs no queue of its
// own.
//
// One reply path: every reply, whatever its type, runs the same rule
// (Algorithm 5's, stated once in on_reply): take it only if it echoes
// the op's current attempt (seq) and its type answers the op's current
// round, merge its change set and restart on news, record the responder
// (a duplicate replaces its earlier answer), and finish the round once
// the responders form a weighted quorum. Each round takes one reply
// type: list_keys takes KEYS_A; collect, snap_freeze and snap_release
// take SNAP_A; every other kind takes R_A in phase 1 and W_A in phase 2.
// An ack of another type that echoes the op's id and seq counts for
// nothing.
//
// Change sets: every reply carries the server's change set C'. If C'
// contains changes the client has not seen, the client merges them and
// RESTARTS every started operation (Algorithm 5 lines 14-16/30-32 — the
// change set is client-level state, so all in-flight quorum accounting
// predates the merge, not just the op whose reply carried the news). An
// op in phase 1 restarts from phase 1; an op in phase 2 (a write whose
// tag is chosen, or a read's write-back of maxreg) re-runs only its ack
// round. That is safe because the value it writes is already fixed by a
// valid phase-1 quorum: every reply of that quorum was merged before the
// quorum check, so the responders formed a weighted quorum under the
// client's change set with no newer set reported, and the tag dominates
// every write completed before the op started. A re-run phase 1 could
// only produce the same value again (a write keeps its tag, a read
// writes back what it will return). The restarted ack round then
// completes only at a weighted quorum under the merged set, which is
// what makes the value visible to later operations. kCommit and kInstall
// follow the same rule from their first round. Deviations from the
// paper's literal pseudocode: newer sets are MERGED rather than adopted
// verbatim, a write keeps its once-chosen tag across restarts, and a
// phase-2 restart skips phase 1. The client caches the weight map
// derived from its set, recomputing it only when a merge grows the set,
// and skips the merge outright when a reply carries the very set object
// it last merged from that server: a reply's ChangeSetPtr points to an
// immutable set (see abd_messages.h) and the client's memo holds a
// reference, so the same pointer means the same contents, all of them
// already merged.
//
// Multi-register extension (beyond the paper): registers are named; the
// paper's register is key "". list_keys() discovers every key any
// completed write could have created, by collecting from a *weighted
// quorum* — a weighted quorum intersects every past write quorum, which
// a mere f+1-server sample does not (a weighted quorum may have fewer
// than f+1 members).
//
// Batched wire mode (off by default): set_batching(max_ops, max_delay)
// buffers phase broadcasts and coalesces them into one BatchRequest per
// flush — flushed as soon as `max_ops` frames are pending or `max_delay`
// after the first one, whichever comes first. Servers apply each frame
// individually and answer with one BatchReply the client demultiplexes,
// so per-key FIFO, unique write tags, change-set restarts, and retries
// are all untouched; only the per-operation message constant shrinks.
// set_batching(1, ...) IS the unbatched path, byte for byte.
//
// A deployment without transfers is the classical static-weight ABD
// baseline.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "core/config.h"
#include "runtime/env.h"
#include "storage/abd_messages.h"
#include "storage/migration_messages.h"
#include "storage/snapshot_messages.h"

namespace wrs {

class AbdClient {
  struct Op;  // one operation's state machine (defined below)

 public:
  using ReadCallback = std::function<void(const TaggedValue&)>;
  using WriteCallback = std::function<void(const Tag&)>;
  using KeysCallback = std::function<void(const std::vector<RegisterKey>&)>;

  /// One key's aggregate over a weighted quorum of SnapAcks: the max-tag
  /// replica, whether every quorum responder reported that same tag
  /// (unanimous => the tag is already committed at this quorum), and any
  /// routing flag a responder raised (frozen / moved).
  struct CollectEntry {
    RegisterKey key;
    TaggedValue reg;
    std::uint8_t flag = SnapEntry::kOk;
    ShardId owner = 0;        ///< valid when flag == SnapEntry::kMoved
    std::uint64_t epoch = 0;  ///< valid when flag == SnapEntry::kMoved
    bool unanimous = false;
  };
  using CollectCallback = std::function<void(const std::vector<CollectEntry>&)>;
  using ReleaseCallback = std::function<void(bool all_held)>;

  /// What an operation is doing (public so EjectedOp can carry it).
  enum class OpKind {
    kRead,
    kWrite,
    kListKeys,
    kFreeze,
    kCommit,
    kCollect,      ///< snapshot collect round (SnapReq)
    kInstall,      ///< snapshot write-back: phase-2 write with a preset tag
    kSnapFreeze,   ///< fenced-fallback round 1 (SnapFreeze)
    kSnapRelease,  ///< fenced-fallback round 2 (SnapRelease)
  };

  AbdClient(Env& env, ProcessId self, const SystemConfig& config);

  /// Atomic read of register `key`; cb fires once with the (tag, value)
  /// read. Pipelined: any number of operations may be in flight;
  /// operations on the same key run in issue order.
  OpId read(RegisterKey key, ReadCallback cb);
  OpId read(ReadCallback cb) { return read(RegisterKey{}, std::move(cb)); }

  /// Atomic write; cb fires once with the tag the value was written
  /// under. Same pipelining rules as read().
  OpId write(RegisterKey key, Value value, WriteCallback cb);
  OpId write(Value value, WriteCallback cb) {
    return write(RegisterKey{}, std::move(value), std::move(cb));
  }

  /// Discovers every register key stored at some weighted quorum. Never
  /// queued behind keyed operations.
  OpId list_keys(KeysCallback cb);

  // --- elastic resharding (MigrationEngine verbs) --------------------------

  /// Freeze `key` at this group behind map epoch `epoch` and collect the
  /// final read: cb fires with the max-tag replica of a weighted quorum
  /// of freeze acks. One-round (no write-back); `dest` is advisory.
  OpId freeze_key(RegisterKey key, std::uint64_t epoch, ShardId dest,
                  ReadCallback cb);

  /// Commit "key is owned by `owner` as of `epoch`" at this group; the
  /// destination-side round carries the frozen replica in `install`. cb
  /// fires once a weighted quorum acked. One-round (ack collection only).
  OpId commit_mark(RegisterKey key, ShardId owner, std::uint64_t epoch,
                   std::optional<TaggedValue> install, WriteCallback cb);

  // --- cross-shard snapshots (ShardRouter::snapshot verbs) -----------------

  /// One snapshot collect round: reads the (tag, value) of every listed
  /// key from a weighted quorum in a single round trip; cb fires with
  /// one CollectEntry per key (same order). Never queued behind keyed
  /// operations, never batched.
  OpId collect(std::vector<RegisterKey> keys, CollectCallback cb);

  /// Fenced-fallback round 1: fence `keys` under `snap_id` at a weighted
  /// quorum and return their replicas (same aggregate as collect()). A
  /// key a responder could not fence (migration fence, foreign snapshot,
  /// moved) comes back flagged — the caller must abort via
  /// snap_release() with lift-only entries.
  OpId snap_freeze(SnapId snap_id, std::vector<RegisterKey> keys,
                   CollectCallback cb);

  /// Fenced-fallback round 2: installs entries flagged kOk
  /// tag-monotonically, lifts the named fences, drains parked requests.
  /// Only the servers whose replies formed `snap_id`'s freeze aggregate
  /// vouch: cb fires with all_held = true iff a weighted quorum of them
  /// still held every named fence (false => a fence was lost, or a voter
  /// stayed silent for a fence lease, kSnapLease, and the round must be
  /// discarded).
  OpId snap_release(SnapId snap_id, std::vector<SnapEntry> installs,
                    ReleaseCallback cb);

  /// Snapshot write-back: a phase-2-only write of a PRESET (tag, value)
  /// (the double-collect confirmation writes back non-unanimous keys).
  /// Tag-monotone and idempotent, like any ABD write-back. Bypasses the
  /// per-key FIFO: it races no tag choice (its tag is fixed) and must
  /// not deadlock behind requests parked at a fenced server.
  OpId install(RegisterKey key, TaggedValue reg, WriteCallback cb);

  /// A started operation extracted for reissue at another shard after a
  /// WrongShardAck redirect (ShardRouter): the operation itself, moved
  /// whole. A write keeps its once-chosen tag — the ghost-tag argument
  /// for change-set restarts applies unchanged to cross-shard reissue.
  using EjectedOp = Op;

  /// Removes operation `id` together with every operation queued behind
  /// it on its key, and returns their reissuable state in issue order:
  /// the redirect moves the key's whole queue, and nothing of it starts
  /// here. Empty when the op is unknown, already completed, or not
  /// reissuable (kListKeys and the migration verbs are never
  /// redirected). An install has no FIFO entry and leaves alone.
  std::vector<EjectedOp> eject(OpId id);

  /// Re-enqueues an ejected operation on THIS client (the redirect
  /// target). Runs the full two-phase protocol under a fresh OpId, from
  /// seq 1 with a fresh restart budget; resuming an eject() result in
  /// order keeps the key's issue order.
  OpId resume(EjectedOp op);

  /// True while an operation on `key` is in flight or queued here — a
  /// new operation on `key` must join this client's FIFO.
  bool holds(const RegisterKey& key) const {
    return key_fifo_.count(key) != 0;
  }

  /// Routes R_A / W_A / KEYS_A / SNAP_A replies (and BatchReply
  /// envelopes of them) into on_reply; true iff consumed. Replies whose
  /// OpId belongs to no in-flight operation are NOT consumed (they may
  /// target a co-located client sharing this mailbox, or be late acks of
  /// a completed operation).
  bool handle(ProcessId from, const Message& msg);

  /// True while any operation is in flight.
  bool busy() const { return !ops_.empty(); }
  /// Operations currently in flight (started + queued on a key FIFO).
  std::size_t in_flight() const { return ops_.size(); }
  /// High-water mark of concurrently STARTED operations (ops whose
  /// quorum rounds genuinely overlapped; FIFO-queued ops don't count) —
  /// lets tests assert that pipelining actually overlapped work.
  std::size_t max_in_flight() const { return max_started_; }

  /// The client's current change set.
  const ChangeSet& changes() const { return changes_; }

  /// Merges `changes`, published by the server that shares this client's
  /// ProcessId, exactly as a reply from that server carrying it would:
  /// started operations restart if the set grew, and that server's next
  /// reply carrying the same pointer skips the join.
  void merge_own_server_changes(const ChangeSetPtr& changes) {
    merge_and_maybe_restart(self_, changes);
  }

  /// Weight map the client currently derives quorums from (cached;
  /// always equal to changes().to_weight_map(servers)).
  const WeightMap& current_weights() const { return weights_; }

  /// Total operation restarts caused by newer change sets (EXP-S1).
  std::uint64_t restarts() const { return restarts_; }

  /// Safety valve for tests: maximum restarts per operation before the
  /// client reports a bug (liveness assumes finitely many transfers).
  void set_max_restarts(std::uint32_t m) { max_restarts_ = m; }

  /// Retransmission (off by default, interval <= 0): while an operation
  /// sits in the same (phase, seq) for `interval`, its current phase
  /// broadcast is re-sent with the SAME (op_id, seq) — servers are
  /// idempotent and duplicate replies collapse, so this is always safe.
  /// Required for liveness when the fault plane (Env::faults()) loses
  /// messages: without it a dropped quorum message stalls the operation
  /// forever, even after the link heals.
  void set_retry_interval(TimeNs interval) { retry_interval_ = interval; }

  /// Phase broadcasts re-sent by the retry timer (observability/tests).
  std::uint64_t retransmits() const { return retransmits_; }

  /// Batched wire mode. `max_ops` <= 1 disables it (the default) — that
  /// path is byte-identical to the pre-batching client. With batching on,
  /// every phase broadcast is buffered and the buffer is flushed as ONE
  /// BatchRequest to the group when it holds `max_ops` frames or
  /// `max_delay` after the first frame was buffered, whichever happens
  /// first (max_delay 0 still defers to a zero-delay callback, so every
  /// operation issued in the same handler tick coalesces).
  void set_batching(std::size_t max_ops, TimeNs max_delay);
  bool batching() const { return batch_max_ops_ > 1; }

  /// Envelopes flushed / frames carried by them (observability: the mean
  /// frames-per-envelope is batched_frames()/batches_sent()).
  std::uint64_t batches_sent() const { return batches_sent_; }
  std::uint64_t batched_frames() const { return batched_frames_; }

 private:
  /// One responder's answer in an op's current round (the last one it
  /// sent; a release keeps a voter's first).
  struct Reply {
    ProcessId from = 0;
    TaggedValue reg;                 ///< R_A: the server's register
    std::vector<SnapEntry> entries;  ///< SNAP_A of a collect or freeze
  };

  struct Op {
    OpId id = 0;
    OpKind kind = OpKind::kRead;
    RegisterKey key;
    Value value;  // payload for writes
    bool started = false;  // false while waiting on the per-key FIFO
    int phase = 1;
    std::uint32_t seq = 0;  // phase-attempt counter echoed in replies
    // Reply accounting is a flat vector, not a node-based set/map: a
    // replica group is a handful of servers, so membership checks are a
    // short linear scan and collection never allocates per reply.
    std::vector<Reply> replies;
    TaggedValue to_write;
    bool write_tag_chosen = false;
    ReadCallback rcb;
    WriteCallback wcb;
    KeysCallback kcb;
    TaggedValue read_result;
    std::set<RegisterKey> keys_acc;
    std::uint32_t op_restarts = 0;
    // Migration verbs (kFreeze/kCommit) only.
    std::uint64_t mig_epoch = 0;
    ShardId mig_owner = 0;  ///< freeze: advisory dest; commit: new owner
    std::optional<TaggedValue> mig_install;
    // Snapshot verbs (kCollect/kSnapFreeze/kSnapRelease) only.
    std::vector<RegisterKey> snap_keys;
    SnapId snap_id = 0;
    std::vector<SnapEntry> snap_installs;
    bool snap_all_held = true;
    /// Release only: the servers whose freeze replies formed the cut.
    std::vector<ProcessId> snap_voters;
    CollectCallback ccb;
    ReleaseCallback relcb;
  };

  /// One buffered phase broadcast awaiting the next envelope flush. The
  /// (id, seq) pair lets the flush skip frames whose operation completed
  /// or restarted while buffered.
  struct PendingFrame {
    OpId id = 0;
    std::uint32_t seq = 0;
    MsgPtr msg;
  };

  /// Kinds that have no register key: they bypass the per-key FIFO
  /// entirely (enqueue, eject, complete all skip FIFO bookkeeping).
  /// kInstall HAS a key but is still keyless-by-policy (see install()).
  static bool keyless(OpKind kind) {
    return kind == OpKind::kListKeys || kind == OpKind::kInstall ||
           snap_round(kind);
  }
  /// The snapshot verbs: single rounds answered by SNAP_A.
  static bool snap_round(OpKind kind) {
    return kind == OpKind::kCollect || kind == OpKind::kSnapFreeze ||
           kind == OpKind::kSnapRelease;
  }
  /// True iff a reply of type Ack answers `op`'s current round (see "One
  /// reply path" above).
  template <typename Ack>
  static bool answers(const Op& op);

  OpId enqueue(Op op);
  std::vector<CollectEntry> aggregate_snap(const Op& op) const;
  void start_phase1(Op& op);
  void start_phase2(Op& op);
  void broadcast_phase(const Op& op);
  void enqueue_frame(const Op& op, MsgPtr msg);
  void flush_batch();
  void schedule_retry(OpId id, std::uint32_t seq);
  template <typename Ack>
  bool on_reply(ProcessId from, const Ack& ack);
  void round_done(Op& op);
  void complete(OpId id);
  bool merge_and_maybe_restart(ProcessId from, const ChangeSetPtr& incoming);
  bool responders_form_quorum(const std::vector<Reply>& replies) const;
  static OpId fresh_op_id();

  Env& env_;
  ProcessId self_;
  SystemConfig config_;
  /// The group's server ids, cached: broadcasts go to exactly this set
  /// (one replica group of a possibly sharded deployment), never to
  /// every server registered in the Env.
  std::vector<ProcessId> servers_;
  Weight initial_total_;

  ChangeSet changes_;
  /// The weights quorums are checked against,
  /// changes_.to_weight_map(servers_), refreshed exactly where changes_
  /// grows.
  WeightMap weights_;
  /// Per server, the last change set merged from its replies. A reply
  /// carrying that same pointer holds nothing new: its join is skipped.
  FlatMap<ProcessId, ChangeSetPtr> merged_from_;
  /// Concurrent operation state machines, keyed by OpId. A node map,
  /// not a FlatMap: an Op is a few hundred bytes of callbacks and
  /// vectors, and although inserts land at the back (OpIds grow
  /// monotonically), completing any op but the newest would shift every
  /// later one. Nodes stay put, so an Op& survives inserts and erases of
  /// other ops. Iteration is in OpId order, the order
  /// merge_and_maybe_restart restarts ops in.
  std::map<OpId, Op> ops_;
  /// Issue-order FIFO per key; the front op is the started one.
  FlatMap<RegisterKey, std::deque<OpId>> key_fifo_;
  std::size_t started_count_ = 0;
  std::size_t max_started_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint32_t max_restarts_ = 10'000;
  TimeNs retry_interval_ = 0;
  std::uint64_t retransmits_ = 0;

  // --- batched wire mode ---------------------------------------------------
  std::size_t batch_max_ops_ = 1;  // <= 1: unbatched (byte-identical)
  TimeNs batch_max_delay_ = 0;
  std::vector<PendingFrame> batch_buf_;
  /// Bumped on every flush and every armed timer; a timer only fires its
  /// flush when its generation is still current (stale timers of already
  /// flushed batches must not split the batch that followed them).
  std::uint64_t batch_timer_gen_ = 0;
  /// Responders of each completed freeze round, until its release.
  FlatMap<SnapId, std::vector<ProcessId>> freeze_voters_;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t batched_frames_ = 0;
};

}  // namespace wrs
