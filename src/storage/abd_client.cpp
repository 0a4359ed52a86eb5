#include "storage/abd_client.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <type_traits>

#include "common/logging.h"
#include "runtime/msg_pool.h"

namespace wrs {

namespace {
// Op ids are unique across every AbdClient instance in the process so
// that two clients co-located in one Process (e.g. a storage node's
// refresh reader plus a workload client) never confuse replies.
std::atomic<std::uint64_t> g_next_op_id{1};
}  // namespace

AbdClient::AbdClient(Env& env, ProcessId self, const SystemConfig& config)
    : env_(env),
      self_(self),
      config_(config),
      servers_(config.servers()),
      initial_total_(config.initial_total()),
      changes_(ChangeSet::initial(config.initial_weights)),
      weights_(changes_.to_weight_map(servers_)) {}

OpId AbdClient::fresh_op_id() {
  return g_next_op_id.fetch_add(1, std::memory_order_relaxed);
}

OpId AbdClient::read(RegisterKey key, ReadCallback cb) {
  Op op;
  op.kind = OpKind::kRead;
  op.key = std::move(key);
  op.rcb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::write(RegisterKey key, Value value, WriteCallback cb) {
  Op op;
  op.kind = OpKind::kWrite;
  op.key = std::move(key);
  op.value = std::move(value);
  op.wcb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::list_keys(KeysCallback cb) {
  Op op;
  op.kind = OpKind::kListKeys;
  op.kcb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::freeze_key(RegisterKey key, std::uint64_t epoch, ShardId dest,
                           ReadCallback cb) {
  Op op;
  op.kind = OpKind::kFreeze;
  op.key = std::move(key);
  op.mig_epoch = epoch;
  op.mig_owner = dest;
  op.rcb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::commit_mark(RegisterKey key, ShardId owner,
                            std::uint64_t epoch,
                            std::optional<TaggedValue> install,
                            WriteCallback cb) {
  Op op;
  op.kind = OpKind::kCommit;
  op.key = std::move(key);
  op.mig_epoch = epoch;
  op.mig_owner = owner;
  op.mig_install = std::move(install);
  op.wcb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::collect(std::vector<RegisterKey> keys, CollectCallback cb) {
  Op op;
  op.kind = OpKind::kCollect;
  op.snap_keys = std::move(keys);
  op.ccb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::snap_freeze(SnapId snap_id, std::vector<RegisterKey> keys,
                            CollectCallback cb) {
  Op op;
  op.kind = OpKind::kSnapFreeze;
  op.snap_id = snap_id;
  op.snap_keys = std::move(keys);
  op.ccb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::snap_release(SnapId snap_id, std::vector<SnapEntry> installs,
                             ReleaseCallback cb) {
  Op op;
  op.kind = OpKind::kSnapRelease;
  op.snap_id = snap_id;
  op.snap_installs = std::move(installs);
  auto voters = freeze_voters_.find(snap_id);
  if (voters != freeze_voters_.end()) {
    op.snap_voters = std::move(voters->second);
    freeze_voters_.erase(voters);
  }
  op.relcb = std::move(cb);
  return enqueue(std::move(op));
}

OpId AbdClient::install(RegisterKey key, TaggedValue reg, WriteCallback cb) {
  Op op;
  op.kind = OpKind::kInstall;
  op.key = std::move(key);
  op.to_write = std::move(reg);
  op.write_tag_chosen = true;  // the tag is preset: never re-minted
  op.wcb = std::move(cb);
  return enqueue(std::move(op));
}

std::vector<AbdClient::EjectedOp> AbdClient::eject(OpId id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return {};
  OpKind kind = it->second.kind;
  if (kind != OpKind::kRead && kind != OpKind::kWrite &&
      kind != OpKind::kInstall) {
    return {};
  }
  auto take = [this](OpId op_id) {
    auto node = ops_.extract(op_id);
    if (node.mapped().started) --started_count_;
    return std::move(node.mapped());
  };
  std::vector<EjectedOp> out;
  if (keyless(kind)) {  // kInstall: no FIFO entry
    out.push_back(take(id));
    return out;
  }
  // The op and everything queued behind it on its key leave together, so
  // the key's operations stay in one FIFO — at the redirect target.
  auto fit = key_fifo_.find(it->second.key);
  std::deque<OpId>& fifo = fit->second;
  auto from = std::find(fifo.begin(), fifo.end(), id);
  for (auto q = from; q != fifo.end(); ++q) out.push_back(take(*q));
  fifo.erase(from, fifo.end());
  if (fifo.empty()) key_fifo_.erase(fit);
  return out;
}

OpId AbdClient::resume(EjectedOp op) {
  // A fresh attempt here: the old client's attempts and restarts were
  // spent against another group. The chosen tag stays.
  op.started = false;
  op.seq = 0;
  op.op_restarts = 0;
  return enqueue(std::move(op));
}

OpId AbdClient::enqueue(Op op) {
  OpId id = fresh_op_id();
  op.id = id;
  OpKind kind = op.kind;
  RegisterKey key = op.key;
  Op& slot = ops_.emplace(id, std::move(op)).first->second;
  if (keyless(kind)) {
    // Keyless ops (discovery, snapshot verbs, installs) are never
    // serialized behind keyed traffic.
    start_phase1(slot);
    return id;
  }
  std::deque<OpId>& fifo = key_fifo_[key];
  fifo.push_back(id);
  if (fifo.size() == 1) start_phase1(slot);
  return id;
}

void AbdClient::start_phase1(Op& op) {
  if (!op.started) {
    op.started = true;
    ++started_count_;
    max_started_ = std::max(max_started_, started_count_);
  }
  if (op.kind == OpKind::kCommit || op.kind == OpKind::kInstall) {
    // One-round verbs that only collect WriteAcks (a commit's mark round,
    // a snapshot install of a preset tag): every (re)start — including
    // change-set restarts — re-runs the ack phase directly.
    start_phase2(op);
    return;
  }
  op.phase = 1;
  ++op.seq;
  op.replies.clear();
  op.keys_acc.clear();
  op.snap_all_held = true;
  broadcast_phase(op);
  schedule_retry(op.id, op.seq);
  if (op.kind == OpKind::kSnapRelease && op.seq == 1) {
    env_.schedule(self_, kSnapLease, [this, id = op.id] {
      auto it = ops_.find(id);
      if (it == ops_.end()) return;  // completed
      // A lease after the freeze round, a voter still silent has lost
      // its fences or is gone: nobody can vouch for the cut any more.
      // Lift what a voter that missed the release may hold, install
      // nothing, and give up.
      Op& op = it->second;
      for (SnapEntry& e : op.snap_installs) e.flag = SnapEntry::kFrozen;
      ++retransmits_;
      broadcast_phase(op);
      op.snap_all_held = false;
      complete(id);
    });
  }
}

void AbdClient::start_phase2(Op& op) {
  op.phase = 2;
  ++op.seq;
  op.replies.clear();
  broadcast_phase(op);
  schedule_retry(op.id, op.seq);
}

void AbdClient::broadcast_phase(const Op& op) {
  MsgPtr req;
  if (op.kind == OpKind::kFreeze) {
    req = make_msg<MigFreeze>(op.id, op.key, op.mig_epoch,
                                      op.mig_owner, op.seq, config_.shard);
  } else if (op.kind == OpKind::kCommit) {
    req = make_msg<MigCommit>(op.id, op.key, op.mig_owner,
                                      op.mig_epoch, op.mig_install, op.seq,
                                      config_.shard);
  } else if (op.kind == OpKind::kCollect) {
    req = make_msg<SnapReq>(op.id, op.snap_keys, op.seq, config_.shard);
  } else if (op.kind == OpKind::kSnapFreeze) {
    req = make_msg<SnapFreeze>(op.id, op.snap_id, op.snap_keys, op.seq,
                               config_.shard);
  } else if (op.kind == OpKind::kSnapRelease) {
    req = make_msg<SnapRelease>(op.id, op.snap_id, op.snap_installs, op.seq,
                                config_.shard);
  } else if (op.phase == 2) {
    req = make_msg<WriteReq>(op.id, op.to_write, op.key, op.seq,
                                     config_.shard);
  } else if (op.kind == OpKind::kListKeys) {
    req = make_msg<KeysReq>(op.id, op.seq, config_.shard);
  } else {
    req = make_msg<ReadReq>(op.id, op.key, op.seq, config_.shard);
  }
  // Migration and snapshot verbs never coalesce: servers apply them
  // outside the batched-frame path (fences and collects are rare control
  // traffic, not hot ops). Installs are plain WriteReqs and batch freely.
  if (!batching() || op.kind == OpKind::kFreeze ||
      op.kind == OpKind::kCommit || snap_round(op.kind)) {
    env_.broadcast_to_group(self_, servers_, req);
    return;
  }
  enqueue_frame(op, std::move(req));
}

void AbdClient::set_batching(std::size_t max_ops, TimeNs max_delay) {
  if (max_delay < 0) {
    throw std::invalid_argument("AbdClient: batching max_delay must be >= 0");
  }
  batch_max_ops_ = max_ops == 0 ? 1 : max_ops;
  batch_max_delay_ = max_delay;
  if (!batching()) flush_batch();  // turned off mid-run: drain the buffer
}

void AbdClient::enqueue_frame(const Op& op, MsgPtr msg) {
  batch_buf_.push_back(PendingFrame{op.id, op.seq, std::move(msg)});
  if (batch_buf_.size() >= batch_max_ops_) {
    flush_batch();
    return;
  }
  if (batch_buf_.size() > 1) return;  // the first frame already armed a timer
  // Arm the max_delay timer for THIS batch. The generation check makes
  // a timer whose batch was already flushed (by count, or by an earlier
  // timer) a no-op instead of prematurely splitting the next batch.
  std::uint64_t gen = ++batch_timer_gen_;
  env_.schedule(self_, batch_max_delay_, [this, gen] {
    if (gen != batch_timer_gen_) return;  // batch superseded: stale timer
    flush_batch();
  });
}

void AbdClient::flush_batch() {
  ++batch_timer_gen_;  // any armed timer belongs to the batch ending here
  if (batch_buf_.empty()) return;
  std::vector<MsgPtr> frames;
  frames.reserve(batch_buf_.size());
  for (PendingFrame& f : batch_buf_) {
    // Skip frames whose operation completed or restarted (bumped seq)
    // while buffered — the servers would only produce stale replies.
    auto it = ops_.find(f.id);
    if (it == ops_.end() || it->second.seq != f.seq) continue;
    frames.push_back(std::move(f.msg));
  }
  batch_buf_.clear();
  if (frames.empty()) return;
  ++batches_sent_;
  batched_frames_ += frames.size();
  env_.broadcast_to_group(
      self_, servers_,
      make_msg<BatchRequest>(config_.shard, std::move(frames)));
}

void AbdClient::schedule_retry(OpId id, std::uint32_t seq) {
  if (retry_interval_ <= 0) return;
  env_.schedule(self_, retry_interval_, [this, id, seq] {
    auto it = ops_.find(id);
    if (it == ops_.end()) return;       // completed
    const Op& op = it->second;
    if (!op.started || op.seq != seq) return;  // progressed or restarted
    // Same (op_id, seq) on the wire: servers re-reply, the client's
    // per-server reply maps absorb duplicates.
    ++retransmits_;
    broadcast_phase(op);
    schedule_retry(id, seq);
  });
}

void AbdClient::complete(OpId id) {
  // Out of ops_ before the callbacks below run (they may issue new
  // operations); extract unlinks the node, so the Op itself stays put.
  auto node = ops_.extract(id);
  Op& finished = node.mapped();
  --started_count_;  // only started ops complete
  if (!keyless(finished.kind)) {
    // Release the key FIFO and start the successor, if any, BEFORE the
    // callback runs: the callback may issue new operations on this key.
    auto fit = key_fifo_.find(finished.key);
    fit->second.pop_front();
    if (fit->second.empty()) {
      key_fifo_.erase(fit);
    } else {
      start_phase1(ops_.at(fit->second.front()));
    }
  }
  switch (finished.kind) {
    case OpKind::kRead:
    case OpKind::kFreeze:
      finished.rcb(finished.read_result);
      break;
    case OpKind::kWrite:
    case OpKind::kCommit:
    case OpKind::kInstall:
      finished.wcb(finished.to_write.tag);
      break;
    case OpKind::kListKeys: {
      std::vector<RegisterKey> keys(finished.keys_acc.begin(),
                                    finished.keys_acc.end());
      finished.kcb(keys);
      break;
    }
    case OpKind::kSnapFreeze: {
      std::vector<ProcessId>& voters = freeze_voters_[finished.snap_id];
      voters.clear();
      for (const Reply& r : finished.replies) voters.push_back(r.from);
      [[fallthrough]];
    }
    case OpKind::kCollect:
      finished.ccb(aggregate_snap(finished));
      break;
    case OpKind::kSnapRelease:
      finished.relcb(finished.snap_all_held);
      break;
  }
}

std::vector<AbdClient::CollectEntry> AbdClient::aggregate_snap(
    const Op& op) const {
  // Per-key fold over the quorum's SnapAck entry vectors: max tag over
  // kOk entries, unanimity of that tag, and any raised routing flag
  // (kMoved wins over kFrozen — it carries the override the router
  // needs; either one fails the round).
  std::vector<CollectEntry> out(op.snap_keys.size());
  for (std::size_t i = 0; i < op.snap_keys.size(); ++i) {
    CollectEntry& ce = out[i];
    ce.key = op.snap_keys[i];
    bool first = true;
    for (const Reply& r : op.replies) {
      if (r.entries.size() != op.snap_keys.size()) continue;  // malformed
      const SnapEntry& e = r.entries[i];
      if (e.flag != SnapEntry::kOk) {
        if (ce.flag == SnapEntry::kOk || e.flag == SnapEntry::kMoved) {
          ce.flag = e.flag;
          ce.owner = e.owner;
          ce.epoch = e.epoch;
        }
        continue;
      }
      if (first) {
        ce.reg = e.reg;
        ce.unanimous = true;
        first = false;
      } else {
        if (e.reg.tag != ce.reg.tag) ce.unanimous = false;
        if (ce.reg.tag < e.reg.tag) ce.reg = e.reg;
      }
    }
    if (ce.flag != SnapEntry::kOk) ce.unanimous = false;
  }
  return out;
}

bool AbdClient::merge_and_maybe_restart(ProcessId from,
                                        const ChangeSetPtr& incoming) {
  if (!incoming) return false;
  // The set `from` sent last time, already merged and immutable: a join
  // would add nothing.
  ChangeSetPtr& last = merged_from_[from];
  if (last == incoming) return false;
  std::size_t added = changes_.join(*incoming);
  last = incoming;
  if (added == 0) return false;
  weights_ = changes_.to_weight_map(servers_);
  // Learned of newer completed changes: the change set is client-level
  // state, so EVERY started operation's quorum accounting predates the
  // merge — restart them all under the new weights (Algorithm 5 "restart
  // the operation"). An op in phase 2 re-runs only its ack round: its
  // tagged value came from a valid phase-1 quorum (safety argument in
  // abd_client.h, "Change sets").
  for (auto& [id, op] : ops_) {
    if (!op.started) continue;
    ++restarts_;
    if (++op.op_restarts > max_restarts_) {
      throw std::logic_error(
          "AbdClient: restart budget exhausted — unbounded concurrent "
          "transfers?");
    }
    if (op.phase == 2) {
      start_phase2(op);
    } else {
      start_phase1(op);
    }
  }
  return true;
}

bool AbdClient::responders_form_quorum(
    const std::vector<Reply>& replies) const {
  // Algorithm 5 is_quorum: responders' total weight under the client's
  // current change set must exceed W_{S,0}/2.
  Weight sum(0);
  for (const Reply& r : replies) sum += weights_.of(r.from);
  return sum * Weight(2) > initial_total_;
}

template <typename Ack>
bool AbdClient::answers(const Op& op) {
  // Resolved at compile time on Ack: the per-reply test is a few
  // compares, with no type-id lookup.
  if constexpr (std::is_same_v<Ack, KeysAck>) {
    return op.kind == OpKind::kListKeys;
  } else if constexpr (std::is_same_v<Ack, SnapAck>) {
    return snap_round(op.kind);
  } else {
    if (op.kind == OpKind::kListKeys || snap_round(op.kind)) return false;
    return op.phase == (std::is_same_v<Ack, ReadAck> ? 1 : 2);
  }
}

template <typename Ack>
bool AbdClient::on_reply(ProcessId from, const Ack& ack) {
  auto it = ops_.find(ack.op_id());
  if (it == ops_.end()) return false;  // not mine (or long completed)
  Op& op = it->second;
  if (ack.seq() != op.seq || !answers<Ack>(op)) {
    return true;  // stale (a restarted attempt's, or another round's)
  }
  if (merge_and_maybe_restart(from, ack.changes())) return true;
  auto slot = std::find_if(op.replies.begin(), op.replies.end(),
                           [from](const Reply& r) { return r.from == from; });
  const bool first = slot == op.replies.end();
  if constexpr (std::is_same_v<Ack, SnapAck>) {
    if (op.kind == OpKind::kSnapRelease) {
      // Only a server whose freeze reply went into the cut can vouch that
      // its fences stood until the release, and only its first answer
      // counts (a retransmit's echo finds the fence already lifted). One
      // lost fence poisons the round: the caller discards and retries.
      if (!first || std::find(op.snap_voters.begin(), op.snap_voters.end(),
                              from) == op.snap_voters.end()) {
        return true;
      }
      if (!ack.held()) op.snap_all_held = false;
    }
  }
  if (first) {
    slot = op.replies.emplace(op.replies.end());
    slot->from = from;
  }
  // A duplicate reply replaces the earlier one: the last one wins.
  if constexpr (std::is_same_v<Ack, ReadAck>) {
    slot->reg = ack.reg();
  } else if constexpr (std::is_same_v<Ack, SnapAck>) {
    slot->entries = ack.entries();
  } else if constexpr (std::is_same_v<Ack, KeysAck>) {
    for (const auto& key : ack.keys()) op.keys_acc.insert(key);
  }
  if (responders_form_quorum(op.replies)) round_done(op);
  return true;
}

void AbdClient::round_done(Op& op) {
  if (op.phase == 2 || op.kind == OpKind::kListKeys ||
      snap_round(op.kind)) {
    // An ack round (write, write-back, commit, install) or a one-round
    // collect (list_keys, snapshot rounds): the quorum is the result.
    if (op.phase == 2 && op.kind == OpKind::kRead) {
      env_.count_event(TrafficLedger::kReadsWriteBack);
    }
    complete(op.id);
    return;
  }

  // Phase 1 complete: pick the highest tag.
  TaggedValue maxreg;
  for (const Reply& r : op.replies) {
    if (maxreg.tag < r.reg.tag) maxreg = r.reg;
  }
  if (op.kind == OpKind::kFreeze) {
    // The freeze IS the final read: a quorum of fence acks intersects
    // every completed write quorum, so maxreg is the definitive replica
    // to hand to the destination. No write-back round.
    op.read_result = maxreg;
    complete(op.id);
    return;
  }
  if (op.kind == OpKind::kRead) {
    op.read_result = maxreg;
    // A unanimous quorum already holds maxreg: no write-back (the
    // safety argument is in abd_client.h, "One-round reads").
    if (std::all_of(op.replies.begin(), op.replies.end(),
                    [&maxreg](const Reply& r) {
                      return r.reg.tag == maxreg.tag;
                    })) {
      env_.count_event(TrafficLedger::kReadsFastPath);
      complete(op.id);
      return;
    }
    op.to_write = maxreg;  // write-back phase
  } else {
    // Choose the write's tag exactly once, even across change-set
    // restarts: re-tagging the same value would leave "ghost" tags on
    // servers that partially received an earlier phase 2. The original
    // tag already dominates every write completed before this
    // operation started (it came from a quorum read), which is all
    // atomicity requires.
    if (!op.write_tag_chosen) {
      op.to_write.tag = Tag{maxreg.tag.ts + 1, self_};
      op.write_tag_chosen = true;
    }
    op.to_write.value = op.value;
  }
  start_phase2(op);
}

bool AbdClient::handle(ProcessId from, const Message& msg) {
  if (const auto* batch = msg_cast<BatchReply>(msg)) {
    // Demultiplex the envelope back into the per-operation state
    // machines. A frame may restart or complete operations whose later
    // frames are also in this envelope — the ordinary per-frame seq and
    // liveness checks in on_reply absorb that, exactly as they absorb a
    // reordered stream of individual replies.
    bool any = false;
    for (const MsgPtr& frame : batch->frames()) {
      if (handle(from, *frame)) any = true;
    }
    return any;
  }
  if (const auto* ack = msg_cast<ReadAck>(msg)) return on_reply(from, *ack);
  if (const auto* ack = msg_cast<WriteAck>(msg)) return on_reply(from, *ack);
  if (const auto* ack = msg_cast<SnapAck>(msg)) return on_reply(from, *ack);
  if (const auto* ack = msg_cast<KeysAck>(msg)) return on_reply(from, *ack);
  return false;
}

}  // namespace wrs
