#include "shard/shard_router.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

namespace wrs {

namespace {

/// Collect rounds a snapshot tries before engaging the fenced fallback
/// (a double collect needs at least two).
constexpr std::uint32_t kSnapMaxCollectRounds = 6;

std::vector<std::size_t> every_index(std::size_t n) {
  std::vector<std::size_t> idxs(n);
  std::iota(idxs.begin(), idxs.end(), std::size_t{0});
  return idxs;
}

}  // namespace

ShardRouter::ShardRouter(Env& env, ProcessId self, ShardMap map)
    : map_(std::move(map)), self_(self) {
  clients_.reserve(map_.num_shards());
  for (ShardId g = 0; g < map_.num_shards(); ++g) {
    clients_.push_back(std::make_unique<AbdClient>(env, self, map_.config(g)));
  }
}

AbdClient& ShardRouter::client_for(const RegisterKey& key) {
  // A key with operations in flight stays with the client holding them,
  // even after the map learned a new owner: its queue moves only as a
  // whole, on a redirect.
  for (const auto& c : clients_) {
    if (c->holds(key)) return *c;
  }
  return *clients_[map_.shard_of(key)];
}

OpId ShardRouter::read(RegisterKey key, AbdClient::ReadCallback cb) {
  return client_for(key).read(std::move(key), std::move(cb));
}

OpId ShardRouter::write(RegisterKey key, Value value,
                        AbdClient::WriteCallback cb) {
  return client_for(key).write(std::move(key), std::move(value),
                               std::move(cb));
}

OpId ShardRouter::list_keys(AbdClient::KeysCallback cb) {
  struct FanOut {
    std::size_t remaining;
    std::set<RegisterKey> keys;
    AbdClient::KeysCallback cb;
  };
  auto state = std::make_shared<FanOut>();
  state->remaining = clients_.size();
  state->cb = std::move(cb);
  OpId first = 0;
  for (std::size_t g = 0; g < clients_.size(); ++g) {
    OpId id = clients_[g]->list_keys(
        [state](const std::vector<RegisterKey>& keys) {
          state->keys.insert(keys.begin(), keys.end());
          if (--state->remaining == 0) {
            state->cb(std::vector<RegisterKey>(state->keys.begin(),
                                               state->keys.end()));
          }
        });
    if (g == 0) first = id;
  }
  return first;
}

OpId ShardRouter::snapshot(std::vector<RegisterKey> keys, SnapshotCallback cb) {
  // Collapse duplicates, keeping first-occurrence order (the cut echoes
  // this order back).
  std::vector<RegisterKey> uniq;
  uniq.reserve(keys.size());
  std::set<RegisterKey> seen;
  for (auto& key : keys) {
    if (seen.insert(key).second) uniq.push_back(std::move(key));
  }
  auto st = std::make_shared<SnapState>();
  st->keys = std::move(uniq);
  st->cb = std::move(cb);
  if (st->keys.empty()) {
    st->cb(SnapshotResult{});
    return 0;
  }
  st->acc.resize(st->keys.size());
  st->seen.resize(st->keys.size());
  return snap_collect_round(std::move(st));
}

ShardRouter::Parts ShardRouter::snap_partition(
    const SnapState& st, const std::vector<std::size_t>& idxs) const {
  // Group key indices by their CURRENT shard (a retried round or a
  // re-collect re-reads the map, so overrides learned from moved flags
  // take effect). The handful of involved shards makes the linear scan
  // cheaper than a map.
  Parts parts;
  for (std::size_t i : idxs) {
    ShardId g = map_.shard_of(st.keys[i]);
    auto it = std::find_if(parts.begin(), parts.end(),
                           [g](const auto& p) { return p.first == g; });
    if (it == parts.end()) {
      parts.emplace_back(g, std::vector<std::size_t>{i});
    } else {
      it->second.push_back(i);
    }
  }
  return parts;
}

OpId ShardRouter::snap_collect_round(SnapPtr st) {
  ++st->rounds;
  ++snapshot_rounds_;
  return snap_collect(st, every_index(st->keys.size()));
}

OpId ShardRouter::snap_collect(const SnapPtr& st,
                               const std::vector<std::size_t>& which) {
  OpId first = 0;
  for (auto& part : snap_partition(*st, which)) {
    const ShardId g = part.first;
    std::vector<RegisterKey> ks;
    ks.reserve(part.second.size());
    for (std::size_t i : part.second) ks.push_back(st->keys[i]);
    ++st->pending;
    OpId id = clients_[g]->collect(
        std::move(ks), [this, st, g, idxs = std::move(part.second)](
                           const std::vector<AbdClient::CollectEntry>& es) {
          std::vector<std::size_t> moved;
          for (std::size_t j = 0; j < idxs.size(); ++j) {
            const AbdClient::CollectEntry& ce = es[j];
            st->acc[idxs[j]] = ce;
            if (ce.flag != SnapEntry::kMoved) continue;
            // A key that left this group is re-collected at its new
            // owner within the round; a relic mark that does not move
            // the map leaves the key flagged instead.
            map_.apply_override(ce.key, ce.owner, ce.epoch);
            if (map_.shard_of(ce.key) != g) moved.push_back(idxs[j]);
          }
          if (!moved.empty()) snap_collect(st, moved);
          if (--st->pending == 0) snap_collect_done(st);
        });
    if (first == 0) first = id;
  }
  return first;
}

void ShardRouter::snap_collect_done(SnapPtr st) {
  // The round confirms when every key is clean in it and shows the tag
  // of its latest earlier clean observation (argument in the header). A
  // flagged key records nothing; the other keys keep their observations.
  bool same = true;
  for (std::size_t i = 0; i < st->acc.size(); ++i) {
    const AbdClient::CollectEntry& ce = st->acc[i];
    if (ce.flag != SnapEntry::kOk) {
      same = false;
      continue;
    }
    if (st->seen[i] != ce.reg.tag) same = false;
    st->seen[i] = ce.reg.tag;
  }
  if (same) return snap_install_and_finish(std::move(st));
  if (st->rounds >= kSnapMaxCollectRounds) return snap_fallback(std::move(st));
  snap_collect_round(std::move(st));
}

void ShardRouter::snap_install_and_finish(SnapPtr st) {
  // Unanimous keys need no write-back, as for one-round reads (argument
  // in abd_client.h, "One-round reads"); a non-unanimous key's tag may
  // not appear in the cut before its write-back, or a crashed writer's
  // value could be visible here yet lost to later reads.
  std::vector<std::size_t> need;
  for (std::size_t i = 0; i < st->acc.size(); ++i) {
    if (!st->acc[i].unanimous) need.push_back(i);
  }
  if (need.empty()) return snap_finish(std::move(st));
  st->pending = need.size();
  for (std::size_t i : need) {
    const AbdClient::CollectEntry& ce = st->acc[i];
    clients_[map_.shard_of(ce.key)]->install(
        ce.key, ce.reg, [this, st](const Tag&) {
          if (--st->pending == 0) snap_finish(st);
        });
  }
}

void ShardRouter::snap_fallback(SnapPtr st) {
  st->used_fallback = true;
  ++snapshot_fallbacks_;
  // Fresh instance id per attempt: a retry must never be confused with
  // stale fences of its own previous attempt, and servers rank it by
  // its (counter, client) pair.
  st->snap_id = make_snap_id(self_, ++snap_seq_);
  st->frozen_parts = snap_partition(*st, every_index(st->keys.size()));
  st->pending = st->frozen_parts.size();
  for (auto& part : st->frozen_parts) {
    const std::vector<std::size_t>& idxs = part.second;
    std::vector<RegisterKey> ks;
    ks.reserve(idxs.size());
    for (std::size_t i : idxs) ks.push_back(st->keys[i]);
    clients_[part.first]->snap_freeze(
        st->snap_id, std::move(ks),
        [this, st, idxs](const std::vector<AbdClient::CollectEntry>& es) {
          for (std::size_t j = 0; j < idxs.size(); ++j) {
            st->acc[idxs[j]] = es[j];
          }
          if (--st->pending == 0) snap_freeze_done(st);
        });
  }
}

void ShardRouter::snap_freeze_done(SnapPtr st) {
  // Adopt only a fully clean freeze: a moved key, or a fence this
  // attempt already lost (kFrozen), aborts with a lift-only release.
  bool adopt = true;
  for (const AbdClient::CollectEntry& ce : st->acc) {
    if (ce.flag == SnapEntry::kMoved) {
      map_.apply_override(ce.key, ce.owner, ce.epoch);
      adopt = false;
    } else if (ce.flag != SnapEntry::kOk) {
      adopt = false;
    }
  }
  st->all_held = true;
  st->pending = st->frozen_parts.size();
  for (const auto& part : st->frozen_parts) {
    const std::vector<std::size_t>& idxs = part.second;
    std::vector<SnapEntry> installs;
    installs.reserve(idxs.size());
    for (std::size_t i : idxs) {
      SnapEntry e;
      e.key = st->keys[i];
      if (adopt) {
        e.reg = st->acc[i].reg;  // the scan embedded in our own update
      } else {
        e.flag = SnapEntry::kFrozen;  // lift-only: abort this attempt
      }
      installs.push_back(std::move(e));
    }
    clients_[part.first]->snap_release(
        st->snap_id, std::move(installs), [this, st, adopt](bool held) {
          if (!held) st->all_held = false;
          if (--st->pending != 0) return;
          if (adopt && st->all_held) return snap_finish(st);
          // Aborted, or a fence was lost to a higher-ranked holder or its
          // lease before we released it (a write may have slipped past
          // the cut): retry at once with a fresh, lower-ranked instance
          // id. Moved keys already taught the map, so the next attempt
          // freezes at the current owners.
          snap_fallback(st);
        });
  }
}

void ShardRouter::snap_finish(SnapPtr st) {
  ++snapshots_taken_;
  SnapshotResult r;
  r.rounds = st->rounds;
  r.used_fallback = st->used_fallback;
  r.cut.reserve(st->keys.size());
  for (std::size_t i = 0; i < st->keys.size(); ++i) {
    r.cut.emplace_back(st->keys[i], st->acc[i].reg);
  }
  st->cb(r);
}

bool ShardRouter::handle(ProcessId from, const Message& msg) {
  if (!is_server(from)) return false;
  // O(1) on the uniform shard-major layout — this is the per-reply hot
  // path (every quorum ack of every shard funnels through here).
  std::optional<ShardId> g = map_.try_shard_of_server(from);
  if (!g.has_value()) return false;  // outside every group (co-located)
  if (const auto* ws = msg_cast<WrongShardAck>(msg)) {
    map_.apply_override(ws->key(), ws->owner(), ws->epoch());
    ShardId cur = map_.shard_of(ws->key());
    // Only eject when the map moved the key off the sender's shard — a
    // redirect from a relic server (its mark predates a newer migration
    // this client already learned) must not bounce a correctly-routed op.
    if (cur == *g) return true;
    std::vector<AbdClient::EjectedOp> ops = clients_[*g]->eject(ws->op_id());
    if (ops.empty()) return true;  // completed, or reissued by an earlier ack
    ++redirects_;
    // The key's whole queue, in issue order: it stays one FIFO.
    for (AbdClient::EjectedOp& op : ops) clients_[cur]->resume(std::move(op));
    return true;
  }
  return clients_[*g]->handle(from, msg);
}

AbdClient& ShardRouter::shard_client(ShardId g) {
  map_.config(g);  // validates, naming offender + range
  return *clients_[g];
}


std::size_t ShardRouter::max_in_flight() const {
  std::size_t best = 0;
  for (const auto& c : clients_) best = std::max(best, c->max_in_flight());
  return best;
}

std::uint64_t ShardRouter::restarts() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) sum += c->restarts();
  return sum;
}

std::uint64_t ShardRouter::retransmits() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) sum += c->retransmits();
  return sum;
}

std::uint64_t ShardRouter::batches_sent() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) sum += c->batches_sent();
  return sum;
}

std::uint64_t ShardRouter::batched_frames() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) sum += c->batched_frames();
  return sum;
}

void ShardRouter::set_retry_interval(TimeNs interval) {
  for (const auto& c : clients_) c->set_retry_interval(interval);
}

void ShardRouter::set_batching(std::size_t max_ops, TimeNs max_delay) {
  for (const auto& c : clients_) c->set_batching(max_ops, max_delay);
}

}  // namespace wrs
