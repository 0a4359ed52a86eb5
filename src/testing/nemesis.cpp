#include "testing/nemesis.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace wrs::testing {

namespace {

std::string ms_str(TimeNs t) {
  std::ostringstream os;
  os << to_ms(t) << "ms";
  return os.str();
}

}  // namespace

Nemesis::Nemesis(Cluster& cluster, std::uint64_t seed, NemesisParams params)
    : cluster_(cluster), rng_(seed), params_(params) {}

std::vector<Nemesis::Kind> Nemesis::enabled_kinds() const {
  std::vector<Kind> kinds;
  if (params_.partitions) kinds.push_back(Kind::kSymPartition);
  if (params_.asymmetric) kinds.push_back(Kind::kAsymPartition);
  if (params_.drops) kinds.push_back(Kind::kDropStorm);
  if (params_.duplicates) kinds.push_back(Kind::kDupStorm);
  // The reorder knob is deployment-global on the simulator, so a
  // shard-scoped nemesis cannot use it without leaking faults into
  // other shards.
  if (params_.reorder && !params_.shard) kinds.push_back(Kind::kReorderWindow);
  if (params_.slow_downs) kinds.push_back(Kind::kSlow);
  if (params_.crash_budget > 0) kinds.push_back(Kind::kCrash);
  return kinds;
}

void Nemesis::note(TimeNs at, const std::string& text) {
  timeline_.push_back("t=" + ms_str(at) + " " + text);
}

void Nemesis::unleash() {
  if (unleashed_) throw std::logic_error("Nemesis: unleash() called twice");
  unleashed_ = true;

  // Victim pool: one shard's servers when scoped, every deployed server
  // otherwise (identical to config().servers() on unsharded clusters,
  // so pre-shard seeds replay the exact same timelines).
  victims_ = params_.shard ? cluster_.shard_servers(*params_.shard)
                           : cluster_.all_server_ids();
  std::uint32_t f = params_.shard ? cluster_.shard_config(*params_.shard).f
                                  : cluster_.config().f;
  std::uint32_t budget = std::min(params_.crash_budget, f);
  if (budget < params_.crash_budget) {
    // Crashing more than f servers (of one group) would kill its quorums
    // permanently; the nemesis never exceeds the model's fault budget.
    params_.crash_budget = budget;
  }
  crash_order_ = victims_;
  for (std::size_t i = crash_order_.size(); i > 1; --i) {
    std::swap(crash_order_[i - 1], crash_order_[rng_.below(i)]);
  }
  crash_order_.resize(budget);

  std::vector<Kind> kinds = enabled_kinds();
  if (kinds.empty()) return;

  TimeNs window = params_.horizon - params_.start;
  if (window <= params_.min_hold) {
    throw std::invalid_argument("Nemesis: horizon too close to start");
  }
  for (std::size_t e = 0; e < params_.events; ++e) {
    Kind kind = kinds[rng_.below(kinds.size())];
    if (kind == Kind::kCrash && crashes_scheduled_ >= budget) {
      kind = params_.slow_downs ? Kind::kSlow : Kind::kDropStorm;
      if (kind == Kind::kDropStorm && !params_.drops) continue;
    }
    TimeNs at = params_.start +
                static_cast<TimeNs>(rng_.below(
                    static_cast<std::uint64_t>(window - params_.min_hold)));
    TimeNs hold =
        params_.min_hold +
        static_cast<TimeNs>(rng_.below(static_cast<std::uint64_t>(
            params_.max_hold - params_.min_hold + 1)));
    TimeNs until = std::min(at + hold, params_.horizon);
    schedule_event(kind, at, until);
  }

  // Safety net: whatever overlapping heals missed, the deployment is
  // fault-free from the horizon on (slow factors are cleared per event).
  Cluster* c = &cluster_;
  cluster_.at(params_.horizon, [c] { c->heal_all_links(); });
  note(params_.horizon, "heal_all_links (horizon safety net)");
}

void Nemesis::schedule_storm(const std::string& label, double p, TimeNs at,
                             TimeNs until,
                             void (Cluster::*per_link)(ProcessId, ProcessId,
                                                       double),
                             void (Cluster::*global)(double)) {
  std::ostringstream os;
  os << label << " p=" << p
     << (params_.shard ? " (shard " + std::to_string(*params_.shard) + ")"
                       : "")
     << " until t=" << ms_str(until);
  note(at, os.str());
  Cluster* c = &cluster_;
  if (params_.shard) {
    // Shard-scoped: per-link rates on the shard's links only (the
    // network-wide knob would leak faults into other groups). Links are
    // enumerated when each application runs; a midpoint re-application
    // extends coverage to readers restarted inside the window (per-link
    // rates, unlike the global storm, cannot cover processes registered
    // after they were set). Teardown zeroes the shard's per-link rates:
    // like every Nemesis overlap (see the header), last writer wins, so
    // an overlapping scoped storm — or an externally set rate on these
    // links — can be ended early but never extended.
    std::vector<ProcessId> pool = victims_;
    auto set_links = [c, pool, per_link](double rate) {
      for (ProcessId s : pool) {
        for (ProcessId other : c->process_ids()) {
          if (other != s) (c->*per_link)(s, other, rate);
        }
      }
    };
    cluster_.at(at, [set_links, p] { set_links(p); });
    cluster_.at(at + (until - at) / 2, [set_links, p] { set_links(p); });
    cluster_.at(until, [set_links] { set_links(0); });
  } else {
    cluster_.at(at, [c, global, p] { (c->*global)(p); });
    cluster_.at(until, [c, global] { (c->*global)(0); });
  }
}

void Nemesis::schedule_event(Kind kind, TimeNs at, TimeNs until) {
  Cluster* c = &cluster_;
  // Scoped episodes draw every victim — including partition sides — from
  // the selected shard's servers, so other shards never see a fault.
  std::vector<ProcessId> all =
      params_.shard ? victims_ : cluster_.process_ids();
  const std::vector<ProcessId>& servers = victims_;

  switch (kind) {
    case Kind::kSymPartition: {
      // Random bipartition of every deployed process; both sides keep at
      // least one server so neither is trivially empty.
      std::vector<ProcessId> side;
      for (ProcessId p : all) {
        if (rng_() % 2 == 0) side.push_back(p);
      }
      auto has_server = [&](const std::vector<ProcessId>& v, bool inside) {
        for (ProcessId s : servers) {
          bool in = std::find(v.begin(), v.end(), s) != v.end();
          if (in == inside) return true;
        }
        return false;
      };
      if (!has_server(side, true)) side.push_back(servers[rng_.below(servers.size())]);
      if (!has_server(side, false)) {
        // Every server landed inside: pull one back out.
        ProcessId victim = servers[rng_.below(servers.size())];
        side.erase(std::remove(side.begin(), side.end(), victim), side.end());
      }
      std::ostringstream os;
      os << "partition {";
      for (ProcessId p : side) os << " " << process_name(p);
      os << " | rest }";
      note(at, os.str() + " until t=" + ms_str(until));
      cluster_.at(at, [c, side] { c->partition_split(side); });
      cluster_.at(until, [c, side] { c->heal_split(side); });
      break;
    }
    case Kind::kAsymPartition: {
      ProcessId victim = all[rng_.below(all.size())];
      bool outgoing = rng_() % 2 == 0;
      note(at, "asym partition " + process_name(victim) +
                   (outgoing ? " (mute: cannot send)" : " (deaf: cannot hear)") +
                   " until t=" + ms_str(until));
      // Both lambdas enumerate processes at execution time so readers
      // restarted mid-window are cut AND healed consistently.
      cluster_.at(at, [c, victim, outgoing] {
        for (ProcessId other : c->process_ids()) {
          if (other == victim) continue;
          if (outgoing) {
            c->env().faults().cut_one_way(victim, other);
          } else {
            c->env().faults().cut_one_way(other, victim);
          }
        }
      });
      cluster_.at(until, [c, victim, outgoing] {
        for (ProcessId other : c->process_ids()) {
          if (other == victim) continue;
          if (outgoing) {
            c->env().faults().heal_one_way(victim, other);
          } else {
            c->env().faults().heal_one_way(other, victim);
          }
        }
      });
      break;
    }
    case Kind::kDropStorm: {
      // Floor of 0.1 so storms bite, unless the configured cap is gentler.
      double lo = std::min(0.1, params_.drop_p_max);
      double p = lo + rng_.uniform() * (params_.drop_p_max - lo);
      schedule_storm("drop storm", p, at, until, &Cluster::drop_link,
                     &Cluster::drop_all_links);
      break;
    }
    case Kind::kDupStorm: {
      double lo = std::min(0.1, params_.dup_p_max);
      double p = lo + rng_.uniform() * (params_.dup_p_max - lo);
      schedule_storm("duplicate storm", p, at, until, &Cluster::duplicate_link,
                     &Cluster::duplicate_all_links);
      break;
    }
    case Kind::kReorderWindow: {
      double p = 0.2 + rng_.uniform() * 0.6;
      TimeNs extra = ms(1 + rng_.below(8));
      std::ostringstream os;
      os << "reorder window p=" << p << " extra<" << to_ms(extra)
         << "ms until t=" << ms_str(until);
      note(at, os.str());
      cluster_.at(at, [c, p, extra] { c->reorder_links(p, extra); });
      cluster_.at(until, [c] { c->reorder_links(0, 0); });
      break;
    }
    case Kind::kSlow: {
      ProcessId victim = servers[rng_.below(servers.size())];
      double factor = 2.0 + rng_.uniform() * 8.0;
      std::ostringstream os;
      os << "slow " << process_name(victim) << " x" << factor
         << " until t=" << ms_str(until);
      note(at, os.str());
      cluster_.at(at, [c, victim, factor] { c->slow(victim, factor); });
      cluster_.at(until, [c, victim] { c->clear_slow(victim); });
      break;
    }
    case Kind::kCrash: {
      ProcessId victim = crash_order_[crashes_scheduled_++];
      note(at, "crash " + process_name(victim));
      cluster_.at(at, [c, victim] { c->crash(victim); });
      if (params_.reader_restarts) {
        WorkloadParams wp = params_.restart_workload;
        wp.seed = rng_();
        note(at + ms(10), "restart-as-new-reader (after crash of " +
                              process_name(victim) + ")");
        cluster_.at(at + ms(10), [c, wp] { c->add_client(wp); });
      }
      break;
    }
  }
}

// --- TransferStorm ----------------------------------------------------------

TransferStorm::TransferStorm(Cluster& cluster, std::uint64_t seed,
                             TransferStormParams params)
    : cluster_(cluster), rng_(seed), params_(params) {}

void TransferStorm::unleash() {
  if (unleashed_) {
    throw std::logic_error("TransferStorm: unleash() called twice");
  }
  unleashed_ = true;
  // Reassignment is intra-group: each attempt draws its pair within one
  // shard. Unsharded clusters take the num_shards()==1 path, which
  // consumes exactly the pre-shard rng sequence (replay-stable seeds).
  std::uint32_t shards = cluster_.num_shards();
  for (std::size_t i = 0; i < params_.attempts; ++i) {
    ShardId g = 0;
    if (params_.shard) {
      g = *params_.shard;
    } else if (shards > 1) {
      g = static_cast<ShardId>(rng_.below(shards));
    }
    std::vector<ProcessId> servers = cluster_.shard_servers(g);
    if (servers.size() < 2) return;
    TimeNs at = params_.start +
                static_cast<TimeNs>(rng_.below(static_cast<std::uint64_t>(
                    params_.horizon - params_.start)));
    ProcessId from = servers[rng_.below(servers.size())];
    ProcessId to = servers[rng_.below(servers.size())];
    // Contiguous group ids: (to - base + 1) mod n indexes the next server.
    if (to == from) to = servers[(to - servers.front() + 1) % servers.size()];
    std::uint64_t denom =
        params_.min_denom +
        rng_.below(params_.max_denom - params_.min_denom + 1);
    Weight delta(1, static_cast<std::int64_t>(denom));
    ReassignNode* node = &cluster_.reassign_node(from);
    TransferStorm* self = this;
    // Posted into the source server's context: transfer() must run there,
    // and a crashed server simply drops the post.
    cluster_.env().schedule(from, at, [self, node, to, delta] {
      if (node->transfer_in_flight()) {
        std::lock_guard lock(self->mu_);
        ++self->skipped_;
        return;
      }
      node->transfer(to, delta, [self](const TransferOutcome& out) {
        std::lock_guard lock(self->mu_);
        ++self->completed_;
        if (out.effective) ++self->effective_;
      });
    });
    ++scheduled_;
  }
}

std::size_t TransferStorm::attempts_scheduled() const { return scheduled_; }

std::size_t TransferStorm::completed() const {
  std::lock_guard lock(mu_);
  return completed_;
}

std::size_t TransferStorm::effective() const {
  std::lock_guard lock(mu_);
  return effective_;
}

std::size_t TransferStorm::skipped() const {
  std::lock_guard lock(mu_);
  return skipped_;
}

// --- MigrationStorm ---------------------------------------------------------

MigrationStorm::MigrationStorm(Cluster& cluster, std::uint64_t seed,
                               MigrationStormParams params)
    : cluster_(cluster), rng_(seed), params_(params) {}

void MigrationStorm::unleash() {
  if (unleashed_) {
    throw std::logic_error("MigrationStorm: unleash() called twice");
  }
  unleashed_ = true;
  MigrationEngine* engine = &cluster_.migration_engine();  // validates shards
  std::uint32_t shards = cluster_.num_shards();
  for (std::size_t i = 0; i < params_.attempts; ++i) {
    TimeNs at = params_.start +
                static_cast<TimeNs>(rng_.below(static_cast<std::uint64_t>(
                    params_.horizon - params_.start)));
    RegisterKey key = "k";
    key += std::to_string(rng_.below(params_.num_keys));
    ShardId to = static_cast<ShardId>(rng_.below(shards));
    MigrationStorm* self = this;
    // Posted into the engine's context: migrate() must run there; the
    // done callback fires there once both sides committed (or at once on
    // refusal), so the counters are exact when the episode drains.
    cluster_.env().schedule(engine->pid(), at, [self, engine, key, to] {
      engine->migrate(key, to, [self](bool ok) {
        std::lock_guard lock(self->mu_);
        ++self->completed_;
        if (ok) ++self->moved_;
      });
    });
    ++scheduled_;
  }
}

std::size_t MigrationStorm::attempts_scheduled() const { return scheduled_; }

std::size_t MigrationStorm::completed() const {
  std::lock_guard lock(mu_);
  return completed_;
}

std::size_t MigrationStorm::moved() const {
  std::lock_guard lock(mu_);
  return moved_;
}

std::size_t MigrationStorm::refused() const {
  std::lock_guard lock(mu_);
  return completed_ - moved_;
}

// --- SnapshotStorm ----------------------------------------------------------

SnapshotStorm::SnapshotStorm(Cluster& cluster, std::uint64_t seed,
                             SnapshotStormParams params,
                             std::shared_ptr<HistoryRecorder> history)
    : cluster_(cluster),
      rng_(seed),
      params_(params),
      history_(std::move(history)) {}

void SnapshotStorm::unleash() {
  if (unleashed_) {
    throw std::logic_error("SnapshotStorm: unleash() called twice");
  }
  unleashed_ = true;
  std::size_t clients = cluster_.num_clients();
  if (clients == 0) {
    throw std::logic_error("SnapshotStorm: deployment has no clients");
  }
  std::size_t want = std::min(std::max<std::size_t>(params_.keys_per_snapshot,
                                                    1),
                              std::max<std::size_t>(params_.num_keys, 1));
  for (std::size_t i = 0; i < params_.attempts; ++i) {
    TimeNs at = params_.start +
                static_cast<TimeNs>(rng_.below(static_cast<std::uint64_t>(
                    params_.horizon - params_.start)));
    std::size_t k = i % clients;  // round-robin issuing client
    // Distinct keys: seeded draws, then a sequential fill if the draws
    // collide too often (bounded attempts keeps unleash O(attempts)).
    std::set<RegisterKey> picked;
    for (int tries = 0; tries < 64 && picked.size() < want; ++tries) {
      picked.insert(std::string("k").append(
          std::to_string(rng_.below(params_.num_keys))));
    }
    for (std::size_t r = 0; picked.size() < want; ++r) {
      picked.insert(std::string("k").append(std::to_string(r)));
    }
    std::vector<RegisterKey> keys(picked.begin(), picked.end());
    ShardRouter* router = &cluster_.client(k).router();
    ProcessId pid = cluster_.client(k).id();
    SnapshotStorm* self = this;
    // Posted into the issuing client's context: snapshot() must run
    // there, and its callback fires there once the cut is taken.
    cluster_.env().schedule(pid, at, [self, router, pid,
                                      keys = std::move(keys)] {
      std::size_t token = 0;
      if (self->history_) {
        token = self->history_->begin_snapshot(pid, self->cluster_.now());
      }
      router->snapshot(keys, [self, token](
                                 const ShardRouter::SnapshotResult& res) {
        if (self->history_) {
          self->history_->end_snapshot(token, self->cluster_.now(), res.cut);
        }
        std::lock_guard lock(self->mu_);
        ++self->completed_;
        if (res.used_fallback) ++self->fallbacks_;
        self->rounds_ += res.rounds;
      });
    });
    ++scheduled_;
  }
}

std::size_t SnapshotStorm::attempts_scheduled() const { return scheduled_; }

std::size_t SnapshotStorm::completed() const {
  std::lock_guard lock(mu_);
  return completed_;
}

std::size_t SnapshotStorm::fallbacks() const {
  std::lock_guard lock(mu_);
  return fallbacks_;
}

std::uint64_t SnapshotStorm::rounds() const {
  std::lock_guard lock(mu_);
  return rounds_;
}

}  // namespace wrs::testing
