// Read/write workload clients for the storage benches: a classic closed
// loop (one op at a time, think time between ops) and an open loop
// (arrivals at a fixed target rate, pipelined over the multiplexed
// AbdClient up to a bounded in-flight window). Open-loop arrivals run on
// a fixed intended-start clock and every operation additionally records
// coordinated-omission-corrected latency from its intended start (see
// corrected_op_latency()).
//
// Every workload runs over a ShardRouter, so the same client drives the
// paper's single group (a one-shard map — zero routing overhead, the
// inner AbdClient is the whole data path) or a sharded deployment (ops
// route by key; latency and completions are additionally tracked per
// shard). Key popularity is uniform by default or Zipfian
// (WorkloadParams::zipf_theta) for skewed-load experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/config.h"
#include "shard/shard_router.h"
#include "storage/history.h"

namespace wrs {

struct WorkloadParams {
  std::size_t num_ops = 100;      // operations per client
  double read_ratio = 0.5;        // fraction of reads
  TimeNs think_time = ms(5);      // closed loop: delay between operations
  std::size_t value_size = 64;    // bytes per written value
  std::uint64_t seed = 42;
  /// Keys the workload spreads over, picked per op: 1 targets the
  /// paper's single register (key ""); k > 1 uses "k0".."k<k-1>".
  /// Pipelining only overlaps ops on DISTINCT keys (the client serializes
  /// same-key ops), so open-loop runs want num_keys > 1.
  std::size_t num_keys = 1;
  /// 0 picks keys uniformly. > 0 picks them from a Zipfian popularity
  /// distribution with skew theta (rank r drawn with probability
  /// proportional to 1/(r+1)^theta; key "k0" is the hottest). Seeded and
  /// deterministic like the rest of the workload.
  double zipf_theta = 0;
  /// > 0 switches the client to OPEN-LOOP mode: one operation arrives
  /// every 1/target_ops_per_sec (fixed clock, independent of completions)
  /// and rides the pipelined client. 0 keeps the closed loop.
  double target_ops_per_sec = 0;
  /// Open loop only: arrivals finding this many ops already in flight are
  /// shed (counted, not executed) so a stalled quorum cannot queue
  /// unbounded work.
  std::size_t max_in_flight = 64;
  /// > 0 mixes a cross-shard atomic snapshot (ShardRouter::snapshot)
  /// into the stream after every N completed read/write ops. Snapshots
  /// ride alongside the op budget (not counted in num_ops) over a
  /// deterministic sample of up to `snapshot_keys` distinct keys, and
  /// are recorded into the history (when attached) for the cross-key
  /// cut checks. 0 (the default) issues none.
  std::size_t snapshot_every_ops = 0;
  /// Distinct keys per snapshot (clamped to num_keys).
  std::size_t snapshot_keys = 4;
};

/// A client process generating read/write load against the register(s),
/// recording per-op latency, throughput, and the operation history.
/// Closed loop: issue → await → think → issue. Open loop: issue on a
/// fixed arrival clock, many ops in flight (WorkloadParams above).
class WorkloadClient : public Process {
 public:
  /// Single-group client (the paper's deployment).
  WorkloadClient(Env& env, ProcessId self, const SystemConfig& config,
                 WorkloadParams params,
                 std::shared_ptr<HistoryRecorder> history = nullptr)
      : WorkloadClient(env, self, ShardMap::single(config), std::move(params),
                       std::move(history)) {}

  /// Sharded client: operations route by key over `map`.
  WorkloadClient(Env& env, ProcessId self, ShardMap map, WorkloadParams params,
                 std::shared_ptr<HistoryRecorder> history = nullptr)
      : env_(env),
        self_(self),
        router_(env, self, std::move(map)),
        params_(params),
        rng_(params.seed ^ (std::uint64_t{self} << 20)),
        history_(std::move(history)),
        shard_completed_(router_.num_shards(), 0),
        shard_latency_(router_.num_shards()) {
    if (params_.zipf_theta > 0 && params_.num_keys > 1) {
      // Zipfian CDF over key ranks, built once: cheap for the key counts
      // workloads use and keeps sampling a single uniform draw.
      zipf_cdf_.reserve(params_.num_keys);
      double sum = 0;
      for (std::size_t r = 0; r < params_.num_keys; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), params_.zipf_theta);
        zipf_cdf_.push_back(sum);
      }
      for (double& v : zipf_cdf_) v /= sum;
    }
  }

  void on_start() override {
    started_at_ = env_.now();
    next_intended_ = started_at_;
    if (!open_loop()) {
      next_op();
    } else if (params_.num_ops == 0) {
      finish();  // degenerate run: no arrivals will ever fire
    } else {
      schedule_arrival();
    }
  }

  void on_message(ProcessId from, const Message& msg) override {
    router_.handle(from, msg);
  }

  bool open_loop() const { return params_.target_ops_per_sec > 0; }
  bool done() const { return finished_; }
  std::size_t completed() const { return completed_; }
  /// Open loop: arrivals shed because the in-flight window was full.
  std::size_t shed() const { return shed_; }
  /// Snapshots issued / resolved (params_.snapshot_every_ops > 0 only).
  std::size_t snapshots_issued() const { return snapshots_issued_; }
  std::size_t snapshots_done() const { return snapshots_done_; }
  /// Total collect rounds / fenced-fallback cuts across the resolved
  /// snapshots (a quiet cut is 2 rounds; more means restarted collects).
  std::uint64_t snapshot_rounds() const { return snapshot_rounds_; }
  std::size_t snapshot_fallbacks() const { return snapshot_fallbacks_; }
  const Histogram& snapshot_latency() const { return snapshot_latency_; }

  const Histogram& read_latency() const { return read_latency_; }
  const Histogram& write_latency() const { return write_latency_; }
  /// All operations combined (the open-loop p50/p95/p99 source).
  const Histogram& op_latency() const { return op_latency_; }
  /// Coordinated-omission-corrected latency: every operation measured
  /// from its INTENDED start — in open-loop mode the tick of the fixed
  /// arrival clock (started_at + k/rate, never re-anchored to when the
  /// handler actually ran), in closed-loop mode the issue time (intended
  /// == actual there). A lagging client therefore charges its own
  /// scheduling delay to the operation instead of silently omitting it —
  /// on the thread runtime under load these percentiles run HIGHER than
  /// op_latency(); on the simulator arrivals fire exactly on schedule
  /// and the two match. Shed arrivals never execute and stay excluded
  /// (reported separately via shed()).
  const Histogram& corrected_op_latency() const { return corrected_latency_; }

  // --- per-shard metrics ---------------------------------------------------
  std::uint32_t num_shards() const { return router_.num_shards(); }
  /// Completed operations routed to shard `g`.
  std::size_t shard_completed(ShardId g) const {
    return shard_completed_.at(g);
  }
  /// Latency of the operations routed to shard `g`.
  const Histogram& shard_latency(ShardId g) const {
    return shard_latency_.at(g);
  }

  /// Completed ops per second over the run (meaningful once done()).
  double achieved_ops_per_sec() const {
    TimeNs end = finished_ ? finished_at_ : env_.now();
    if (end <= started_at_) return 0;
    return static_cast<double>(completed_) * 1e9 /
           static_cast<double>(end - started_at_);
  }

  /// High-water mark of concurrently STARTED operations (same-key queued
  /// ops excluded) — proves the open loop actually pipelined.
  std::size_t max_in_flight_seen() const { return router_.max_in_flight(); }

  /// The routing layer; router().shard_client(g) is shard g's AbdClient.
  ShardRouter& router() { return router_; }

  /// Fires once when the client's whole run is finished.
  void set_on_done(std::function<void()> cb) { on_done_ = std::move(cb); }

 private:
  // --- closed loop ---------------------------------------------------------
  void next_op() {
    if (issued_ >= params_.num_ops) {
      // maybe_finish, not finish: a mixed-in snapshot may still be in
      // flight alongside the closed loop's last op.
      maybe_finish();
      return;
    }
    ++issued_;
    issue_one(/*intended=*/env_.now());
  }

  void after_closed_op() {
    env_.schedule(self_, params_.think_time, [this] { next_op(); });
  }

  // --- open loop -----------------------------------------------------------
  void schedule_arrival() {
    // The arrival clock is FIXED: tick k fires at started_at + k*period
    // regardless of when earlier handlers ran, so a lagging client never
    // silently stretches the offered inter-arrival gaps (the classic
    // coordinated-omission distortion). On the simulator handlers run
    // exactly on schedule and the delay is exactly one period.
    auto period =
        static_cast<TimeNs>(1e9 / params_.target_ops_per_sec);
    next_intended_ += period;
    TimeNs now = env_.now();
    TimeNs delay = next_intended_ > now ? next_intended_ - now : 0;
    env_.schedule(self_, delay, [this] { on_arrival(); });
  }

  void on_arrival() {
    // Invariant: an arrival is only ever scheduled while
    // issued_ + shed_ < num_ops (on_start handles num_ops == 0).
    if (in_flight_ >= params_.max_in_flight) {
      ++shed_;
    } else {
      ++issued_;
      issue_one(/*intended=*/next_intended_);
    }
    if (issued_ + shed_ < params_.num_ops) {
      schedule_arrival();
    } else {
      maybe_finish();
    }
  }

  // --- shared --------------------------------------------------------------
  /// `intended` is the operation's intended start (its arrival-clock
  /// tick); closed-loop callers pass the actual issue time.
  void issue_one(TimeNs intended) {
    bool is_read = rng_.uniform() < params_.read_ratio;
    RegisterKey key = pick_key();
    ShardId g = router_.shard_of(key);
    TimeNs start = env_.now();
    ++in_flight_;
    if (is_read) {
      std::size_t token =
          history_
              ? history_->begin(OpRecord::Kind::kRead, self_, start, key)
              : 0;
      router_.read(key,
                   [this, start, intended, token, g](const TaggedValue& tv) {
        record_latency(read_latency_, start, intended, g);
        if (history_) history_->end_read(token, env_.now(), tv);
        op_completed(g);
      });
    } else {
      Value v = make_value();
      std::size_t token =
          history_
              ? history_->begin(OpRecord::Kind::kWrite, self_, start, key)
              : 0;
      router_.write(key, v,
                    [this, start, intended, token, v, g](const Tag& tag) {
        record_latency(write_latency_, start, intended, g);
        if (history_) history_->end_write(token, env_.now(), tag, v);
        op_completed(g);
      });
    }
  }

  void record_latency(Histogram& kind_hist, TimeNs start, TimeNs intended,
                      ShardId g) {
    TimeNs elapsed = env_.now() - start;
    kind_hist.add_time(elapsed);
    op_latency_.add_time(elapsed);
    corrected_latency_.add_time(env_.now() - intended);
    shard_latency_[g].add_time(elapsed);
  }

  void op_completed(ShardId g) {
    ++completed_;
    ++shard_completed_[g];
    --in_flight_;
    if (params_.snapshot_every_ops > 0 &&
        ++ops_since_snapshot_ >= params_.snapshot_every_ops) {
      ops_since_snapshot_ = 0;
      issue_snapshot();
    }
    if (open_loop()) {
      maybe_finish();
    } else {
      after_closed_op();
    }
  }

  void issue_snapshot() {
    // Deterministic sample of distinct keys from the workload's own key
    // picker (so a Zipfian run snapshots hot keys more often). Bounded
    // draw attempts: a badly skewed distribution falls back to filling
    // with the first unused ranks.
    std::size_t want = std::min<std::size_t>(
        std::max<std::size_t>(params_.snapshot_keys, 1),
        std::max<std::size_t>(params_.num_keys, 1));
    std::set<RegisterKey> uniq;
    for (int attempt = 0; attempt < 64 && uniq.size() < want; ++attempt) {
      uniq.insert(pick_key());
    }
    for (std::size_t r = 0; uniq.size() < want && r < params_.num_keys; ++r) {
      RegisterKey key = "k";
      key += std::to_string(r);
      uniq.insert(std::move(key));
    }
    std::vector<RegisterKey> keys(uniq.begin(), uniq.end());
    TimeNs start = env_.now();
    std::size_t token =
        history_ ? history_->begin_snapshot(self_, start) : 0;
    ++snapshots_issued_;
    ++in_flight_;  // holds finish() until the cut resolves
    router_.snapshot(
        std::move(keys),
        [this, token, start](const ShardRouter::SnapshotResult& r) {
          if (history_) history_->end_snapshot(token, env_.now(), r.cut);
          ++snapshots_done_;
          snapshot_rounds_ += r.rounds;
          if (r.used_fallback) ++snapshot_fallbacks_;
          snapshot_latency_.add_time(env_.now() - start);
          --in_flight_;
          maybe_finish();
        });
  }

  void maybe_finish() {
    if (issued_ + shed_ >= params_.num_ops && in_flight_ == 0) finish();
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    finished_at_ = env_.now();
    if (on_done_) on_done_();
  }

  RegisterKey pick_key() {
    if (params_.num_keys <= 1) return RegisterKey{};
    std::size_t idx;
    if (!zipf_cdf_.empty()) {
      double u = rng_.uniform();
      idx = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      if (idx >= params_.num_keys) idx = params_.num_keys - 1;
    } else {
      idx = rng_.below(params_.num_keys);
    }
    RegisterKey key = "k";
    key += std::to_string(idx);
    return key;
  }

  Value make_value() {
    // Unique value per (client, op): required by the atomicity checker.
    std::string v = process_name(self_);
    v += '#';
    v += std::to_string(issued_);
    if (v.size() < params_.value_size) {
      v.resize(params_.value_size, 'x');
    }
    return v;
  }

  Env& env_;
  ProcessId self_;
  ShardRouter router_;
  WorkloadParams params_;
  Rng rng_;
  std::shared_ptr<HistoryRecorder> history_;
  std::vector<double> zipf_cdf_;  // empty = uniform keys
  std::size_t issued_ = 0;
  std::size_t completed_ = 0;
  std::size_t shed_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t ops_since_snapshot_ = 0;
  std::size_t snapshots_issued_ = 0;
  std::size_t snapshots_done_ = 0;
  std::uint64_t snapshot_rounds_ = 0;
  std::size_t snapshot_fallbacks_ = 0;
  Histogram snapshot_latency_;
  bool finished_ = false;
  TimeNs started_at_ = 0;
  TimeNs finished_at_ = 0;
  TimeNs next_intended_ = 0;  // open loop: the next arrival-clock tick
  Histogram read_latency_;
  Histogram write_latency_;
  Histogram op_latency_;
  Histogram corrected_latency_;
  std::vector<std::size_t> shard_completed_;
  std::vector<Histogram> shard_latency_;
  std::function<void()> on_done_;
};

}  // namespace wrs
