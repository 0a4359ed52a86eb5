// The load generator every workload drives: clients of a simulated
// wrs::Cluster issue reads, writes and snapshots through their ShardRouter
// on an open loop (a fixed arrival clock per client), recording every
// operation into a History for check_atomicity and into raw latency
// samples. All issuing happens in the owning client's execution context
// (posted through Env::schedule). Times are simulated ns.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "harness.h"
#include "storage/history.h"

namespace perfbench {

struct OpSample {
  TimeNs start = 0;  ///< intended start (open loop) or issue time
  TimeNs end = 0;
};

struct CutSample {
  TimeNs start = 0;
  TimeNs end = 0;
  std::uint32_t rounds = 0;
  bool fallback = false;
};

struct LoadParams {
  /// Cluster client indices that issue reads and writes.
  std::vector<std::size_t> clients;
  /// Open-loop arrivals per simulated second per client. An arrival
  /// finding kMaxInFlight ops in flight at its client is shed.
  double rate_per_client = 1;
  double read_ratio = 0.5;
  std::size_t num_keys = 1;
  std::size_t value_size = 64;
  /// > 0: each client takes a snapshot after every N completed ops.
  std::size_t snapshot_every = 0;
  std::size_t snapshot_keys = 8;
  std::uint64_t seed = 1;
};

/// "k<i>", the workloads' key naming.
std::string key_name(std::size_t i);

/// The operation history of a run, recorded for check_atomicity. Kept
/// compact — keys as indices, padded values as their short prefix, in a
/// deque that never copies on growth — so that recording it barely moves
/// peak RSS.
class History {
 public:
  explicit History(std::size_t value_size) : value_size_(value_size) {}

  std::size_t begin(wrs::OpRecord::Kind kind, wrs::ProcessId process,
                    TimeNs start, std::size_t key);
  void end(std::size_t token, TimeNs end, const wrs::Tag& tag,
           const wrs::Value& value);
  /// One completed snapshot: a read-like record per cut key.
  void snapshot(wrs::ProcessId process, TimeNs start, TimeNs end,
                const std::vector<std::pair<wrs::RegisterKey,
                                            wrs::TaggedValue>>& cut);

  /// Runs check_atomicity (per-key A1-A4 and the S1/S2 cut verdicts)
  /// over the completed records; prints the first violation.
  bool atomic() const;

 private:
  struct Rec {
    TimeNs start = 0;
    TimeNs end = 0;
    wrs::Tag tag;
    std::uint64_t snap_id = 0;
    std::uint32_t key = 0;
    wrs::ProcessId process = 0;
    bool write = false;
    bool done = false;
    bool padded = false;  ///< `value` is the prefix of an 'x'-padded value
    std::string value;
  };
  void set_value(Rec& r, const wrs::Value& value) const;

  const std::size_t value_size_;
  mutable std::mutex mu_;
  std::deque<Rec> recs_;  // guarded by mu_
  std::uint64_t snaps_ = 0;
};

class LoadGen {
 public:
  LoadGen(wrs::Cluster& cluster, LoadParams params,
          std::shared_ptr<History> history, Tracer& tracer);
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Writes every key once, at most `window` puts in flight, spread over
  /// the clients. Returns once all completed or `deadline` env ns passed.
  void preload(std::size_t window, TimeNs deadline);

  /// Starts the read/write load; no op is issued at or after env time
  /// `until`.
  void start(TimeNs until);
  /// Starts a snapshotting client: one cut every `period` env ns until
  /// env time `until`.
  void start_snapshots(std::size_t client, TimeNs period, TimeNs until);

  /// Ops and cuts issued but not yet completed.
  std::int64_t in_flight() const { return in_flight_.load(); }
  /// Drives the simulator until nothing is in flight or env time
  /// `deadline` passes; false on timeout.
  bool drain(TimeNs deadline);

  /// Completed samples so far; clear_samples() starts a new phase.
  std::vector<OpSample> ops() const;
  std::vector<CutSample> cuts() const;
  void clear_samples();

  /// Ops, cuts and preload puts attempted / completed so far (shed
  /// arrivals count as attempted, never as completed).
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t completed() const { return completed_.load(); }
  /// Wall ns spent inside ShardRouter::read/write calls (traced episodes).
  std::vector<double> issue_ns() const;

 private:
  struct Client {
    std::size_t index = 0;
    wrs::ProcessId pid = 0;
    wrs::ShardRouter* router = nullptr;
    wrs::Rng rng;
    std::uint64_t issued = 0;
    std::size_t in_flight = 0;
    std::size_t since_snapshot = 0;
    TimeNs next_arrival = 0;
    TimeNs until = 0;
  };

  void issue(Client& c, TimeNs intended);
  void on_done(Client& c, TimeNs start);
  void schedule_arrival(Client& c);
  void issue_snapshot(Client& c);
  void snapshot_tick(Client& c, TimeNs period);
  bool may_issue(const Client& c) const;
  Client& client_state(std::size_t index);

  wrs::Cluster& cluster_;
  wrs::Env& env_;
  LoadParams params_;
  std::shared_ptr<History> history_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> op_seq_{0};

  mutable std::mutex mu_;  // guards the samples below
  std::deque<OpSample> ops_;  // deques: growth never copies (peak RSS)
  std::deque<CutSample> cuts_;
  std::vector<double> issue_ns_;
};

/// Pumps the simulator in small steps until `pred` holds or env time
/// `deadline` passes; false on timeout.
bool wait_until(wrs::Cluster& cluster, const std::function<bool()>& pred,
                TimeNs deadline);

/// Runs `fn` in process `pid`'s execution context and waits for it.
void run_in(wrs::Cluster& cluster, wrs::ProcessId pid,
            const std::function<void()>& fn);

/// Named metric values of one run or episode.
using Metrics = std::map<std::string, double>;

/// Per key, the median over the runs that report it.
Metrics median_over(const std::vector<Metrics>& runs);

/// A measured phase in env time: [start, end), with the disturbance
/// window [w0, w1) inside it.
struct Phase {
  TimeNs start = 0;
  TimeNs w0 = 0;
  TimeNs w1 = 0;
  TimeNs end = 0;
};

/// The latency metrics of a phase: op_p50_ms / op_p99_ms over ops started
/// outside the window, degraded_p99_ms over ops started inside it,
/// recovery_s, and snap_* over every cut.
void latency_metrics(const std::vector<OpSample>& ops,
                     const std::vector<CutSample>& cuts, const Phase& ph,
                     Metrics& m);

/// Seconds from `from` until the median latency of the ops completing in
/// a trailing 1 s window first comes back within 1.5x `baseline_ns`. The
/// first window evaluated lies entirely after `from`, so a disturbance
/// that never moves the median reads just over 1 s. Never recovering
/// reads as `limit - from`.
double recovery_s(std::vector<OpSample> ops, TimeNs from, TimeNs limit,
                  double baseline_ns);

/// Latencies (ns) of the ops started in [from, to).
std::vector<double> latencies(const std::vector<OpSample>& ops, TimeNs from,
                              TimeNs to);

/// Encode and decode cost of the WireCodec on the storage frame mix
/// implied by `traffic` (counts of R, R_A, W, W_A messages), with
/// `value_size`-byte values and a change set of `n` servers.
struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
};
CodecCost codec_cost(const wrs::Counters& traffic, std::size_t value_size,
                     std::uint32_t n, Tracer& tracer);

/// Wall ns per Wmqs::is_quorum call on `weights`, over every subset.
double is_quorum_ns(const wrs::WeightMap& weights, Tracer& tracer);

/// `after - before` for one counter of two traffic snapshots.
inline double delta(const wrs::Counters& after, const wrs::Counters& before,
                    const char* key) {
  return static_cast<double>(after.get(key) - before.get(key));
}

}  // namespace perfbench
