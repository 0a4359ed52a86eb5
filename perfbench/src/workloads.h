// The workloads. Each runs its deployment for about args.seconds,
// records correctness verdicts and attempted/failed counts into `report`,
// and returns every metric it measured (end-to-end and per-layer); main
// picks the set the run reports.
#pragma once

#include "harness.h"
#include "load.h"

namespace perfbench {

/// Simulator: the paper's adaptation experiment (EXP-A1) under load.
Metrics run_wan_adapt(const Args& args, Report& report, Tracer& tracer);
/// Simulator: snapshots and migrations racing on 64 hot keys.
Metrics run_snap_migrate(const Args& args, Report& report, Tracer& tracer);

/// Per-layer numbers every workload reads the same way over a measured
/// phase: message, byte and CPU cost per op, router and server counters,
/// and (on traced runs) the codec and quorum probes.
struct PhaseCost {
  wrs::Counters traffic_before;
  double cpu_before = 0;
  double restarts = 0;
  double retransmits = 0;
  double redirects = 0;
  double fence_parked = 0;
  double snap_fences = 0;
};
PhaseCost begin_cost(wrs::Cluster& cluster);
/// `ops` completed reads and writes and `cuts` completed snapshots since
/// begin_cost.
void end_cost(wrs::Cluster& cluster, const PhaseCost& before, double ops,
              double cuts, Tracer& tracer, Metrics& m);

/// Times one set-up: build, preload and warm-up. setup_s is the set-up's
/// wall time scaled by the reference kernel timed just before and just
/// after it, wall * 30 ms / reference_ms(): the set-up's seconds on a
/// machine where the kernel takes 30 ms. A change that moves work into
/// set-up raises it; the shared machine's drifting speed, which moves
/// set-up and kernel alike, cancels out. api.setup_wall_s is the raw
/// wall time.
class SetupTimer {
 public:
  SetupTimer();
  void finish(Metrics& m) const;

 private:
  double ref_before_ms_;
  std::int64_t start_ns_;
};

/// A seed per episode of a simulator workload, derived from the run seed.
std::uint64_t episode_seed(std::uint64_t seed, int episode);

/// Runs simulator episodes until args.seconds of wall time are used (at
/// least `min_episodes`), alternating traced and untraced episodes on a
/// traced run, and returns the per-key medians. ops_s of traced episodes
/// is reported as ops_s_traced, and the tracing overhead is derived.
Metrics run_episodes(const Args& args, Tracer& tracer, int min_episodes,
                     const std::function<Metrics(int episode)>& episode);

}  // namespace perfbench
