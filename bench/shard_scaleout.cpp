// EXP-SH1 and EXP-SH3 on the thread runtime: the sharded scale-out sweep
// (1, 2 and 4 shards) and the batched wire protocol (window 1 and 8) in
// wall-clock time, with the deployments of bench/paper's simulated
// EXP-SH1 and EXP-SH3 (bench::scale_sweep, bench::batch_sweep).
//
//   shard_scaleout [--json <path>]   # --json appends one JSON line per table
//
// The binary gates its own results and exits nonzero when one fails:
// the 1->4-shard speedup, the batch-8/batch-1 msgs/op, and the batch-1
// throughput and corrected-p99 floor.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace wrs;
  using namespace wrs::bench;
  constexpr std::uint64_t kSeed = 20260727;
  const std::string json = json_path(argc, argv);

  banner("EXP-SH1 threads", kScaleSweepSetup);
  Report scale("EXP-SH1 threads");
  Report scale_shards("EXP-SH1 threads.shards", "\nper shard:");
  const double speedup = scale_sweep(Runtime::kThread, kSeed, scale,
                                     scale_shards);
  scale.print();
  scale_shards.print();

  banner("EXP-SH3 threads", kBatchSweepSetup);
  Report batch("EXP-SH3 threads");
  Report batch_shards("EXP-SH3 threads.shards", "\nper shard:");
  const std::vector<ShardPoint> p =
      batch_sweep(Runtime::kThread, kSeed, batch, batch_shards);
  batch.print();
  batch_shards.print();

  bool ok = true;
  if (!json.empty()) {
    for (const Report* r : {&scale, &scale_shards, &batch, &batch_shards}) {
      ok = r->write(json, kSeed) && ok;
    }
  }
  banner("gates", "thresholds on the runs above");
  ok &= gate("EXP-SH1 threads 1->4 shard speedup", speedup, ">=", 1.5);
  ok &= gate("EXP-SH3 threads batch-8/batch-1 msgs/op",
             p[1].msgs_per_op() / p[0].msgs_per_op(), "<=", 0.5);
  ok &= gate("EXP-SH3 threads batch-1 ops/s", p[0].ops_per_sec, ">=", 7000);
  ok &= gate("EXP-SH3 threads batch-1 corrected p99 ms",
             p[0].corrected.percentile(99) / 1e6, "<", 50);
  return ok ? 0 : 1;
}
