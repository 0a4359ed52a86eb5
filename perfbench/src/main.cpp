// perfbench — the repository's benchmark program.
//
//   perfbench --workload <wan-adapt|snap-migrate> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Runs one workload for about `seconds`, checks the outputs (atomicity of
// the recorded history including snapshot cuts, weight conservation,
// committed migrations), and prints the metrics as a table followed by one
// JSON line: the end-to-end metrics on an untraced run, the per-layer
// metrics on a traced run. See perfbench/README.md.
#include <cstdlib>
#include <cstring>
#include <exception>

#include "workloads.h"

namespace {

using perfbench::Metrics;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by every untraced run, on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"op_p50_ms", "ms"},        {"op_p99_ms", "ms"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},      {"degraded_p99_ms", "ms"},
    {"recovery_s", "s"},        {"snap_p50_ms", "ms"},
    {"snap_p99_ms", "ms"},
};

// Reported by every traced run; 0 where the workload bypasses the layer.
// Wall-clock throughput is here rather than end to end: on a shared VM it
// drifts with the machine's speed by more than any usable bound.
constexpr MetricDef kPerLayer[] = {
    {"runtime.ops_s", "1/s"},
    {"api.build_ms", "ms"},
    {"api.preload_ms", "ms"},
    {"api.setup_wall_s", "s"},
    {"shard.issue_us_p50", "us"},
    {"shard.redirects_per_op", "1/op"},
    {"shard.snap_rounds_per_cut", "1/cut"},
    {"shard.snap_msgs_per_cut", "1/cut"},
    {"shard.snap_fallback_ratio", "ratio"},
    {"storage.fence_parked", "count"},
    {"storage.snap_fences", "count"},
    {"storage.restarts_per_op", "1/op"},
    {"storage.retransmits_per_op", "1/op"},
    {"quorum.is_quorum_ns", "ns"},
    {"quorum.min_size_degraded", "count"},
    {"monitor.transfers_issued", "count"},
    {"core.read_changes_ms_p50", "ms"},
    {"rebalance.migrate_ms_p50", "ms"},
    {"rebalance.refused", "count"},
    {"net.encode_ns_per_frame", "ns"},
    {"net.decode_ns_per_frame", "ns"},
    {"net.bytes_per_op", "B/op"},
    {"runtime.msgs_per_op", "1/op"},
    {"runtime.cpu_us_per_op", "us"},
    {"runtime.pool_heap_allocs", "count"},
    {"runtime.pool_slabs", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <wan-adapt|snap-migrate> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      a.trace_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Report report;
  perfbench::Tracer tracer(args.trace);
  Metrics m;
  try {
    if (args.workload == "wan-adapt") {
      m = perfbench::run_wan_adapt(args, report, tracer);
    } else if (args.workload == "snap-migrate") {
      m = perfbench::run_snap_migrate(args, report, tracer);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  // Throughput of the untraced episodes.
  m["runtime.ops_s"] = m["ops_s"];
  perfbench::finish_trace(tracer, args, m["trace.overhead_pct"]);

  if (!args.trace) {
    for (const auto& d : kEndToEnd) report.metric(d.name, m[d.name], d.unit);
  } else {
    for (const auto& d : kPerLayer) report.metric(d.name, m[d.name], d.unit);
  }
  report.print();
  return 0;
}
