// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// rational arithmetic, change-set operations, quorum checks, the storage
// client's reply path, and simulator event throughput. These bound the
// per-message bookkeeping cost of the protocol implementations.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/change_set.h"
#include "core/reassign_node.h"
#include "quorum/wmqs.h"
#include "runtime/sim_env.h"
#include "storage/abd_client.h"

namespace wrs {
namespace {

void BM_RationalAdd(benchmark::State& state) {
  Rational a(355, 113);
  Rational b(-7, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a + b);
  }
}
BENCHMARK(BM_RationalAdd);

void BM_RationalCompare(benchmark::State& state) {
  Rational a(355, 113);
  Rational b(356, 114);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
  }
}
BENCHMARK(BM_RationalCompare);

void BM_ChangeSetWeightOf(benchmark::State& state) {
  ChangeSet cs = ChangeSet::initial(WeightMap::uniform(
      static_cast<std::uint32_t>(state.range(0))));
  // Add a transfer history.
  for (std::uint64_t c = 2; c < 50; ++c) {
    cs.add(Change(0, c, 0, Weight(-1, 1000)));
    cs.add(Change(0, c, 1, Weight(1, 1000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.weight_of(1));
  }
}
BENCHMARK(BM_ChangeSetWeightOf)->Arg(5)->Arg(9)->Arg(17);

void BM_ChangeSetJoin(benchmark::State& state) {
  ChangeSet base = ChangeSet::initial(WeightMap::uniform(9));
  ChangeSet incoming = base;
  for (std::uint64_t c = 2; c < 2 + static_cast<std::uint64_t>(state.range(0));
       ++c) {
    incoming.add(Change(1, c, 1, Weight(-1, 1000)));
    incoming.add(Change(1, c, 2, Weight(1, 1000)));
  }
  for (auto _ : state) {
    ChangeSet cs = base;
    benchmark::DoNotOptimize(cs.join(incoming));
  }
}
BENCHMARK(BM_ChangeSetJoin)->Arg(8)->Arg(64);

void BM_ClientReadAckReply(benchmark::State& state) {
  // One dynamic client over 5 servers handling a ReadAck whose change
  // set holds range(0) changes (the 5 initial ones plus transfer pairs),
  // already merged: the steady state of every reply between
  // reassignments. The read stays one responder short of a quorum, so
  // each iteration is the whole reply path and nothing else.
  SystemConfig cfg = SystemConfig::uniform(5, 2);
  SimEnv env(std::make_shared<ConstantLatency>(us(10)), 3);
  AbdClient client(env, client_id(0), cfg);
  const auto size = static_cast<std::size_t>(state.range(0));
  ChangeSet cs = client.changes();
  for (std::uint64_t c = 2; cs.size() < size; ++c) {
    cs.add(Change(1, c, 1, Weight(-1, 1000)));
    cs.add(Change(1, c, 2, Weight(1, 1000)));
  }
  auto changes = std::make_shared<const ChangeSet>(std::move(cs));
  const TaggedValue reg{Tag{1, client_id(1)}, "v"};
  OpId op = client.read([](const TaggedValue&) {});
  // The first reply brings the transfers (if any: a restart, to attempt
  // 2); the timed ones repeat it from the same server.
  client.handle(0, ReadAck(op, reg, changes, /*seq=*/1));
  const std::uint64_t restarts = client.restarts();
  const ReadAck ack(op, reg, changes,
                    static_cast<std::uint32_t>(1 + restarts));
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.handle(0, ack));
  }
  if (!client.busy() || client.restarts() != restarts) {
    state.SkipWithError("the read completed or restarted again");
  }
}
BENCHMARK(BM_ClientReadAckReply)->Arg(5)->Arg(41)->Arg(201);

void BM_WmqsIsQuorum(benchmark::State& state) {
  auto n = static_cast<std::uint32_t>(state.range(0));
  Wmqs q(WeightMap::uniform(n));
  std::vector<ProcessId> subset;
  for (std::uint32_t i = 0; i <= n / 2; ++i) subset.push_back(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.is_quorum(subset));
  }
}
BENCHMARK(BM_WmqsIsQuorum)->Arg(5)->Arg(17)->Arg(65);

void BM_WmqsMinQuorumSize(benchmark::State& state) {
  auto n = static_cast<std::uint32_t>(state.range(0));
  WeightMap wm;
  for (std::uint32_t i = 0; i < n; ++i) {
    wm.set(i, Weight(static_cast<std::int64_t>(i % 7) + 1, 4));
  }
  Wmqs q(std::move(wm));
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.min_quorum_size());
  }
}
BENCHMARK(BM_WmqsMinQuorumSize)->Arg(5)->Arg(17)->Arg(65);

void BM_SimEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SimEnv env(std::make_shared<ConstantLatency>(us(10)), 3);
    state.ResumeTiming();
    // Drain 10k scheduled closures through the event queue.
    int count = 0;
    for (int i = 0; i < 10'000; ++i) {
      env.schedule(kNoProcess, us(i), [&count] { ++count; });
    }
    env.run_to_quiescence();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimEventThroughput)->Unit(benchmark::kMillisecond);

void BM_TransferEndToEnd(benchmark::State& state) {
  // Full protocol cost of one transfer on a zero-latency simulated
  // network — pure CPU cost of Algorithm 4 + reliable broadcast.
  auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SystemConfig cfg = SystemConfig::uniform(n, (n - 1) / 2);
    SimEnv env(std::make_shared<ConstantLatency>(us(1)), 3);
    std::vector<std::unique_ptr<ReassignNode>> nodes;
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<ReassignNode>(env, i, cfg));
      env.register_process(i, nodes.back().get());
    }
    env.start();
    env.run_to_quiescence();
    state.ResumeTiming();
    bool done = false;
    nodes[0]->transfer(1, Weight(1, 1000),
                       [&](const TransferOutcome&) { done = true; });
    env.run_until_pred([&] { return done; }, seconds(10));
    env.run_to_quiescence();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_TransferEndToEnd)->Arg(4)->Arg(7)->Arg(10);

}  // namespace
}  // namespace wrs

BENCHMARK_MAIN();
