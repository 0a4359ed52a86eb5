// The pipelined multi-op client API: operation multiplexing in
// AbdClient, Await composition (then / when_all / poll), batch issue
// through ClientHandle, and the open-loop workload mode — all on BOTH
// runtime substrates.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "storage/history.h"

namespace wrs {
namespace {

class PipelineOnBothRuntimes : public ::testing::TestWithParam<Runtime> {};

/// Reads a client-side counter from the client's own execution context —
/// the race-free way to observe AbdClient state on the thread runtime.
std::size_t max_in_flight_of(Cluster& c, const ClientHandle& h) {
  AbdClient* abd = &h.router().shard_client(0);
  return c
      .call<std::size_t>(h.id(),
                         [abd](auto done) { done(abd->max_in_flight()); })
      .get(seconds(30));
}

TEST_P(PipelineOnBothRuntimes, SingleClientSustainsManyConcurrentOps) {
  Cluster c = Cluster::builder()
                  .servers(5)
                  .faults(1)
                  .uniform_latency(ms(1), ms(5))
                  .runtime(GetParam())
                  .seed(91)
                  .build();

  // One batch, twelve distinct keys: the whole batch is issued into the
  // client's context before any reply is processed, so all twelve quorum
  // rounds overlap.
  std::vector<std::pair<RegisterKey, Value>> puts;
  for (int i = 0; i < 12; ++i) {
    std::string n = std::to_string(i);
    puts.emplace_back("key" + n, "v" + n);
  }
  std::vector<Tag> tags =
      when_all(c.client().write_batch(puts)).get(seconds(60));
  ASSERT_EQ(tags.size(), 12u);
  for (const Tag& t : tags) EXPECT_EQ(t.pid, c.client().id());

  // The acceptance bar: >= 8 operations genuinely in flight at once.
  EXPECT_GE(max_in_flight_of(c, c.client()), 8u);

  // Batch read-back fans in to the written values, in input order.
  std::vector<RegisterKey> keys;
  for (const auto& [k, _] : puts) keys.push_back(k);
  std::vector<TaggedValue> got =
      when_all(c.client().read_batch(keys)).get(seconds(60));
  ASSERT_EQ(got.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    std::string expected = "v";
    expected += std::to_string(i);
    EXPECT_EQ(got[i].value, expected);
    EXPECT_EQ(got[i].tag, tags[i]);
  }
}

TEST_P(PipelineOnBothRuntimes, ThenAndHeterogeneousWhenAllCompose) {
  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(500), ms(3))
                  .runtime(GetParam())
                  .seed(92)
                  .build();

  // then() chains a continuation off a write's tag without blocking.
  Await<std::string> chained =
      c.client().write("chain", "payload").then([](const Tag& t) {
        return "ts=" + std::to_string(t.ts);
      });
  EXPECT_EQ(chained.get(seconds(30)), "ts=1");

  // Heterogeneous fan-in: a write's Tag alongside a read's TaggedValue.
  auto [tag, tv] = when_all(c.client().write("other", "x"),
                            c.client().read("chain"))
                       .get(seconds(30));
  EXPECT_EQ(tag.pid, c.client().id());
  EXPECT_EQ(tv.value, "payload");

  // A void continuation stays awaitable (Await<bool>).
  bool side_effect = false;
  Await<bool> done = c.client().read("chain").then(
      [&side_effect](const TaggedValue&) { side_effect = true; });
  EXPECT_TRUE(done.get(seconds(30)));
  EXPECT_TRUE(side_effect);
}

TEST_P(PipelineOnBothRuntimes, OpenLoopMultiKeyWorkloadStaysAtomicPerKey) {
  auto history = std::make_shared<HistoryRecorder>();
  WorkloadParams wp;
  wp.num_ops = 40;
  wp.read_ratio = 0.5;
  wp.value_size = 8;
  wp.num_keys = 4;                // >= 4 keys ...
  wp.target_ops_per_sec = 2000;   // ... open loop, one arrival per 0.5ms
  wp.max_in_flight = 16;

  Cluster c = Cluster::builder()
                  .servers(5)
                  .faults(1)
                  .clients(4)  // ... >= 4 clients, pipelined
                  .uniform_latency(us(200), ms(2))
                  .runtime(GetParam())
                  .seed(93)
                  .workload(wp)
                  .history(history)
                  .build();

  std::size_t total_completed = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(120)).has_value())
        << "workload client #" << k << " did not finish";
  }
  c.quiesce();
  bool any_overlap = false;
  for (std::size_t k = 0; k < 4; ++k) {
    WorkloadClient& w = c.workload(k);
    EXPECT_EQ(w.completed() + w.shed(), wp.num_ops);
    EXPECT_GT(w.completed(), 0u);
    EXPECT_GT(w.achieved_ops_per_sec(), 0.0);
    if (w.max_in_flight_seen() >= 2) any_overlap = true;
    total_completed += w.completed();
  }
  // Arrivals come 0.5ms apart while ops need at least one ~0.4-4ms quorum
  // round trip: some client must have overlapped operations.
  EXPECT_TRUE(any_overlap);

  // Coordinated-omission audit: every completed op also recorded a
  // corrected latency from its intended arrival tick. The intended start
  // never postdates the actual issue, so corrected >= raw at every
  // percentile (equal on the simulator, where arrivals fire exactly on
  // schedule).
  for (std::size_t k = 0; k < 4; ++k) {
    WorkloadClient& w = c.workload(k);
    EXPECT_EQ(w.corrected_op_latency().count(), w.op_latency().count());
    EXPECT_GE(w.corrected_op_latency().percentile(99),
              w.op_latency().percentile(99));
    if (GetParam() == Runtime::kSim) {
      EXPECT_EQ(w.corrected_op_latency().percentile(50),
                w.op_latency().percentile(50));
    }
  }

  // Every per-key projection of the pipelined multi-client history is an
  // atomic single-register history.
  auto ops = history->completed();
  EXPECT_EQ(ops.size(), total_completed);
  std::set<RegisterKey> keys_seen;
  for (const auto& op : ops) keys_seen.insert(op.key);
  EXPECT_GT(keys_seen.size(), 1u);
  auto err = check_atomicity(ops);
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST_P(PipelineOnBothRuntimes, OpenLoopSingleKeySerializesButCompletes) {
  // Degenerate open loop on one key: the per-key FIFO serializes every
  // op, the window fills, arrivals shed — but the run still terminates
  // and the history stays atomic.
  auto history = std::make_shared<HistoryRecorder>();
  WorkloadParams wp;
  wp.num_ops = 30;
  wp.num_keys = 1;
  wp.target_ops_per_sec = 5000;
  wp.max_in_flight = 4;
  wp.value_size = 8;

  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(200), ms(1))
                  .runtime(GetParam())
                  .seed(94)
                  .workload(wp)
                  .history(history)
                  .build();

  ASSERT_TRUE(c.workload_done().try_get(seconds(120)).has_value());
  c.quiesce();
  WorkloadClient& w = c.workload();
  EXPECT_EQ(w.completed() + w.shed(), wp.num_ops);
  EXPECT_GT(w.completed(), 0u);
  auto err = check_atomicity(history->completed());
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST_P(PipelineOnBothRuntimes, OpenLoopZeroOpsFinishesImmediately) {
  WorkloadParams wp;
  wp.num_ops = 0;
  wp.target_ops_per_sec = 100;

  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(200), ms(1))
                  .runtime(GetParam())
                  .seed(95)
                  .workload(wp)
                  .build();
  ASSERT_TRUE(c.workload_done().try_get(seconds(30)).has_value());
  EXPECT_EQ(c.workload().completed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, PipelineOnBothRuntimes,
                         ::testing::Values(Runtime::kSim, Runtime::kThread),
                         [](const auto& info) {
                           return info.param == Runtime::kSim ? "Sim"
                                                              : "Threads";
                         });

// --- Await primitives (no cluster needed) -----------------------------------

TEST(Await, PollAndReadyAreNonBlocking) {
  Await<int> aw;
  EXPECT_FALSE(aw.ready());
  EXPECT_FALSE(aw.poll().has_value());
  aw.fulfill(7);
  EXPECT_TRUE(aw.ready());
  EXPECT_EQ(aw.poll().value(), 7);
  aw.fulfill(9);  // first fulfill wins
  EXPECT_EQ(aw.get(), 7);
}

TEST(Await, ThenOnAlreadyFulfilledRunsImmediately) {
  Await<int> aw;
  aw.fulfill(3);
  Await<int> doubled = aw.then([](const int& v) { return v * 2; });
  EXPECT_EQ(doubled.poll().value(), 6);
}

TEST(Await, WhenAllVectorPreservesOrderAndHandlesEmpty) {
  std::vector<Await<int>> parts(3);
  Await<std::vector<int>> all = when_all(parts);
  EXPECT_FALSE(all.ready());
  parts[2].fulfill(30);
  parts[0].fulfill(10);
  EXPECT_FALSE(all.ready());
  parts[1].fulfill(20);
  ASSERT_TRUE(all.ready());
  EXPECT_EQ(all.get(), (std::vector<int>{10, 20, 30}));

  EXPECT_EQ(when_all(std::vector<Await<int>>{}).get(),
            std::vector<int>{});
}

TEST(Await, WhenAllTupleMixesTypes) {
  Await<int> a;
  Await<std::string> b;
  Await<std::tuple<int, std::string>> both = when_all(a, b);
  b.fulfill("hi");
  EXPECT_FALSE(both.ready());
  a.fulfill(4);
  auto [x, s] = both.get();
  EXPECT_EQ(x, 4);
  EXPECT_EQ(s, "hi");
}

}  // namespace
}  // namespace wrs
