// Batched wire protocol tests: envelope coalescing cuts messages while
// preserving results, per-key FIFO, and unique write tags; batching(1)
// is byte-identical to the unbatched path (pinned, like shards(1));
// servers unpack envelopes with per-frame shard validation and per-frame
// M/D/1 service cost; and a seeded chaos episode (drop/dup/reorder of
// whole envelopes) produces the same check_atomicity verdict as the
// unbatched replay of the same seed — on both runtimes.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "storage/abd_server.h"
#include "storage/history.h"
#include "test_util.h"

namespace wrs {
namespace {

// --- batching(1) byte-compatibility -----------------------------------------

/// The same scripted run with batching(1) (any max_delay) vs a builder
/// that never mentions batching: the knob at window 1 IS the unbatched
/// wire protocol — identical message counts, types, and bytes.
TEST(BatchCompat, BatchingOneIsByteIdenticalToUnbatched) {
  auto run = [](int variant) {
    ClusterBuilder b = Cluster::builder()
                           .servers(3)
                           .shards(2)
                           .clients(1)
                           .runtime(Runtime::kSim)
                           .seed(41);
    if (variant == 1) b.batching(1);
    if (variant == 2) b.batching(1, ms(5));  // delay is moot at window 1
    Cluster c = b.build();
    auto tags = c.client().write_batch(
        {{"x", "1"}, {"y", "2"}, {"z", "3"}, {"x", "4"}});
    for (auto& t : tags) t.get();
    std::string out;
    out += c.client().read("x").get().value;
    out += c.client().read("y").get().value;
    out += c.client().read("z").get().value;
    c.quiesce();
    EXPECT_EQ(c.client().router().batches_sent(), 0u);
    for (const auto& [name, value] : c.traffic().map()) {
      out += " " + name + "=" + std::to_string(value);
    }
    return out;
  };
  std::string unbatched = run(0);
  EXPECT_EQ(unbatched, run(1))
      << "batching(1) must be byte-identical to the unbatched wire protocol";
  EXPECT_EQ(unbatched, run(2));
}

// --- coalescing -------------------------------------------------------------

class BatchCoalescing : public ::testing::TestWithParam<Runtime> {};

TEST_P(BatchCoalescing, CutsMessagesAndPreservesResults) {
  auto run = [&](bool batched) {
    ClusterBuilder b = Cluster::builder()
                           .servers(3)
                           .faults(1)
                           .shards(1)
                           .clients(1)
                           .runtime(GetParam())
                           .seed(43);
    if (batched) b.batching(8, ms(1));
    Cluster c = b.build();
    std::vector<std::pair<RegisterKey, Value>> puts;
    for (int i = 0; i < 24; ++i) {
      puts.emplace_back(std::string("key").append(std::to_string(i)),
                        std::string("v").append(std::to_string(i)));
    }
    auto tags = c.client().write_batch(puts);
    for (auto& t : tags) t.get();
    std::vector<RegisterKey> keys;
    for (const auto& [k, _] : puts) keys.push_back(k);
    auto reads = c.client().read_batch(keys);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      EXPECT_EQ(reads[i].get().value, puts[i].second) << puts[i].first;
    }
    c.quiesce();
    if (batched) {
      // The whole 24-op burst is issuable in one tick: envelopes must
      // have been flushed and must average > 1 frame.
      EXPECT_GT(c.client().router().batches_sent(), 0u);
      EXPECT_GT(c.client().router().batched_frames(),
                c.client().router().batches_sent());
    } else {
      EXPECT_EQ(c.client().router().batches_sent(), 0u);
    }
    return c.traffic().get("msgs");
  };
  std::int64_t unbatched = run(false);
  std::int64_t batched = run(true);
  EXPECT_LT(batched * 2, unbatched)
      << "window-8 coalescing must at least halve the message count "
      << "(unbatched " << unbatched << ", batched " << batched << ")";
}

TEST_P(BatchCoalescing, SameKeyFifoAndUniqueTagsPreserved) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .faults(1)
                  .clients(1)
                  .batching(4, ms(1))
                  .runtime(GetParam())
                  .seed(47)
                  .build();
  // Six pipelined writes to ONE key ride the per-key FIFO through the
  // batching layer: completion in issue order, strictly growing tags.
  std::vector<std::pair<RegisterKey, Value>> puts;
  for (int i = 0; i < 6; ++i) puts.emplace_back("hot", std::to_string(i));
  auto tags = c.client().write_batch(puts);
  std::vector<Tag> got;
  for (auto& t : tags) got.push_back(t.get());
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_TRUE(got[i - 1] < got[i])
        << "write tags must stay unique and FIFO-ordered under batching";
  }
  EXPECT_EQ(c.client().read("hot").get().value, "5");
  c.quiesce();
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, BatchCoalescing,
                         ::testing::Values(Runtime::kSim, Runtime::kThread));

// --- server-side envelope handling ------------------------------------------

TEST(BatchServer, MisroutedEnvelopeAndFramesDroppedAndCounted) {
  auto latency = std::make_shared<UniformLatency>(ms(1), ms(2));
  SimEnv env(latency, 1);
  AbdServer server(env, /*self=*/0, /*changes_provider=*/nullptr,
                   /*shard=*/1);
  // A whole envelope carrying another group's shard id: consumed (it is
  // addressed to this protocol), counted ONCE, never answered.
  std::vector<MsgPtr> frames;
  frames.push_back(std::make_shared<ReadReq>(1, "k", 1, /*shard=*/0));
  frames.push_back(std::make_shared<ReadReq>(2, "k", 1, /*shard=*/0));
  BatchRequest wrong(/*shard=*/0, frames);
  EXPECT_TRUE(server.handle(client_id(0), wrong));
  EXPECT_EQ(server.misrouted_count(), 1u);
  EXPECT_EQ(env.traffic().get("msgs"), 0) << "no reply may leave the server";

  // A correct envelope with one misrouted FRAME inside: the bad frame is
  // skipped (counted), the good one acked — one BatchReply total.
  frames.clear();
  frames.push_back(std::make_shared<ReadReq>(3, "k", 1, /*shard=*/1));
  frames.push_back(std::make_shared<ReadReq>(4, "k", 1, /*shard=*/0));
  BatchRequest mixed(/*shard=*/1, frames);
  EXPECT_TRUE(server.handle(client_id(0), mixed));
  EXPECT_EQ(server.misrouted_count(), 2u);
  EXPECT_EQ(server.batches_served(), 1u);
  EXPECT_EQ(env.traffic().get("msgs"), 1);
  EXPECT_EQ(env.traffic().get("msg.B_A"), 1);
}

TEST(BatchServer, EnvelopeCostsOneServiceTimePerFrame) {
  struct Sink : Process {
    SimEnv* env = nullptr;
    std::vector<std::pair<TimeNs, std::size_t>> replies;  // (time, frames)
    void on_message(ProcessId, const Message& msg) override {
      if (const auto* b = msg_cast<BatchReply>(msg)) {
        replies.emplace_back(env->now(), b->frames().size());
      } else {
        replies.emplace_back(env->now(), 1);
      }
    }
  };
  auto latency = std::make_shared<UniformLatency>(us(1), us(2));
  SimEnv env(latency, 5);
  Sink client;
  client.env = &env;
  env.register_process(client_id(0), &client);

  AbdServer server(env, /*self=*/0, nullptr, /*shard=*/0);
  server.set_service_time(ms(1));
  env.start();

  std::vector<MsgPtr> frames;
  for (OpId id = 1; id <= 4; ++id) {
    frames.push_back(std::make_shared<ReadReq>(id, "k", 1, 0));
  }
  BatchRequest batch(/*shard=*/0, std::move(frames));
  EXPECT_TRUE(server.handle(client_id(0), batch));
  env.run_to_quiescence();

  // One reply carrying all 4 acks, sent only after 4 x 1ms of serial
  // work — batching amortizes messages, never the modeled CPU.
  ASSERT_EQ(client.replies.size(), 1u);
  EXPECT_EQ(client.replies[0].second, 4u);
  EXPECT_GE(client.replies[0].first, ms(4));
  EXPECT_LT(client.replies[0].first, ms(4) + ms(1));
}

// --- chaos: whole-envelope drop/dup/reorder ---------------------------------

struct ChaosOutcome {
  std::string verdict;  // empty = atomic
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::int64_t lost = 0;
  std::int64_t dup = 0;
  std::uint64_t envelopes = 0;
};

/// A seeded episode of drop/dup/reorder storms over an open-loop
/// workload; the fault plane acts on whatever the wire carries — whole
/// BatchRequest envelopes when batching is on.
ChaosOutcome run_chaos(Runtime rt, bool batched, std::uint64_t seed) {
  WorkloadParams wp;
  wp.num_ops = 40;
  wp.read_ratio = 0.5;
  wp.value_size = 8;
  wp.num_keys = 6;
  wp.target_ops_per_sec = 500;
  wp.max_in_flight = 8;
  wp.seed = seed;

  auto history = std::make_shared<HistoryRecorder>();
  ClusterBuilder b = Cluster::builder()
                         .servers(3)
                         .faults(1)
                         .shards(2)
                         .clients(2)
                         .workload(wp)
                         .history(history)
                         .uniform_latency(us(200), ms(2))
                         .retry(ms(10))
                         .anti_entropy(ms(25))
                         .runtime(rt)
                         .seed(seed);
  if (batched) b.batching(4, ms(1));
  Cluster c = b.build();

  c.drop_all_links(0.05);
  c.duplicate_all_links(0.05);
  c.reorder_links(0.3, ms(1));  // sim-only; threads reorder natively
  c.run_for(ms(150));
  c.heal_all_links();

  ChaosOutcome out;
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    EXPECT_TRUE(c.workload_done(k).try_get(seconds(30)).has_value())
        << "client #" << k << " never finished (liveness under retry)";
    out.completed += c.workload(k).completed();
    out.shed += c.workload(k).shed();
    out.envelopes += c.workload(k).router().batches_sent();
  }
  c.set_anti_entropy(0);
  c.quiesce(seconds(120));
  out.lost = c.traffic().get("msgs.lost");
  out.dup = c.traffic().get("msgs.dup");
  out.verdict = check_atomicity(history->completed()).value_or("");
  return out;
}

class BatchChaos : public ::testing::TestWithParam<Runtime> {};

TEST_P(BatchChaos, SeededEnvelopeChaosKeepsAtomicityVerdictOfUnbatchedRun) {
  const std::uint64_t seed = 20260727;
  ChaosOutcome unbatched = run_chaos(GetParam(), false, seed);
  ChaosOutcome batched = run_chaos(GetParam(), true, seed);

  // Identical verdicts — and both must be "atomic", so the equality is
  // not vacuous.
  EXPECT_EQ(batched.verdict, unbatched.verdict);
  EXPECT_EQ(unbatched.verdict, "") << unbatched.verdict;
  EXPECT_EQ(batched.verdict, "") << batched.verdict;

  // Both runs drained every arrival despite envelope loss: executed to
  // completion or shed at a full in-flight window (legitimate open-loop
  // load shedding — batching adds up to one flush delay per phase, so
  // the batched run may shed more), with real progress in both.
  EXPECT_EQ(unbatched.completed + unbatched.shed, 2u * 40u);
  EXPECT_EQ(batched.completed + batched.shed, 2u * 40u);
  EXPECT_GT(unbatched.completed, 40u);
  EXPECT_GT(batched.completed, 40u);

  // The chaos genuinely acted on batched envelopes: envelopes flowed,
  // and the fault plane dropped and duplicated wire messages.
  EXPECT_GT(batched.envelopes, 0u);
  EXPECT_EQ(unbatched.envelopes, 0u);
  EXPECT_GT(batched.lost, 0);
  EXPECT_GT(batched.dup, 0);
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, BatchChaos,
                         ::testing::Values(Runtime::kSim, Runtime::kThread));

}  // namespace
}  // namespace wrs
