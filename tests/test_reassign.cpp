// Tests for the restricted pairwise weight reassignment protocol
// (Algorithms 3 and 4): RP-Integrity, RP-Validity-I/II, RP-Liveness, and
// schedule-sweep property tests.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "core/reassign_client.h"
#include "test_util.h"

namespace wrs {
namespace {

using test::ReassignCluster;
using test::run_until;

TEST(Transfer, EffectiveTransferMovesWeight) {
  ReassignCluster c(4, 1, /*seed=*/1);
  std::optional<TransferOutcome> outcome;
  c.node(0).transfer(1, Weight(1, 4),
                     [&](const TransferOutcome& o) { outcome = o; });
  run_until(*c.env, [&] { return outcome.has_value(); });
  EXPECT_TRUE(outcome->effective);
  EXPECT_EQ(outcome->completion_change.delta, -Weight(1, 4));
  EXPECT_EQ(outcome->completion_change.target(), 0u);
  c.env->run_to_quiescence();
  // Every server converges to the new weights.
  for (auto& n : c.nodes) {
    EXPECT_EQ(n->weight_of(0), Weight(3, 4));
    EXPECT_EQ(n->weight_of(1), Weight(5, 4));
  }
}

TEST(Transfer, NullTransferWhenFloorWouldBeViolated) {
  // n=4, f=1: floor = 4/(2*3) = 2/3. Uniform weight 1; transferring 1/2
  // would leave 1/2 < 2/3 + ... check: need weight > delta + floor =
  // 1/2 + 2/3 = 7/6 > 1 -> null.
  ReassignCluster c(4, 1, 2);
  std::optional<TransferOutcome> outcome;
  c.node(0).transfer(1, Weight(1, 2),
                     [&](const TransferOutcome& o) { outcome = o; });
  run_until(*c.env, [&] { return outcome.has_value(); });
  EXPECT_FALSE(outcome->effective);
  EXPECT_TRUE(outcome->completion_change.is_null());
  c.env->run_to_quiescence();
  for (auto& n : c.nodes) {
    EXPECT_EQ(n->weight_of(0), Weight(1));
    EXPECT_EQ(n->weight_of(1), Weight(1));
  }
}

TEST(Transfer, BoundaryDeltaExactlyAtFloorIsRejected) {
  // weight > delta + floor must be STRICT: with weight 1, floor 2/3,
  // delta exactly 1/3 gives equality -> null transfer.
  ReassignCluster c(4, 1, 3);
  std::optional<TransferOutcome> outcome;
  c.node(0).transfer(1, Weight(1, 3),
                     [&](const TransferOutcome& o) { outcome = o; });
  run_until(*c.env, [&] { return outcome.has_value(); });
  EXPECT_FALSE(outcome->effective);
}

TEST(Transfer, JustBelowBoundaryIsEffective) {
  ReassignCluster c(4, 1, 4);
  std::optional<TransferOutcome> outcome;
  c.node(0).transfer(1, Weight(1, 3) - Weight(1, 100),
                     [&](const TransferOutcome& o) { outcome = o; });
  run_until(*c.env, [&] { return outcome.has_value(); });
  EXPECT_TRUE(outcome->effective);
}

TEST(Transfer, SequentialityEnforced) {
  ReassignCluster c(4, 1, 5);
  c.node(0).transfer(1, Weight(1, 8), [](const TransferOutcome&) {});
  EXPECT_THROW(
      c.node(0).transfer(2, Weight(1, 8), [](const TransferOutcome&) {}),
      std::logic_error);
}

TEST(Transfer, RejectsBadArguments) {
  ReassignCluster c(4, 1, 6);
  EXPECT_THROW(c.node(0).transfer(0, Weight(1, 8), [](auto&) {}),
               std::invalid_argument);  // self
  EXPECT_THROW(c.node(0).transfer(1, Weight(0), [](auto&) {}),
               std::invalid_argument);  // zero delta
  EXPECT_THROW(c.node(0).transfer(1, -Weight(1, 8), [](auto&) {}),
               std::invalid_argument);  // negative delta
  EXPECT_THROW(c.node(0).transfer(17, Weight(1, 8), [](auto&) {}),
               std::invalid_argument);  // unknown server
}

TEST(Transfer, CompletesWithFCrashedServers) {
  // RP-Liveness: n=5, f=2 — two crashed servers must not block transfer.
  ReassignCluster c(5, 2, 7);
  c.env->crash(3);
  c.env->crash(4);
  std::optional<TransferOutcome> outcome;
  c.node(0).transfer(1, Weight(1, 10),
                     [&](const TransferOutcome& o) { outcome = o; });
  run_until(*c.env, [&] { return outcome.has_value(); });
  EXPECT_TRUE(outcome->effective);
}

TEST(Transfer, ChainedTransfersAccumulate) {
  ReassignCluster c(4, 1, 8);
  int completed = 0;
  std::function<void()> next = [&] {
    c.node(0).transfer(1, Weight(1, 16), [&](const TransferOutcome& o) {
      EXPECT_TRUE(o.effective);
      ++completed;
      if (completed < 4) next();
    });
  };
  next();
  run_until(*c.env, [&] { return completed == 4; });
  c.env->run_to_quiescence();
  EXPECT_EQ(c.node(2).weight_of(0), Weight(3, 4));
  EXPECT_EQ(c.node(2).weight_of(1), Weight(5, 4));
}

TEST(Transfer, GainEnablesLargerOutgoingTransfer) {
  // s1 gains from s0, then s1 can donate more than it initially could.
  ReassignCluster c(4, 1, 9);
  bool step1 = false, step2 = false;
  c.node(0).transfer(1, Weight(1, 4), [&](const TransferOutcome& o) {
    EXPECT_TRUE(o.effective);
    step1 = true;
  });
  run_until(*c.env, [&] { return step1; });
  c.env->run_to_quiescence();
  // s1 now has 5/4; it can transfer 1/2 (needs > 1/2 + 2/3 = 7/6).
  c.node(1).transfer(2, Weight(1, 2), [&](const TransferOutcome& o) {
    EXPECT_TRUE(o.effective);
    step2 = true;
  });
  run_until(*c.env, [&] { return step2; });
  c.env->run_to_quiescence();
  EXPECT_EQ(c.node(3).weight_of(1), Weight(3, 4));
  EXPECT_EQ(c.node(3).weight_of(2), Weight(3, 2));
}

// --- the gain target stores a transfer pair whole ---------------------------

TEST(GainRefresh, TargetStoresNeitherHalfUntilItsRefreshIsDone) {
  ReassignCluster c(3, 1, /*seed=*/5);
  std::vector<std::function<void()>> held;
  c.node(2).set_refresh_hook(
      [&](std::function<void()> done) { held.push_back(std::move(done)); });
  bool completed = false;
  c.node(0).transfer(2, Weight(1, 8),
                     [&](const TransferOutcome&) { completed = true; });
  c.env->run_to_quiescence();
  // s1's T_Ack completes the transfer (n-f-1 = 1); s2 still refreshes.
  EXPECT_TRUE(completed);
  ASSERT_EQ(held.size(), 1u);
  const ChangeId neg{0, kFirstCounter, 0};
  const ChangeId pos{0, kFirstCounter, 2};
  EXPECT_FALSE(c.node(2).changes().contains(neg));
  EXPECT_FALSE(c.node(2).changes().contains(pos));
  EXPECT_EQ(c.node(2).weight_of(0), Weight(1));
  const std::int64_t acks = c.env->traffic().get("msg.T_ACK");

  held[0]();
  EXPECT_TRUE(c.node(2).changes().contains(neg));
  EXPECT_TRUE(c.node(2).changes().contains(pos));
  c.env->run_to_quiescence();
  EXPECT_EQ(c.env->traffic().get("msg.T_ACK"), acks + 1);
  EXPECT_EQ(c.node(2).weight_of(2), Weight(9, 8));
}

TEST(GainRefresh, LossHalfArrivingLaterJoinsTheWaitingGain) {
  // A read_changes write-back carries one target's changes, so a gain can
  // arrive alone and its loss half later: the loss waits with the gain,
  // and the write-back that carried it is acked once both are stored.
  ReassignCluster c(3, 1, /*seed=*/5);
  std::vector<std::function<void()>> held;
  c.node(2).set_refresh_hook(
      [&](std::function<void()> done) { held.push_back(std::move(done)); });
  const Change neg(0, kFirstCounter, 0, -Weight(1, 8));
  const Change pos(0, kFirstCounter, 2, Weight(1, 8));
  ChangeSet gain;
  gain.add(pos);
  ChangeSet loss;
  loss.add(neg);
  c.node(2).handle(client_id(0), WcReq(/*op_id=*/1, gain, c.config.shard));
  ASSERT_EQ(held.size(), 1u);
  c.node(2).handle(client_id(0), WcReq(/*op_id=*/2, loss, c.config.shard));
  EXPECT_EQ(held.size(), 1u) << "the loss half started a refresh of its own";
  EXPECT_FALSE(c.node(2).changes().contains(neg.id));
  EXPECT_EQ(c.env->traffic().get("msg.WC_ACK"), 0);

  held[0]();
  EXPECT_TRUE(c.node(2).changes().contains(neg.id));
  EXPECT_TRUE(c.node(2).changes().contains(pos.id));
  EXPECT_EQ(c.env->traffic().get("msg.WC_ACK"), 2);
  EXPECT_EQ(c.env->traffic().get("msg.T_ACK"), 1);
}

TEST(GainRefresh, OneSyncWithTwoGainsRunsOneRefresh) {
  ReassignCluster c(3, 1, /*seed=*/5);
  int refreshes = 0;
  c.node(2).set_refresh_hook([&](std::function<void()> done) {
    ++refreshes;
    done();
  });
  ChangeSet sent = c.node(2).changes();
  sent.add(Change(0, kFirstCounter, 0, -Weight(1, 4)));
  sent.add(Change(0, kFirstCounter, 2, Weight(1, 4)));
  sent.add(Change(1, kFirstCounter, 1, -Weight(1, 8)));
  sent.add(Change(1, kFirstCounter, 2, Weight(1, 8)));
  c.node(2).handle(0, SyncMsg(sent, std::nullopt, c.config.shard));
  EXPECT_EQ(refreshes, 1);
  EXPECT_EQ(c.node(2).changes(), sent);
  c.env->run_to_quiescence();
  // Both issuers got their T_Ack.
  EXPECT_EQ(c.env->traffic().get("msg.T_ACK"), 2);
}

TEST(ReadChanges, ReturnsInitialWeights) {
  ReassignCluster c(4, 1, 10);
  std::optional<ChangeSet> result;
  c.node(0).read_changes(2, [&](const ChangeSet& cs) { result = cs; });
  run_until(*c.env, [&] { return result.has_value(); });
  EXPECT_EQ(result->weight_of(2), Weight(1));
  EXPECT_EQ(result->size(), 1u);  // just the initial change for s2
}

TEST(ReadChanges, ValidityII_ContainsCompletedChanges) {
  ReassignCluster c(4, 1, 11);
  std::optional<TransferOutcome> outcome;
  c.node(0).transfer(1, Weight(1, 4),
                     [&](const TransferOutcome& o) { outcome = o; });
  run_until(*c.env, [&] { return outcome.has_value(); });
  // The transfer is completed; read_changes(s1) must contain the credit.
  std::optional<ChangeSet> result;
  c.node(2).read_changes(1, [&](const ChangeSet& cs) { result = cs; });
  run_until(*c.env, [&] { return result.has_value(); });
  EXPECT_TRUE(result->contains(
      ChangeId{0, outcome->completion_change.counter(), 1}));
  EXPECT_EQ(result->weight_of(1), Weight(5, 4));
}

TEST(ReadChanges, ClientProcessCanRead) {
  ReassignCluster c(4, 1, 12);
  ReassignClient client(*c.env, client_id(0), c.config);
  c.env->register_process(client_id(0), &client);
  std::optional<ChangeSet> result;
  client.read_changes(0, [&](const ChangeSet& cs) { result = cs; });
  run_until(*c.env, [&] { return result.has_value(); });
  EXPECT_EQ(result->weight_of(0), Weight(1));
}

TEST(ReadChanges, ReadAllWeights) {
  ReassignCluster c(4, 1, 13);
  bool done = false;
  c.node(0).transfer(1, Weight(1, 4), [&](const TransferOutcome&) {
    done = true;
  });
  run_until(*c.env, [&] { return done; });
  c.env->run_to_quiescence();

  ReassignClient client(*c.env, client_id(0), c.config);
  c.env->register_process(client_id(0), &client);
  std::optional<WeightMap> weights;
  client.read_all_weights(c.config,
                          [&](const WeightMap& wm) { weights = wm; });
  run_until(*c.env, [&] { return weights.has_value(); });
  EXPECT_EQ(weights->of(0), Weight(3, 4));
  EXPECT_EQ(weights->of(1), Weight(5, 4));
  EXPECT_EQ(weights->total(), Weight(4));
}

TEST(ReadChanges, CompletesWithFCrashes) {
  ReassignCluster c(5, 2, 14);
  c.env->crash(1);
  c.env->crash(2);
  std::optional<ChangeSet> result;
  c.node(0).read_changes(3, [&](const ChangeSet& cs) { result = cs; });
  run_until(*c.env, [&] { return result.has_value(); });
  EXPECT_EQ(result->weight_of(3), Weight(1));
}

// --- Property tests: schedule sweeps ----------------------------------------

struct SweepParams {
  std::uint64_t seed;
  std::uint32_t n;
  std::uint32_t f;
};

class TransferSweepTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(TransferSweepTest, RpIntegrityInvariantUnderConcurrentTransfers) {
  auto [seed, n, f] = GetParam();
  ReassignCluster c(n, f, seed);
  Weight floor = c.config.floor();
  Rng rng(seed);

  // Every node repeatedly fires random transfers at random peers.
  std::vector<int> remaining(n, 6);
  int in_flight = 0;
  std::function<void(std::uint32_t)> fire = [&](std::uint32_t i) {
    if (remaining[i] == 0) return;
    --remaining[i];
    ++in_flight;
    ProcessId dst = (i + 1 + rng.below(n - 1)) % n;
    Weight delta(1 + static_cast<std::int64_t>(rng.below(40)), 64);
    c.node(i).transfer(dst, delta, [&, i](const TransferOutcome&) {
      --in_flight;
      fire(i);
    });
  };
  for (std::uint32_t i = 0; i < n; ++i) fire(i);

  auto all_done = [&] {
    if (in_flight != 0) return false;
    for (int r : remaining) {
      if (r != 0) return false;
    }
    return true;
  };
  run_until(*c.env, all_done, seconds(600));
  c.env->run_to_quiescence();

  // RP-Integrity at the end on every replica, and total conservation.
  for (auto& node : c.nodes) {
    Weight total(0);
    for (std::uint32_t s = 0; s < n; ++s) {
      Weight w = node->weight_of(s);
      EXPECT_GT(w, floor) << "RP-Integrity violated at "
                          << process_name(node->id()) << " for s" << s;
      total += w;
    }
    EXPECT_EQ(total, c.config.initial_total());  // pairwise conservation
  }
  // Convergence: all correct replicas agree on all weights.
  for (std::uint32_t s = 0; s < n; ++s) {
    for (auto& node : c.nodes) {
      EXPECT_EQ(node->weight_of(s), c.node(0).weight_of(s));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, TransferSweepTest,
    ::testing::Values(SweepParams{101, 4, 1}, SweepParams{102, 4, 1},
                      SweepParams{103, 5, 2}, SweepParams{104, 5, 2},
                      SweepParams{105, 7, 2}, SweepParams{106, 7, 3},
                      SweepParams{107, 9, 4}, SweepParams{108, 10, 3},
                      SweepParams{109, 6, 2}, SweepParams{110, 8, 3}));

class TransferCrashSweepTest : public ::testing::TestWithParam<SweepParams> {
};

TEST_P(TransferCrashSweepTest, LivenessWithFCrashesMidstream) {
  auto [seed, n, f] = GetParam();
  ReassignCluster c(n, f, seed);
  Rng rng(seed ^ 0x5eed);

  // Crash f random servers at random times; the remaining servers keep
  // transferring and must all complete.
  std::set<std::uint32_t> crashed;
  while (crashed.size() < f) {
    crashed.insert(static_cast<std::uint32_t>(rng.below(n)));
  }
  TimeNs when = ms(5);
  for (std::uint32_t victim : crashed) {
    c.env->schedule(kNoProcess, when, [&, victim] { c.env->crash(victim); });
    when += ms(7);
  }

  int completed = 0;
  int expected = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (crashed.count(i) != 0) continue;
    ++expected;
    ProcessId dst = (i + 1) % n;
    c.node(i).transfer(dst, Weight(1, 32),
                       [&](const TransferOutcome&) { ++completed; });
  }
  run_until(*c.env, [&] { return completed == expected; }, seconds(600));

  // Surviving replicas converge and respect the floor.
  c.env->run_to_quiescence();
  Weight floor = c.config.floor();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (crashed.count(i) != 0) continue;
    for (std::uint32_t s = 0; s < n; ++s) {
      EXPECT_GT(c.node(i).weight_of(s), floor);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, TransferCrashSweepTest,
    ::testing::Values(SweepParams{201, 4, 1}, SweepParams{202, 5, 2},
                      SweepParams{203, 7, 2}, SweepParams{204, 7, 3},
                      SweepParams{205, 9, 4}, SweepParams{206, 10, 3}));

}  // namespace
}  // namespace wrs
