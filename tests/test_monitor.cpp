// Tests for the monitoring substrate and the adaptive node loop.
#include <gtest/gtest.h>

#include <memory>

#include "monitor/adaptive_node.h"
#include "runtime/sim_env.h"

namespace wrs {
namespace {

TEST(LatencyMonitor, EwmaConvergesToSteadyInput) {
  LatencyMonitor m(0.5);
  for (int i = 0; i < 32; ++i) m.add_sample(0, ms(10));
  ASSERT_TRUE(m.estimate(0).has_value());
  EXPECT_NEAR(*m.estimate(0), static_cast<double>(ms(10)), 1.0);
}

TEST(LatencyMonitor, EwmaTracksShift) {
  LatencyMonitor m(0.5);
  for (int i = 0; i < 10; ++i) m.add_sample(0, ms(10));
  for (int i = 0; i < 20; ++i) m.add_sample(0, ms(100));
  EXPECT_GT(*m.estimate(0), static_cast<double>(ms(90)));
}

TEST(LatencyMonitor, FastestPicksMinimum) {
  LatencyMonitor m;
  m.add_sample(0, ms(50));
  m.add_sample(1, ms(10));
  m.add_sample(2, ms(90));
  ASSERT_TRUE(m.fastest().has_value());
  EXPECT_EQ(*m.fastest(), 1u);
}

TEST(LatencyMonitor, NoSamplesNoEstimates) {
  LatencyMonitor m;
  EXPECT_FALSE(m.estimate(0).has_value());
  EXPECT_FALSE(m.fastest().has_value());
  EXPECT_FALSE(m.has_estimates_for_all({0, 1}));
}

TEST(WeightPolicy, NoDecisionWhenSelfIsFastest) {
  LatencyMonitor m;
  m.add_sample(0, ms(5));
  m.add_sample(1, ms(50));
  WeightPolicy p(Weight(1, 10));
  EXPECT_FALSE(p.decide(0, Weight(1), Weight(2, 3), m).has_value());
}

TEST(WeightPolicy, SlowServerDonatesToFastest) {
  LatencyMonitor m;
  m.add_sample(0, ms(100));
  m.add_sample(1, ms(10));
  m.add_sample(2, ms(60));
  WeightPolicy p(Weight(1, 10), 1.5);
  auto d = p.decide(0, Weight(1), Weight(2, 3), m);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->dst, 1u);
  EXPECT_EQ(d->delta, Weight(1, 10));
}

TEST(WeightPolicy, RespectsFloorWithMargin) {
  LatencyMonitor m;
  m.add_sample(0, ms(100));
  m.add_sample(1, ms(10));
  WeightPolicy p(Weight(1, 10), 1.5);
  // weight 0.75, floor 2/3: 0.75 > 0.1 + 0.666..? 0.75 < 0.7666 -> no.
  EXPECT_FALSE(p.decide(0, Weight(3, 4), Weight(2, 3), m).has_value());
  // weight 0.8 > 0.766.. -> yes.
  EXPECT_TRUE(p.decide(0, Weight(4, 5), Weight(2, 3), m).has_value());
}

TEST(WeightPolicy, NotSlowEnoughNoDecision) {
  LatencyMonitor m;
  m.add_sample(0, ms(12));
  m.add_sample(1, ms(10));
  WeightPolicy p(Weight(1, 10), 1.5);
  EXPECT_FALSE(p.decide(0, Weight(1), Weight(1, 2), m).has_value());
}

TEST(AdaptiveNode, WeightsFlowTowardFastServer) {
  // 5 servers; server 4 sits behind a slow link. With adaptation on, its
  // weight should drain toward the fast servers over time.
  SystemConfig cfg = SystemConfig::uniform(5, 1);
  auto inner = std::make_unique<ConstantLatency>(ms(5));
  auto degradable = std::make_shared<DegradableLatency>(std::move(inner));
  degradable->set_factor(4, 20.0);  // server 4 is 20x slower
  SimEnv env(degradable, 77);

  AdaptiveParams params;
  params.probe_interval = ms(20);
  params.eval_interval = ms(60);
  params.step = Weight(1, 20);
  params.slow_factor = 2.0;

  std::vector<std::unique_ptr<AdaptiveNode>> nodes;
  for (std::uint32_t i = 0; i < 5; ++i) {
    nodes.push_back(std::make_unique<AdaptiveNode>(env, i, cfg, params));
    env.register_process(i, nodes.back().get());
  }
  env.start();
  env.run_until(seconds(5));

  // Server 4 donated weight; it never goes below the floor.
  Weight w4 = nodes[0]->reassign().weight_of(4);
  EXPECT_LT(w4, Weight(1));
  EXPECT_GT(w4, cfg.floor());
  EXPECT_GT(nodes[4]->transfers_issued(), 0u);
  // Total conserved.
  Weight total(0);
  for (std::uint32_t s = 0; s < 5; ++s) {
    total += nodes[0]->reassign().weight_of(s);
  }
  EXPECT_EQ(total, Weight(5));
}

TEST(AdaptiveNode, MissedTickRunsWhenTransferCompletes) {
  // Server 4 sits behind a 20x link, so each of its transfers (T out,
  // T_Acks back) takes ~200 ms and spans several 60 ms ticks. The tick it
  // misses must run the policy when the transfer completes, not at the
  // next tick after it.
  SystemConfig cfg = SystemConfig::uniform(5, 1);
  auto degradable = std::make_shared<DegradableLatency>(
      std::make_unique<ConstantLatency>(ms(5)));
  degradable->set_factor(4, 20.0);
  SimEnv env(degradable, 79);

  AdaptiveParams params;
  params.probe_interval = ms(20);
  params.eval_interval = ms(60);
  params.step = Weight(1, 20);
  params.slow_factor = 2.0;

  std::vector<std::unique_ptr<AdaptiveNode>> nodes;
  for (std::uint32_t i = 0; i < 5; ++i) {
    nodes.push_back(std::make_unique<AdaptiveNode>(env, i, cfg, params));
    env.register_process(i, nodes.back().get());
  }
  env.start();

  // Step event by event and record when the donor issues and completes
  // transfers. A completion whose callback issues the next transfer shows
  // as one event that bumps the count with a transfer in flight before
  // and after.
  AdaptiveNode& donor = *nodes[4];
  std::vector<TimeNs> issued_at, completed_at;
  bool in_flight = false;
  std::uint64_t issued = 0;
  while (env.now() < seconds(5) && env.step()) {
    const bool now_in_flight = donor.reassign().transfer_in_flight();
    const std::uint64_t now_issued = donor.transfers_issued();
    if (in_flight && (!now_in_flight || now_issued > issued)) {
      completed_at.push_back(env.now());
    }
    if (now_issued > issued) {
      ASSERT_EQ(now_issued, issued + 1) << "two transfers in one event";
      issued_at.push_back(env.now());
      // Evaluations never outnumber ticks: ticks fire at k * eval_interval.
      EXPECT_LE(now_issued,
                static_cast<std::uint64_t>(env.now() / params.eval_interval));
    }
    in_flight = now_in_flight;
    issued = now_issued;
  }

  // 1 -> 13/20 in steps of 1/20; the C2 margin stops the eighth.
  ASSERT_EQ(issued_at.size(), 7u);
  ASSERT_EQ(completed_at.size(), 7u);
  for (std::size_t k = 0; k < issued_at.size(); ++k) {
    // Each transfer outlasts eval_interval, so a tick was missed...
    EXPECT_GT(completed_at[k] - issued_at[k], params.eval_interval);
    if (k + 1 < issued_at.size()) {
      // ...and the next transfer starts the instant this one completes,
      // never before it.
      EXPECT_EQ(issued_at[k + 1], completed_at[k]) << "transfer " << k + 1;
    }
  }
  EXPECT_EQ(donor.reassign().weight(), Weight(13, 20));
}

TEST(AdaptiveNode, DisabledAdaptationKeepsWeights) {
  SystemConfig cfg = SystemConfig::uniform(4, 1);
  auto degradable = std::make_shared<DegradableLatency>(
      std::make_unique<ConstantLatency>(ms(5)));
  degradable->set_factor(3, 20.0);
  SimEnv env(degradable, 78);
  AdaptiveParams params;
  params.adaptation_enabled = false;
  std::vector<std::unique_ptr<AdaptiveNode>> nodes;
  for (std::uint32_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<AdaptiveNode>(env, i, cfg, params));
    env.register_process(i, nodes.back().get());
  }
  env.start();
  env.run_until(seconds(3));
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(nodes[0]->reassign().weight_of(s), Weight(1));
  }
}

}  // namespace
}  // namespace wrs
