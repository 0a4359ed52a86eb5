// The deployment facade (api/cluster.h) and awaitable API (api/await.h).
//
// The core promise under test: the SAME driver code runs on the
// deterministic simulator and on the thread runtime, selected only by the
// builder's Runtime enum — so most tests here are parameterized over the
// substrate.
#include <gtest/gtest.h>

#include <memory>

#include "api/cluster.h"
#include "storage/history.h"

namespace wrs {
namespace {

class ClusterOnBothRuntimes : public ::testing::TestWithParam<Runtime> {};

TEST_P(ClusterOnBothRuntimes, WriteReadTransferRoundTrip) {
  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(200), ms(3))
                  .runtime(GetParam())
                  .seed(11)
                  .build();

  Tag tag = c.client().write("v1").get(seconds(30));
  TaggedValue tv = c.client().read().get(seconds(30));
  EXPECT_EQ(tv.value, "v1");
  EXPECT_EQ(tv.tag, tag);

  TransferOutcome out = c.server(3).transfer(0, Weight(1, 4)).get(seconds(30));
  EXPECT_TRUE(out.effective);

  // The donor's own snapshot reflects the transfer immediately after
  // completion (both changes are stored locally before the callback).
  WeightMap w = c.server(3).weights_snapshot().get(seconds(30));
  EXPECT_EQ(w.of(0), Weight(5, 4));
  EXPECT_EQ(w.of(3), Weight(3, 4));

  // Reads keep working against the new quorum geometry.
  EXPECT_EQ(c.client().read().get(seconds(30)).value, "v1");
}

TEST_P(ClusterOnBothRuntimes, NamedRegistersAndListKeys) {
  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(200), ms(2))
                  .runtime(GetParam())
                  .seed(23)
                  .build();

  c.client().write("alpha", "1").get(seconds(30));
  c.client().write("beta", "2").get(seconds(30));
  auto keys = c.client().list_keys().get(seconds(30));
  EXPECT_EQ(keys.size(), 2u);

  EXPECT_EQ(c.client().read("beta").get(seconds(30)).value, "2");
}

TEST_P(ClusterOnBothRuntimes, CrashWithinBudgetKeepsServing) {
  Cluster c = Cluster::builder()
                  .servers(5)
                  .faults(1)
                  .uniform_latency(us(200), ms(2))
                  .runtime(GetParam())
                  .seed(31)
                  .build();

  c.client().write("survives").get(seconds(30));
  c.crash(4);
  EXPECT_TRUE(c.is_crashed(4));
  EXPECT_EQ(c.client().read().get(seconds(30)).value, "survives");
}

TEST_P(ClusterOnBothRuntimes, WorkloadClientsRecordAtomicHistories) {
  auto history = std::make_shared<HistoryRecorder>();
  WorkloadParams wp;
  wp.num_ops = 10;
  wp.think_time = ms(1);
  wp.value_size = 8;

  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .clients(2)
                  .uniform_latency(us(200), ms(2))
                  .runtime(GetParam())
                  .seed(41)
                  .workload(wp)
                  .history(history)
                  .build();

  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(c.workload_done(k).try_get(seconds(60)).has_value());
  }
  c.quiesce();
  EXPECT_EQ(history->completed_count(), 20u);
  EXPECT_FALSE(check_atomicity(history->completed()).has_value());
}

TEST_P(ClusterOnBothRuntimes, ReassignOnlyDeployment) {
  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(200), ms(2))
                  .runtime(GetParam())
                  .seed(53)
                  .reassign_only()
                  .build();

  EXPECT_TRUE(c.server(0).transfer(1, Weight(1, 8)).get(seconds(30)).effective);
  ChangeSet cs = c.reassign_client().read_changes(0).get(seconds(30));
  EXPECT_EQ(cs.weight_of(0), Weight(7, 8));

  // A storage accessor on a reassign-only deployment is a usage error.
  EXPECT_THROW(c.client(), std::logic_error);
  EXPECT_THROW(c.storage_node(0), std::logic_error);
}

TEST_P(ClusterOnBothRuntimes, StagedScriptsRunEvenWithServer0Crashed) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .faults(1)
                  .uniform_latency(ms(1), ms(2))
                  .runtime(GetParam())
                  .seed(3)
                  .build();
  // Scenario scripts are env-internal: they must fire on both substrates
  // even when every convenient execution context is gone.
  c.crash(0);
  Await<TimeNs> fired = c.make_await<TimeNs>();
  TimeNs scheduled_at = c.now();
  c.at(ms(100), [&c, fired] { fired.fulfill(c.now()); });
  EXPECT_GE(fired.get(seconds(30)), scheduled_at + ms(100));
}

TEST_P(ClusterOnBothRuntimes, AdaptiveServerDrainsTowardFloor) {
  // s2 turns 20x slow; the monitoring loop on s2 must move its weight to
  // faster peers, one transfer at a time, and stop above the floor.
  AdaptiveParams params;
  params.probe_interval = ms(20);
  params.eval_interval = ms(60);
  params.step = Weight(1, 10);
  params.slow_factor = 2.0;
  Cluster c = Cluster::builder()
                  .servers(5)
                  .faults(1)
                  .uniform_latency(ms(1), ms(2))
                  .runtime(GetParam())
                  .seed(61)
                  .adaptive(params)
                  .build();
  c.slow(2, 20.0);

  // 1 -> 7/10 in steps of 1/10: the C2 margin (floor 5/8 plus one step)
  // stops the fourth transfer.
  WeightMap w;
  for (int i = 0; i < 300; ++i) {
    c.run_for(ms(100));
    w = c.server(2).weights_snapshot().get(seconds(30));
    if (w.of(2) == Weight(7, 10)) break;
  }
  EXPECT_EQ(w.of(2), Weight(7, 10)) << w.str();
  EXPECT_GT(w.of(2), c.config().floor());
  for (ProcessId s : c.config().servers()) {
    EXPECT_EQ(c.server(s).weights_snapshot().get(seconds(30)).total(),
              Weight(5))
        << "server " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, ClusterOnBothRuntimes,
                         ::testing::Values(Runtime::kSim, Runtime::kThread),
                         [](const auto& info) {
                           return info.param == Runtime::kSim ? "Sim"
                                                              : "Threads";
                         });

TEST(Cluster, ScenarioHooksReshapeLatencyMidRun) {
  Cluster c = Cluster::builder()
                  .servers(3)
                  .faults(1)
                  .latency(std::make_shared<ConstantLatency>(ms(1)))
                  .seed(7)
                  .build();

  c.client().write("x").get(seconds(30));
  TimeNs t0 = c.now();
  c.client().read().get(seconds(30));
  TimeNs fast = c.now() - t0;

  c.slow(0, 50.0);
  c.slow(1, 50.0);
  c.slow(2, 50.0);
  t0 = c.now();
  c.client().read().get(seconds(200));
  TimeNs slowed = c.now() - t0;
  EXPECT_GT(slowed, fast * 10);

  c.clear_slow(0);
  c.clear_slow(1);
  c.clear_slow(2);
  c.set_latency(std::make_unique<ConstantLatency>(us(10)));
  t0 = c.now();
  c.client().read().get(seconds(30));
  EXPECT_LT(c.now() - t0, fast);
}

TEST(Cluster, AwaitTimesOutWhenNoQuorumExists) {
  Cluster c = Cluster::builder()
                  .servers(5)
                  .faults(1)
                  .uniform_latency(ms(1), ms(2))
                  .seed(9)
                  .build();
  // Crash beyond the budget: 3 of 5 servers — no weighted quorum remains.
  c.crash(2);
  c.crash(3);
  c.crash(4);
  Await<Tag> stuck = c.client().write("never");
  EXPECT_THROW(stuck.get(seconds(5)), AwaitTimeout);
  EXPECT_FALSE(stuck.ready());
}

TEST(Cluster, BuilderValidatesTopology) {
  EXPECT_THROW(Cluster::builder().build(), std::invalid_argument);
  EXPECT_THROW(Cluster::builder().servers(4).faults(2).build(),
               std::invalid_argument);

  // Conflicting server roles fail loudly instead of last-one-wins.
  EXPECT_THROW(Cluster::builder().servers(4).adaptive({}).reassign_only(),
               std::logic_error);
  EXPECT_THROW(Cluster::builder().servers(4).reassign_only().adaptive({}),
               std::logic_error);
  // A workload needs storage clients.
  EXPECT_THROW(Cluster::builder()
                   .servers(4)
                   .faults(1)
                   .reassign_only()
                   .workload({})
                   .build(),
               std::invalid_argument);
  Cluster c = Cluster::builder().servers(4).faults(1).seed(1).build();
  EXPECT_THROW(c.client(7), std::out_of_range);
  EXPECT_THROW(c.server(99), std::out_of_range);
  EXPECT_THROW(c.workload(0), std::logic_error);
  EXPECT_THROW(c.adaptive_node(0), std::logic_error);

  // Bad indices name the offender and the valid range.
  try {
    c.server(99);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[0, 4)"), std::string::npos)
        << e.what();
  }
  try {
    c.reassign_client(7);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[0, 1)"), std::string::npos)
        << e.what();
  }
}

TEST(Cluster, SameSeedSameSimSchedule) {
  auto run = [] {
    Cluster c = Cluster::builder()
                    .servers(4)
                    .faults(1)
                    .uniform_latency(ms(1), ms(9))
                    .seed(77)
                    .build();
    c.client().write("det").get(seconds(30));
    c.server(0).transfer(1, Weight(1, 3)).get(seconds(30));
    c.quiesce();
    return c.now();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace wrs
