// The fault-injection plane: LinkFaults semantics, per-runtime wiring
// (SimEnv deterministic + seeded, ThreadEnv under real concurrency), the
// Cluster scenario verbs, and the liveness hardening (AbdClient
// retransmission, ReassignNode anti-entropy) that makes protocols survive
// lossy links.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "api/cluster.h"
#include "runtime/link_faults.h"
#include "runtime/sim_env.h"
#include "runtime/thread_env.h"

namespace wrs {
namespace {

class NoteMsg : public MessageBase<NoteMsg> {
 public:
  explicit NoteMsg(int v) : v_(v) {}
  int value() const { return v_; }
  std::string type_name() const override { return "NOTE"; }

 private:
  int v_;
};

/// Sim-side recorder (single-threaded).
class Recorder : public Process {
 public:
  explicit Recorder(SimEnv& env) : env_(env) {}
  void on_message(ProcessId from, const Message& msg) override {
    const auto* note = msg_cast<NoteMsg>(msg);
    ASSERT_NE(note, nullptr);
    entries.push_back({from, note->value(), env_.now()});
  }
  struct Entry {
    ProcessId from;
    int value;
    TimeNs at;
  };
  std::vector<Entry> entries;

 private:
  SimEnv& env_;
};

/// Thread-side recorder (atomic counter).
class Counting : public Process {
 public:
  void on_message(ProcessId, const Message& msg) override {
    if (msg_cast<NoteMsg>(msg) != nullptr) ++count;
  }
  std::atomic<int> count{0};
};

void wait_count(const Counting& p, int at_least,
                int spins = 2000) {
  for (int i = 0; i < spins && p.count.load() < at_least; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- LinkFaults unit semantics (no env) -------------------------------------

TEST(LinkFaults, PartitionIsSymmetricAndHealable) {
  LinkFaults f;
  EXPECT_FALSE(f.active());
  f.partition(1, 2);
  EXPECT_TRUE(f.active());
  EXPECT_TRUE(f.is_cut(1, 2));
  EXPECT_TRUE(f.is_cut(2, 1));
  EXPECT_FALSE(f.is_cut(1, 3));
  f.heal(1, 2);
  EXPECT_FALSE(f.is_cut(1, 2));
  EXPECT_FALSE(f.active());
}

TEST(LinkFaults, CutOneWayIsDirectional) {
  LinkFaults f;
  f.cut_one_way(1, 2);
  EXPECT_TRUE(f.is_cut(1, 2));
  EXPECT_FALSE(f.is_cut(2, 1));
  Rng rng(1);
  EXPECT_FALSE(f.decide(1, 2, rng).deliver);
  EXPECT_TRUE(f.decide(2, 1, rng).deliver);
}

TEST(LinkFaults, SelfLoopsAreNeverFaulted) {
  LinkFaults f;
  f.partition(3, 3);
  f.set_drop(3, 3, 1.0);
  Rng rng(1);
  EXPECT_TRUE(f.decide(3, 3, rng).deliver);
  EXPECT_FALSE(f.is_cut(3, 3));
}

TEST(LinkFaults, DropAndDuplicateProbabilitiesAreExtremes) {
  LinkFaults f;
  Rng rng(7);
  f.set_drop(0, 1, 1.0);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(f.decide(0, 1, rng).deliver);
  f.set_drop(0, 1, 0.0);
  f.set_duplicate(0, 1, 1.0);
  for (int i = 0; i < 50; ++i) {
    auto d = f.decide(1, 0, rng);  // symmetric
    EXPECT_TRUE(d.deliver);
    EXPECT_TRUE(d.duplicate);
  }
  f.heal_all();
  EXPECT_FALSE(f.active());
  EXPECT_TRUE(f.decide(0, 1, rng).deliver);
}

TEST(LinkFaults, FaultFreeDecisionsConsumeNoRandomness) {
  LinkFaults f;
  f.partition(5, 6);  // a cut needs no draw either
  Rng a(42);
  Rng b(42);
  (void)f.decide(0, 1, a);
  (void)f.decide(5, 6, a);
  EXPECT_EQ(a(), b());  // identical stream position
}

// --- SimEnv wiring ----------------------------------------------------------

TEST(SimEnvFaults, PartitionDropsUntilHealAndCountsLost) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(5)), 1);
  Recorder a(env);
  Recorder b(env);
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  env.faults().partition(0, 1);
  env.send(0, 1, std::make_shared<NoteMsg>(1));
  env.send(1, 0, std::make_shared<NoteMsg>(2));
  env.run_to_quiescence();
  EXPECT_TRUE(a.entries.empty());
  EXPECT_TRUE(b.entries.empty());
  EXPECT_EQ(env.traffic().get("msgs.lost"), 2);
  env.faults().heal(0, 1);
  env.send(0, 1, std::make_shared<NoteMsg>(3));
  env.run_to_quiescence();
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_EQ(b.entries[0].value, 3);  // the cut-era message stays lost
}

TEST(SimEnvFaults, AsymmetricCutOnlySilencesOneDirection) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(5)), 1);
  Recorder a(env);
  Recorder b(env);
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  env.faults().cut_one_way(0, 1);
  env.send(0, 1, std::make_shared<NoteMsg>(1));
  env.send(1, 0, std::make_shared<NoteMsg>(2));
  env.run_to_quiescence();
  EXPECT_TRUE(b.entries.empty());
  ASSERT_EQ(a.entries.size(), 1u);
  EXPECT_EQ(a.entries[0].value, 2);
}

TEST(SimEnvFaults, ProbabilisticDropIsSeededAndPartial) {
  auto run = [](std::uint64_t seed) {
    SimEnv env(std::make_shared<ConstantLatency>(ms(1)), seed);
    Recorder a(env);
    Recorder b(env);
    env.register_process(0, &a);
    env.register_process(1, &b);
    env.start();
    env.faults().set_drop(0, 1, 0.5);
    for (int i = 0; i < 200; ++i) {
      env.send(0, 1, std::make_shared<NoteMsg>(i));
    }
    env.run_to_quiescence();
    std::vector<int> got;
    for (const auto& e : b.entries) got.push_back(e.value);
    return got;
  };
  auto got = run(9);
  // Roughly half survive; the exact subset is a pure function of the seed.
  EXPECT_GT(got.size(), 50u);
  EXPECT_LT(got.size(), 150u);
  EXPECT_EQ(got, run(9));
  EXPECT_NE(got, run(10));
}

TEST(SimEnvFaults, DuplicateDeliversExactlyTwice) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  Recorder a(env);
  Recorder b(env);
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  env.faults().set_duplicate(0, 1, 1.0);
  for (int i = 0; i < 10; ++i) {
    env.send(0, 1, std::make_shared<NoteMsg>(i));
  }
  env.run_to_quiescence();
  EXPECT_EQ(b.entries.size(), 20u);
  EXPECT_EQ(env.traffic().get("msgs.dup"), 10);
}

TEST(SimEnvFaults, BoundedReorderingShufflesWithinTheBound) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(5)), 3);
  Recorder a(env);
  Recorder b(env);
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  env.faults().set_reorder(1.0, ms(50));
  for (int i = 0; i < 100; ++i) {
    env.send(0, 1, std::make_shared<NoteMsg>(i));
  }
  env.run_to_quiescence();
  ASSERT_EQ(b.entries.size(), 100u);
  bool out_of_order = false;
  for (std::size_t i = 0; i < b.entries.size(); ++i) {
    EXPECT_GE(b.entries[i].at, ms(5));
    EXPECT_LE(b.entries[i].at, ms(55));
    if (i > 0 && b.entries[i].value < b.entries[i - 1].value) {
      out_of_order = true;
    }
  }
  EXPECT_TRUE(out_of_order);  // the whole point of the knob
}

// --- ThreadEnv wiring -------------------------------------------------------

TEST(ThreadEnvFaults, PartitionDropsUntilHeal) {
  ThreadEnv env;
  Counting a;
  Counting b;
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  env.faults().partition(0, 1);
  for (int i = 0; i < 20; ++i) env.send(0, 1, std::make_shared<NoteMsg>(i));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(b.count.load(), 0);
  env.faults().heal(0, 1);
  for (int i = 0; i < 20; ++i) env.send(0, 1, std::make_shared<NoteMsg>(i));
  wait_count(b, 20);
  env.stop();
  EXPECT_EQ(b.count.load(), 20);  // only the post-heal batch arrives
  EXPECT_EQ(env.traffic().get("msgs.lost"), 20);
}

TEST(ThreadEnvFaults, DuplicateDeliversTwice) {
  ThreadEnv env;
  Counting a;
  Counting b;
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  env.faults().set_duplicate(0, 1, 1.0);
  for (int i = 0; i < 25; ++i) env.send(0, 1, std::make_shared<NoteMsg>(i));
  wait_count(b, 50);
  env.stop();
  EXPECT_EQ(b.count.load(), 50);
}

TEST(ThreadEnvFaults, LateRegistrationDeliversOnStartAndMessages) {
  ThreadEnv env;
  Counting a;
  env.register_process(0, &a);
  env.start();
  Counting late;
  env.register_process(7, &late);  // after start(): worker spawns now
  env.send(0, 7, std::make_shared<NoteMsg>(1));
  wait_count(late, 1);
  env.stop();
  EXPECT_EQ(late.count.load(), 1);
}

// --- Cluster verbs on both runtimes ----------------------------------------

class FaultsOnBothRuntimes : public ::testing::TestWithParam<Runtime> {};

TEST_P(FaultsOnBothRuntimes, PartitionedMinorityStallsReadsUntilHeal) {
  // 5 uniform servers: a weighted quorum needs > 5/2. A client cut off
  // from 3 of them can only ever hear weight 2 — reads MUST stall. After
  // heal, the client's retransmission timer re-broadcasts the stalled
  // phase and the read completes (cut messages were lost, not buffered).
  Cluster c = Cluster::builder()
                  .servers(5)
                  .faults(2)
                  .uniform_latency(us(200), ms(2))
                  .retry(ms(10))
                  .runtime(GetParam())
                  .seed(201)
                  .build();
  ProcessId client = c.client().id();
  for (ProcessId s : {0u, 1u, 2u}) c.partition(client, s);

  Await<TaggedValue> read = c.client().read();
  c.run_for(ms(80));  // plenty of retries — still no quorum reachable
  EXPECT_FALSE(read.ready());

  for (ProcessId s : {0u, 1u, 2u}) c.heal(client, s);
  TaggedValue tv = read.get(seconds(30));
  EXPECT_EQ(tv.tag, kInitialTag);
}

TEST_P(FaultsOnBothRuntimes, ReadsSurviveDropStormsWithRetries) {
  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(200), ms(1))
                  .retry(ms(5))
                  .runtime(GetParam())
                  .seed(202)
                  .build();
  c.drop_all_links(0.4);  // a permanent 40% loss storm
  Tag t = c.client().write("survivor").get(seconds(60));
  TaggedValue tv = c.client().read().get(seconds(60));
  EXPECT_EQ(tv.tag, t);
  EXPECT_EQ(tv.value, "survivor");
  EXPECT_GT(c.env().traffic().get("msgs.lost"), 0);
}

TEST_P(FaultsOnBothRuntimes, AntiEntropyConvergesIsolatedServerAfterHeal) {
  // s3 is fully isolated while s0 transfers weight to s1. The transfer
  // completes without s3 (n-f-1 = 2 acks reachable); after healing,
  // anti-entropy delivers the change pair to s3 even though every
  // original T broadcast to it was lost.
  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(200), ms(1))
                  .retry(ms(5))
                  .anti_entropy(ms(10))
                  .runtime(GetParam())
                  .seed(203)
                  .build();
  c.isolate(3);
  TransferOutcome out = c.server(0).transfer(1, Weight(1, 4)).get(seconds(60));
  ASSERT_TRUE(out.effective);
  WeightMap expected = c.server(0).weights_snapshot().get(seconds(30));
  EXPECT_EQ(expected.of(1), Weight(5, 4));

  // While isolated, s3 still believes the initial weights.
  WeightMap stale = c.server(3).weights_snapshot().get(seconds(30));
  EXPECT_EQ(stale.of(1), Weight(1));

  c.heal_all_links();
  // A few sync periods later s3 has caught up.
  WeightMap healed;
  for (int i = 0; i < 100; ++i) {
    c.run_for(ms(20));
    healed = c.server(3).weights_snapshot().get(seconds(30));
    if (healed == expected) break;
  }
  EXPECT_EQ(healed, expected);
}

TEST_P(FaultsOnBothRuntimes, AddClientMidRunReadsTheRegister) {
  Cluster c = Cluster::builder()
                  .servers(4)
                  .faults(1)
                  .uniform_latency(us(200), ms(1))
                  .runtime(GetParam())
                  .seed(204)
                  .build();
  Tag t = c.client().write("before-restart").get(seconds(30));
  c.crash(c.client().id());  // the original reader dies...
  std::size_t fresh = c.add_client();  // ...and "restarts" as a new one
  EXPECT_EQ(c.num_clients(), 2u);
  TaggedValue tv = c.client(fresh).read().get(seconds(30));
  EXPECT_EQ(tv.tag, t);
  EXPECT_EQ(tv.value, "before-restart");
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, FaultsOnBothRuntimes,
                         ::testing::Values(Runtime::kSim, Runtime::kThread),
                         [](const auto& info) {
                           return info.param == Runtime::kSim ? "Sim"
                                                              : "Threads";
                         });

}  // namespace
}  // namespace wrs
