#include "consensus/paxos.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "runtime/sim_env.h"

namespace wrs {
namespace {

class PaxosProcess : public Process {
 public:
  PaxosProcess(Env& env, ProcessId self, std::uint32_t n, std::uint32_t f,
               std::uint64_t seed)
      : node_(
            env, self, n, f,
            [this](InstanceId i, const PaxosValue& v) { decisions[i] = v; },
            seed) {}
  void on_message(ProcessId from, const Message& msg) override {
    node_.handle(from, msg);
  }
  PaxosNode& node() { return node_; }
  std::map<InstanceId, PaxosValue> decisions;

 private:
  PaxosNode node_;
};

struct PaxosCluster {
  std::unique_ptr<SimEnv> env;
  std::vector<std::unique_ptr<PaxosProcess>> servers;
  std::uint32_t n;

  PaxosCluster(std::uint32_t n_, std::uint32_t f, std::uint64_t seed,
               TimeNs lo = ms(1), TimeNs hi = ms(10))
      : n(n_) {
    env = std::make_unique<SimEnv>(std::make_shared<UniformLatency>(lo, hi),
                                   seed);
    for (std::uint32_t i = 0; i < n; ++i) {
      servers.push_back(
          std::make_unique<PaxosProcess>(*env, i, n, f, seed + i));
      env->register_process(i, servers.back().get());
    }
    env->start();
  }

  bool all_decided(InstanceId inst) const {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (env->is_crashed(i)) continue;
      if (!servers[i]->node().decided(inst)) return false;
    }
    return true;
  }
};

TEST(Paxos, SingleProposerDecides) {
  PaxosCluster c(5, 2, 1);
  c.servers[0]->node().propose(0, "alpha");
  ASSERT_TRUE(c.env->run_until_pred([&] { return c.all_decided(0); },
                                    seconds(120)));
  for (const auto& s : c.servers) {
    EXPECT_EQ(*s->node().decision(0), "alpha");
  }
}

TEST(Paxos, AgreementUnderConcurrentProposers) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u}) {
    PaxosCluster c(5, 2, seed);
    for (std::uint32_t i = 0; i < 5; ++i) {
      c.servers[i]->node().propose(
          0, std::string("v").append(std::to_string(i)));
    }
    ASSERT_TRUE(c.env->run_until_pred([&] { return c.all_decided(0); },
                                      seconds(300)))
        << "seed " << seed;
    // Agreement: all identical.
    PaxosValue v = *c.servers[0]->node().decision(0);
    for (const auto& s : c.servers) {
      EXPECT_EQ(*s->node().decision(0), v) << "seed " << seed;
    }
    // Validity: decided value was proposed.
    EXPECT_TRUE(v.size() == 2 && v[0] == 'v');
  }
}

TEST(Paxos, ToleratesMinorityCrashes) {
  PaxosCluster c(5, 2, 21);
  c.env->crash(3);
  c.env->crash(4);
  c.servers[1]->node().propose(0, "resilient");
  ASSERT_TRUE(c.env->run_until_pred([&] { return c.all_decided(0); },
                                    seconds(300)));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(*c.servers[i]->node().decision(0), "resilient");
  }
}

TEST(Paxos, IndependentInstances) {
  PaxosCluster c(5, 2, 31);
  c.servers[0]->node().propose(0, "zero");
  c.servers[1]->node().propose(1, "one");
  c.servers[2]->node().propose(2, "two");
  ASSERT_TRUE(c.env->run_until_pred(
      [&] {
        return c.all_decided(0) && c.all_decided(1) && c.all_decided(2);
      },
      seconds(300)));
  EXPECT_EQ(*c.servers[4]->node().decision(0), "zero");
  EXPECT_EQ(*c.servers[4]->node().decision(1), "one");
  EXPECT_EQ(*c.servers[4]->node().decision(2), "two");
}

TEST(Paxos, SafetyUnderHeavyTailDelays) {
  // Safety must hold under nasty asynchrony even if liveness suffers:
  // run with heavy-tailed latencies and verify no two servers disagree.
  for (std::uint64_t seed : {41u, 42u, 43u, 44u}) {
    auto latency = std::make_shared<HeavyTailLatency>(ms(1), ms(5), 1.1,
                                                      seconds(2));
    SimEnv env(latency, seed);
    std::vector<std::unique_ptr<PaxosProcess>> servers;
    for (std::uint32_t i = 0; i < 5; ++i) {
      servers.push_back(std::make_unique<PaxosProcess>(env, i, 5, 2,
                                                       seed + i));
      env.register_process(i, servers.back().get());
    }
    env.start();
    for (std::uint32_t i = 0; i < 5; ++i) {
      servers[i]->node().propose(0, std::string("w").append(std::to_string(i)));
    }
    env.run_until(seconds(60));
    std::optional<PaxosValue> decided;
    for (const auto& s : servers) {
      auto d = s->node().decision(0);
      if (!d.has_value()) continue;
      if (decided.has_value()) {
        EXPECT_EQ(*decided, *d) << "disagreement, seed " << seed;
      } else {
        decided = d;
      }
    }
  }
}

}  // namespace
}  // namespace wrs
