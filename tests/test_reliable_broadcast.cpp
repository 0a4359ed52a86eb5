#include "broadcast/reliable_broadcast.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "runtime/sim_env.h"

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

/// A server that only runs a reliable-broadcast endpoint.
class RbServer : public Process {
 public:
  RbServer(Env& env, ProcessId self, std::vector<ProcessId> group)
      : rb_(
            env, self,
            [this](ProcessId origin, const Message& m) {
              const auto* note = msg_cast<NoteMsg>(m);
              ASSERT_NE(note, nullptr);
              delivered.emplace_back(origin, note->value());
            },
            std::move(group)) {}

  void on_message(ProcessId from, const Message& msg) override {
    rb_.handle(from, msg);
  }

  ReliableBroadcast& rb() { return rb_; }
  std::vector<std::pair<ProcessId, int>> delivered;

 private:
  ReliableBroadcast rb_;
};

struct RbCluster {
  std::unique_ptr<SimEnv> env;
  std::vector<std::unique_ptr<RbServer>> servers;

  explicit RbCluster(std::uint32_t n, std::uint64_t seed = 1) {
    env = std::make_unique<SimEnv>(
        std::make_shared<UniformLatency>(ms(1), ms(10)), seed);
    for (std::uint32_t i = 0; i < n; ++i) {
      servers.push_back(
          std::make_unique<RbServer>(*env, i, server_range(0, n)));
      env->register_process(i, servers.back().get());
    }
    env->start();
  }
};

TEST(ReliableBroadcast, DeliversToEveryServerIncludingOrigin) {
  RbCluster c(4);
  c.servers[0]->rb().broadcast(std::make_shared<NoteMsg>(7));
  c.env->run_to_quiescence();
  for (const auto& s : c.servers) {
    ASSERT_EQ(s->delivered.size(), 1u);
    EXPECT_EQ(s->delivered[0], std::make_pair(ProcessId{0}, 7));
  }
}

TEST(ReliableBroadcast, NoDuplicateDeliveries) {
  RbCluster c(5);
  for (int i = 0; i < 10; ++i) {
    c.servers[1]->rb().broadcast(std::make_shared<NoteMsg>(i));
  }
  c.env->run_to_quiescence();
  for (const auto& s : c.servers) {
    EXPECT_EQ(s->delivered.size(), 10u);
  }
}

TEST(ReliableBroadcast, OrderPreservedPerOriginIsNotGuaranteed) {
  // Sanity: with random latencies, deliveries happen but any order; we
  // only require the *set* of delivered values to match.
  RbCluster c(4, /*seed=*/99);
  for (int i = 0; i < 20; ++i) {
    c.servers[2]->rb().broadcast(std::make_shared<NoteMsg>(i));
  }
  c.env->run_to_quiescence();
  for (const auto& s : c.servers) {
    std::multiset<int> values;
    for (auto& [origin, v] : s->delivered) values.insert(v);
    std::multiset<int> expected;
    for (int i = 0; i < 20; ++i) expected.insert(i);
    EXPECT_EQ(values, expected);
  }
}

TEST(ReliableBroadcast, AgreementWhenOriginCrashesAfterPartialSend) {
  // The crux of RB: if ANY correct server delivers, ALL correct servers
  // deliver — even when the origin reached only one server. Simulate the
  // partial send by injecting the wrapped message at a single server.
  RbCluster c(5);
  auto payload = std::make_shared<NoteMsg>(123);
  auto wrapped = std::make_shared<RbMsg>(/*origin=*/0, /*seq=*/0, payload);
  c.env->crash(0);  // origin is gone; only server 3 got the message
  c.env->send(0, 3, wrapped);  // in-flight before the crash
  // (SimEnv drops sends *from* crashed processes; emulate the in-flight
  // message by sending from a live id.)
  c.env->send(1, 3, wrapped);
  c.env->run_to_quiescence();
  for (std::uint32_t i = 1; i < 5; ++i) {
    ASSERT_EQ(c.servers[i]->delivered.size(), 1u)
        << "server " << i << " missed the broadcast";
    EXPECT_EQ(c.servers[i]->delivered[0].second, 123);
  }
}

TEST(ReliableBroadcast, ForwardingTerminates) {
  // Echo forwarding must not loop: message count is bounded by O(n^2)
  // per broadcast.
  RbCluster c(6);
  c.servers[0]->rb().broadcast(std::make_shared<NoteMsg>(1));
  c.env->run_to_quiescence();
  // 1 broadcast: origin sends n, each of the other n-1 servers forwards n.
  EXPECT_LE(c.env->traffic().get("msg.RB"), 6 + 5 * 6);
}

TEST(ReliableBroadcast, DistinctOriginsDoNotCollide) {
  RbCluster c(4);
  c.servers[0]->rb().broadcast(std::make_shared<NoteMsg>(10));
  c.servers[1]->rb().broadcast(std::make_shared<NoteMsg>(20));
  c.env->run_to_quiescence();
  for (const auto& s : c.servers) {
    ASSERT_EQ(s->delivered.size(), 2u);
    std::set<std::pair<ProcessId, int>> got(s->delivered.begin(),
                                            s->delivered.end());
    EXPECT_TRUE(got.count({0, 10}) == 1);
    EXPECT_TRUE(got.count({1, 20}) == 1);
  }
}

TEST(ReliableBroadcast, SurvivesFCrashesAmongReceivers) {
  RbCluster c(5);
  c.env->crash(3);
  c.env->crash(4);
  c.servers[0]->rb().broadcast(std::make_shared<NoteMsg>(55));
  c.env->run_to_quiescence();
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_EQ(c.servers[i]->delivered.size(), 1u);
    EXPECT_EQ(c.servers[i]->delivered[0].second, 55);
  }
}

}  // namespace
}  // namespace wrs
