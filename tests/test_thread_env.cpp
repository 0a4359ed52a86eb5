#include "runtime/thread_env.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "api/await.h"
#include "net/wire_format.h"

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

class CountingProcess : public Process {
 public:
  void on_message(ProcessId, const Message& msg) override {
    const auto* note = msg_cast<NoteMsg>(msg);
    if (note == nullptr) return;
    // Detect concurrent handler execution (must never happen).
    int expected = 0;
    if (!in_handler.compare_exchange_strong(expected, 1)) {
      overlap.store(true);
    }
    sum += note->value();
    ++count;
    in_handler.store(0);
  }
  std::atomic<int> in_handler{0};
  std::atomic<bool> overlap{false};
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
};

TEST(ThreadEnv, DeliversMessages) {
  ThreadEnv env;
  CountingProcess a;
  CountingProcess b;
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  for (int i = 1; i <= 100; ++i) {
    env.send(0, 1, std::make_shared<NoteMsg>(i));
  }
  // Wait until everything drained.
  for (int spin = 0; spin < 1000 && b.count.load() < 100; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  env.stop();
  EXPECT_EQ(b.count.load(), 100);
  // NoteMsg has no wire mapping: each send charges an empty-bodied frame.
  EXPECT_EQ(env.traffic().get("bytes"),
            100 * static_cast<std::int64_t>(net::kFramePreludeBytes));
  EXPECT_EQ(b.sum.load(), 5050);
  EXPECT_FALSE(b.overlap.load());
}

TEST(ThreadEnv, HandlersSerializedUnderContention) {
  ThreadEnv env;
  CountingProcess target;
  CountingProcess sender1;
  CountingProcess sender2;
  env.register_process(0, &target);
  env.register_process(1, &sender1);
  env.register_process(2, &sender2);
  env.start();
  // Two threads hammer the same target concurrently.
  std::thread t1([&] {
    for (int i = 0; i < 500; ++i) env.send(1, 0, std::make_shared<NoteMsg>(1));
  });
  std::thread t2([&] {
    for (int i = 0; i < 500; ++i) env.send(2, 0, std::make_shared<NoteMsg>(1));
  });
  t1.join();
  t2.join();
  for (int spin = 0; spin < 2000 && target.count.load() < 1000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  env.stop();
  EXPECT_EQ(target.count.load(), 1000);
  EXPECT_FALSE(target.overlap.load());
}

TEST(ThreadEnv, ScheduleFiresAfterDelay) {
  ThreadEnv env;
  CountingProcess a;
  env.register_process(0, &a);
  env.start();
  Await<TimeNs> fired;
  TimeNs before = env.now();
  env.schedule(0, ms(20), [&env, fired] { fired.fulfill(env.now()); });
  auto fired_at = fired.try_get(seconds(5));
  env.stop();
  ASSERT_TRUE(fired_at.has_value());
  EXPECT_GE(*fired_at - before, ms(15));  // allow scheduler slop downward
}

TEST(ThreadEnv, InjectedLatencyDelaysDelivery) {
  ThreadEnv env(std::make_shared<ConstantLatency>(ms(30)), 1);
  CountingProcess a;
  CountingProcess b;
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  TimeNs before = env.now();
  env.send(0, 1, std::make_shared<NoteMsg>(1));
  for (int spin = 0; spin < 2000 && b.count.load() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  TimeNs elapsed = env.now() - before;
  env.stop();
  EXPECT_EQ(b.count.load(), 1);
  EXPECT_GE(elapsed, ms(25));
}

TEST(ThreadEnv, CrashedProcessReceivesNothing) {
  ThreadEnv env;
  CountingProcess a;
  CountingProcess b;
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  env.crash(1);
  env.send(0, 1, std::make_shared<NoteMsg>(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  env.stop();
  EXPECT_EQ(b.count.load(), 0);
  EXPECT_TRUE(env.is_crashed(1));
}

TEST(ThreadEnv, RegisterAfterStartSpawnsWorker) {
  // Mid-run registration is allowed (restart-as-new-reader scenarios):
  // the late process gets a worker and receives messages. Re-registering
  // an existing id is the error now — the old worker owns that mailbox.
  ThreadEnv env;
  CountingProcess a;
  env.register_process(0, &a);
  env.start();
  CountingProcess b;
  env.register_process(1, &b);
  env.send(0, 1, std::make_shared<NoteMsg>(1));
  for (int spin = 0; spin < 1000 && b.count.load() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CountingProcess dup;
  EXPECT_THROW(env.register_process(1, &dup), std::logic_error);
  env.stop();
  EXPECT_EQ(b.count.load(), 1);
}

TEST(ThreadEnv, StopIsIdempotentAndDestructorSafe) {
  auto env = std::make_unique<ThreadEnv>();
  CountingProcess a;
  env->register_process(0, &a);
  env->start();
  env->stop();
  env->stop();
  env.reset();  // destructor after stop: no crash
  SUCCEED();
}

TEST(ThreadEnv, CrashDropsInFlightDelayedDelivery) {
  // Pins crash semantics across the lock-free send refactor: a message
  // parked in the timer queue when the target crashes must be dropped at
  // fire time (the crash check happens at enqueue, not only at send).
  ThreadEnv env(std::make_shared<ConstantLatency>(ms(80)), 1);
  CountingProcess a;
  CountingProcess b;
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  env.send(0, 1, std::make_shared<NoteMsg>(1));  // in flight for 80ms
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  env.crash(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  env.stop();
  EXPECT_EQ(b.count.load(), 0);
  EXPECT_TRUE(env.is_crashed(1));
  EXPECT_EQ(env.traffic().get("msgs"), 1);  // counted at send time
}

TEST(ThreadEnv, ScheduleToCrashedProcessDropped) {
  ThreadEnv env;
  CountingProcess a;
  env.register_process(0, &a);
  env.start();
  std::atomic<bool> fired{false};
  env.schedule(0, ms(30), [&] { fired.store(true); });
  env.crash(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  env.stop();
  EXPECT_FALSE(fired.load());
}

TEST(ThreadEnv, SameDelayTimersFireInScheduleOrder) {
  // Deadlines are non-decreasing in call order and ties break by push
  // order, so 500 timers (far more than the timer arena starts with)
  // reach the mailbox in exactly the order they were scheduled.
  ThreadEnv env;
  CountingProcess a;
  env.register_process(0, &a);
  env.start();
  constexpr int kTimers = 500;
  std::vector<int> order;  // touched only by pid 0's worker
  Await<bool> done;
  for (int i = 0; i < kTimers; ++i) {
    env.schedule(0, ms(20), [&order, done, i] {
      order.push_back(i);
      if (i == kTimers - 1) done.fulfill(true);
    });
  }
  ASSERT_TRUE(done.try_get(seconds(10)).has_value());
  env.stop();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadEnv, TimerCapturesReleasedWhenDroppedOrDestroyed) {
  auto token = std::make_shared<int>(0);
  {
    ThreadEnv env;
    CountingProcess a;
    CountingProcess b;
    env.register_process(0, &a);
    env.register_process(1, &b);
    env.start();
    env.crash(1);
    env.schedule(1, ms(20), [token] {});       // dropped when it comes due
    env.schedule(0, seconds(60), [token] {});  // still pending at stop
    Await<bool> later;
    env.schedule(0, ms(40), [later] { later.fulfill(true); });
    ASSERT_TRUE(later.try_get(seconds(10)).has_value());
    // The crashed pid's timer popped before the 40 ms one and died
    // unexecuted on the timer thread.
    EXPECT_EQ(token.use_count(), 2);
    env.stop();
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(ThreadEnv, ConcurrentSendersCountExactly) {
  // The sharded ledger must not lose increments under contention: the
  // final "msgs" count has to equal the number of send() calls made.
  ThreadEnv env;
  CountingProcess target;
  CountingProcess s1;
  CountingProcess s2;
  CountingProcess s3;
  env.register_process(0, &target);
  env.register_process(1, &s1);
  env.register_process(2, &s2);
  env.register_process(3, &s3);
  env.start();
  constexpr int kPerSender = 400;
  std::vector<std::thread> threads;
  for (ProcessId from : {ProcessId{1}, ProcessId{2}, ProcessId{3}}) {
    threads.emplace_back([&, from] {
      for (int i = 0; i < kPerSender; ++i) {
        env.send(from, 0, std::make_shared<NoteMsg>(1));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int spin = 0; spin < 5000 && target.count.load() < 3 * kPerSender;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  env.stop();
  EXPECT_EQ(target.count.load(), 3 * kPerSender);
  EXPECT_FALSE(target.overlap.load());
  EXPECT_EQ(env.traffic().get("msgs"), 3 * kPerSender);
  EXPECT_EQ(env.traffic().get("msg.NOTE"), 3 * kPerSender);
}

TEST(ThreadEnv, ParkedWorkersNeverMissAWakeup) {
  // One token passes round a ring of 3 processes. Only one message is
  // ever in flight, so every hop lands on a worker whose mailbox went
  // empty one or two hops ago: it is parked, or is just parking. A lost
  // wakeup in the park/notify handshake strands the token, and the
  // deadline below turns that into a failure rather than a hang.
  constexpr int kRing = 3;
  constexpr int kHops = 20'000;
  struct Hop : Process {
    ThreadEnv* env = nullptr;
    ProcessId self = 0;
    ProcessId next = 0;
    std::atomic<int>* hops = nullptr;
    void on_message(ProcessId, const Message& msg) override {
      const auto* note = msg_cast<NoteMsg>(msg);
      if (note == nullptr) return;
      hops->fetch_add(1, std::memory_order_relaxed);
      if (note->value() < kHops) {
        env->send(self, next, std::make_shared<NoteMsg>(note->value() + 1));
      }
    }
  };
  ThreadEnv env;
  std::atomic<int> hops{0};
  std::vector<Hop> ring(kRing);
  for (int i = 0; i < kRing; ++i) {
    ring[i].env = &env;
    ring[i].self = static_cast<ProcessId>(i);
    ring[i].next = static_cast<ProcessId>((i + 1) % kRing);
    ring[i].hops = &hops;
    env.register_process(static_cast<ProcessId>(i), &ring[i]);
  }
  env.start();
  env.send(kRing - 1, 0, std::make_shared<NoteMsg>(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (hops.load() < kHops && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  env.stop();
  EXPECT_EQ(hops.load(), kHops) << "the token stalled: a wakeup was lost";
}

TEST(ThreadEnv, TrafficCountersAfterStop) {
  ThreadEnv env;
  CountingProcess a;
  CountingProcess b;
  env.register_process(0, &a);
  env.register_process(1, &b);
  env.start();
  for (int i = 0; i < 10; ++i) {
    env.send(0, 1, std::make_shared<NoteMsg>(i));
  }
  for (int spin = 0; spin < 1000 && b.count.load() < 10; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  env.stop();
  EXPECT_EQ(env.traffic().get("msgs"), 10);
  EXPECT_EQ(env.traffic().get("msg.NOTE"), 10);
}

}  // namespace
}  // namespace wrs
