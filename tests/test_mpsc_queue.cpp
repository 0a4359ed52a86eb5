// MpscRing semantics (the lock-free mailbox under ThreadEnv) plus the
// ThreadEnv behaviors layered on it: overflow to the locked spill ring
// when a burst outruns the ring, and crash-drop correctness while
// senders keep blasting. The multi-producer tests run under TSan in CI.

#include "runtime/mpsc_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "runtime/msg_pool.h"
#include "runtime/thread_env.h"

namespace wrs {
namespace {

TEST(MpscRing, FifoSingleProducer) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
}

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  MpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  MpscRing<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(MpscRing, FullRingRejectsWithoutConsuming) {
  MpscRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(1)));
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(2)));

  // try_push is total: on a full ring the value must survive so the
  // caller can divert it to an overflow path.
  std::unique_ptr<int> survivor = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(survivor)));
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(*survivor, 3);

  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 1);
  EXPECT_TRUE(ring.try_push(std::move(survivor)));
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 2);
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 3);
}

TEST(MpscRing, PopReleasesResourcesImmediately) {
  MpscRing<std::shared_ptr<int>> ring(4);
  std::shared_ptr<int> tracked = std::make_shared<int>(42);
  std::weak_ptr<int> weak = tracked;
  EXPECT_TRUE(ring.try_push(std::move(tracked)));
  std::shared_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  out.reset();
  // The cell must not keep a ref until the ring laps back around.
  EXPECT_TRUE(weak.expired());
}

TEST(MpscRing, MultiProducerEveryItemArrivesOncePerProducerFifo) {
  constexpr unsigned kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  MpscRing<std::uint64_t> ring(64);  // small: forces full-ring retries

  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        std::uint64_t item = (static_cast<std::uint64_t>(p) << 32) | i;
        while (!ring.try_push(std::move(item))) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t popped = 0;
  std::uint64_t v = 0;
  while (popped < kProducers * kPerProducer) {
    if (!ring.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    ++popped;
    const unsigned p = static_cast<unsigned>(v >> 32);
    const std::uint64_t seq = v & 0xffffffffu;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(seq, next_seq[p]) << "producer " << p << " reordered";
    ++next_seq[p];
  }
  for (std::thread& t : producers) t.join();
  EXPECT_FALSE(ring.try_pop(v));
}

// --- ThreadEnv layered behaviors -------------------------------------------

class SeqMsg : public MessageBase<SeqMsg> {
 public:
  SeqMsg(unsigned sender, std::uint64_t seq) : sender_(sender), seq_(seq) {}
  unsigned sender() const { return sender_; }
  std::uint64_t seq() const { return seq_; }
  std::string type_name() const override { return "SEQ"; }

 private:
  unsigned sender_;
  std::uint64_t seq_;
};

struct SeqSink : Process {
  explicit SeqSink(unsigned senders) : next(senders, 0) {}
  void on_message(ProcessId, const Message& msg) override {
    const auto* m = msg_cast<SeqMsg>(msg);
    if (m == nullptr) return;
    if (m->seq() != next[m->sender()]) fifo_broken.store(true);
    next[m->sender()] = m->seq() + 1;
    delivered.fetch_add(1, std::memory_order_release);
  }
  std::vector<std::uint64_t> next;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> fifo_broken{false};
};

TEST(ThreadEnvMailbox, OverflowPreservesEveryMessageAndPerSenderFifo) {
  // mailbox_slots=2: nearly every enqueue lands in the locked overflow
  // ring, and delivery keeps interleaving ring and spill batches.
  constexpr unsigned kSenders = 4;
  constexpr std::uint64_t kPerSender = 5'000;
  ThreadEnv env(nullptr, /*seed=*/1, /*mailbox_slots=*/2);
  SeqSink sink(kSenders);
  env.register_process(0, &sink);
  env.start();

  std::vector<std::thread> senders;
  for (unsigned s = 0; s < kSenders; ++s) {
    senders.emplace_back([&env, s] {
      const ProcessId self = client_id(s);
      for (std::uint64_t i = 0; i < kPerSender; ++i) {
        env.send(self, 0, make_msg<SeqMsg>(s, i));
      }
    });
  }
  for (std::thread& t : senders) t.join();

  const std::uint64_t want = kSenders * kPerSender;
  for (int spin = 0; spin < 20'000 && sink.delivered.load() < want; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  env.stop();
  EXPECT_EQ(sink.delivered.load(), want);
  EXPECT_FALSE(sink.fifo_broken.load());
}

TEST(ThreadEnvMailbox, CrashMidBurstDropsCleanlyUnderSeededChaos) {
  // Seeded nemesis: senders blast a tiny mailbox while the main thread
  // crashes the receiver at a random point, then restarts it (fresh
  // registration) and blasts again. Invariants: no deadlock, per-sender
  // FIFO among what IS delivered (drops only cut suffixes — each
  // sender's delivered seqs stay strictly increasing), and after the
  // final crash the delivered count freezes.
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 5; ++round) {
    constexpr unsigned kSenders = 3;
    constexpr std::uint64_t kPerSender = 4'000;
    ThreadEnv env(nullptr, /*seed=*/7, /*mailbox_slots=*/4);

    struct ChaosSink : Process {
      std::array<std::atomic<std::int64_t>, 3> last{};
      std::atomic<std::uint64_t> delivered{0};
      std::atomic<bool> order_broken{false};
      ChaosSink() {
        for (auto& l : last) l.store(-1);
      }
      void on_message(ProcessId, const Message& msg) override {
        const auto* m = msg_cast<SeqMsg>(msg);
        if (m == nullptr) return;
        const auto seq = static_cast<std::int64_t>(m->seq());
        if (seq <= last[m->sender()].load()) order_broken.store(true);
        last[m->sender()].store(seq);
        delivered.fetch_add(1);
      }
    } sink;

    env.register_process(0, &sink);
    env.start();

    std::atomic<bool> stop_senders{false};
    std::vector<std::thread> senders;
    for (unsigned s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        const ProcessId self = client_id(s);
        for (std::uint64_t i = 0; i < kPerSender; ++i) {
          if (stop_senders.load(std::memory_order_relaxed)) break;
          env.send(self, 0, make_msg<SeqMsg>(s, i));
        }
      });
    }

    // Crash at a random point inside the burst.
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng() % 3000));
    env.crash(0);
    stop_senders.store(true);
    for (std::thread& t : senders) t.join();

    // Sends to a crashed process are dropped at enqueue; whatever was
    // in flight is discarded. The count must settle (no late trickle).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t frozen = sink.delivered.load();
    for (unsigned s = 0; s < kSenders; ++s) {
      env.send(client_id(s), 0, make_msg<SeqMsg>(s, 999'999));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(sink.delivered.load(), frozen) << "delivery after crash";
    EXPECT_FALSE(sink.order_broken.load());
    EXPECT_LE(frozen, kSenders * kPerSender);
    env.stop();
  }
}

}  // namespace
}  // namespace wrs
