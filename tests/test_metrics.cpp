#include "common/metrics.h"

#include <gtest/gtest.h>

#include <string_view>
#include <thread>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "runtime/traffic_ledger.h"

namespace wrs {
namespace {

TEST(Histogram, EmptySummaries) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.median(), 3.0);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
}

TEST(Histogram, PercentileNearestRank) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_THROW(h.percentile(101), std::invalid_argument);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(7.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Histogram, SummaryScalesValues) {
  Histogram h;
  h.add_time(ms(10));
  std::string s = h.summary(1.0 / kNsPerMs);
  EXPECT_NE(s.find("mean=10.000"), std::string::npos);
}

TEST(TimeSeries, MeanInWindow) {
  TimeSeries ts;
  ts.add(ms(10), 1.0);
  ts.add(ms(20), 3.0);
  ts.add(ms(30), 5.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(ms(10), ms(25)), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(ms(0), ms(100)), 3.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(ms(40), ms(50)), 0.0);
}

TEST(Counters, IncGetMerge) {
  Counters a;
  a.inc("x");
  a.inc("x", 2);
  a.inc("y", 5);
  EXPECT_EQ(a.get("x"), 3);
  EXPECT_EQ(a.get("z"), 0);
  Counters b;
  b.inc("x", 10);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 13);
  EXPECT_EQ(a.get("y"), 5);
}

TEST(Counters, HeterogeneousLookupByStringView) {
  // inc/get take string_view so hot paths can count without building a
  // std::string per call; the transparent comparator makes the lookup
  // allocation-free too.
  Counters c;
  std::string_view key = "msgs.batched";
  c.inc(key, 4);
  c.inc(key);
  EXPECT_EQ(c.get(key), 5);
  EXPECT_EQ(c.get("msgs.batched"), 5);
  EXPECT_EQ(c.map().count("msgs.batched"), 1u);
}

struct LedgerPing : MessageBase<LedgerPing> {
  std::string type_name() const override { return "LPING"; }
};

TEST(TrafficLedger, SnapshotUsesLegacyKeyNames) {
  TrafficLedger ledger;
  LedgerPing ping;
  ledger.count_message(ping, 16);
  ledger.count_message(ping, 16);
  ledger.inc(TrafficLedger::kMsgsLost);
  ledger.inc(TrafficLedger::kBytesIn, 128);
  Counters snap = ledger.snapshot();
  EXPECT_EQ(snap.get("msgs"), 2);
  EXPECT_EQ(snap.get("bytes"), 32);
  EXPECT_EQ(snap.get("msg.LPING"), 2);
  EXPECT_EQ(snap.get("msgs.lost"), 1);
  EXPECT_EQ(snap.get("bytes.in"), 128);
  EXPECT_EQ(snap.get("msgs.dup"), 0);          // zero slots are omitted
  EXPECT_EQ(snap.map().count("msgs.dup"), 0u);
  EXPECT_EQ(ledger.get(TrafficLedger::kMsgs), 2);
}

TEST(TrafficLedger, ConcurrentIncrementsSumExactly) {
  // The sharded relaxed-atomic banks must not lose counts: N threads
  // doing K increments each always sum to N*K in the snapshot.
  TrafficLedger ledger;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  LedgerPing ping;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) ledger.count_message(ping, 16);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ledger.get(TrafficLedger::kMsgs), kThreads * kPerThread);
  Counters snap = ledger.snapshot();
  EXPECT_EQ(snap.get("msgs"), kThreads * kPerThread);
  EXPECT_EQ(snap.get("msg.LPING"), kThreads * kPerThread);
  EXPECT_EQ(snap.get("bytes"), 16 * kThreads * kPerThread);
}

TEST(FlatMap, BasicMapSemantics) {
  FlatMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  m[3] = "three";
  m[1] = "one";
  m[2] = "two";
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(2), "two");
  EXPECT_EQ(m.count(1), 1u);
  EXPECT_EQ(m.count(9), 0u);
  EXPECT_EQ(m.find(9), m.end());
  // Iteration is in key order, like std::map — determinism depends on it.
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3}));
  m[2] = "TWO";  // operator[] on an existing key updates in place
  EXPECT_EQ(m.at(2), "TWO");
  EXPECT_EQ(m.size(), 3u);
}

TEST(FlatMap, EmplaceAndErase) {
  FlatMap<int, int> m;
  auto [it1, inserted1] = m.emplace(5, 50);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(it1->second, 50);
  auto [it2, inserted2] = m.emplace(5, 99);
  EXPECT_FALSE(inserted2);  // no overwrite, like std::map
  EXPECT_EQ(it2->second, 50);
  m.emplace(1, 10);
  m.emplace(9, 90);
  EXPECT_EQ(m.erase(5), 1u);
  EXPECT_EQ(m.erase(5), 0u);
  auto it = m.find(1);
  ASSERT_NE(it, m.end());
  it = m.erase(it);  // iterator erase returns the successor
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->first, 9);
  EXPECT_EQ(m.size(), 1u);
}

TEST(Table, FormatsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::string s = t.str();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("| alpha"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), std::invalid_argument);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(1.0, 0), "1");
}

TEST(Rng, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(43);
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // The child must not replay the parent's stream.
  Rng fresh(42);
  fresh();  // advance past the split draw
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= (child() != fresh());
  EXPECT_TRUE(differs);
}

TEST(ProcessNames, Formatting) {
  EXPECT_EQ(process_name(0), "s0");
  EXPECT_EQ(process_name(client_id(3)), "c3");
  EXPECT_EQ(process_name(kNoProcess), "none");
  EXPECT_TRUE(is_server(5));
  EXPECT_FALSE(is_client(5));
  EXPECT_TRUE(is_client(client_id(0)));
  EXPECT_EQ(all_servers(3).size(), 3u);
}

}  // namespace
}  // namespace wrs
