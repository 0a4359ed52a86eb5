#include "core/change_set.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/wire_codec.h"
#include "storage/abd_messages.h"

namespace wrs {
namespace {

Change mk(ProcessId issuer, std::uint64_t counter, ProcessId target,
          Weight delta) {
  return Change(issuer, counter, target, std::move(delta));
}

TEST(Change, IdentityAndAccessors) {
  Change c = mk(1, 2, 3, Weight(1, 2));
  EXPECT_EQ(c.issuer(), 1u);
  EXPECT_EQ(c.counter(), 2u);
  EXPECT_EQ(c.target(), 3u);
  EXPECT_EQ(c.delta, Weight(1, 2));
  EXPECT_FALSE(c.is_null());
  EXPECT_TRUE(mk(1, 2, 3, Weight(0)).is_null());
}

TEST(ChangeSet, InitialFromWeights) {
  ChangeSet cs = ChangeSet::initial(WeightMap::uniform(3));
  EXPECT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs.weight_of(0), Weight(1));
  EXPECT_EQ(cs.total(), Weight(3));
  // Initial changes use the reserved counter.
  EXPECT_TRUE(cs.contains(ChangeId{0, kInitialChangeCounter, 0}));
}

TEST(ChangeSet, AddIsIdempotent) {
  ChangeSet cs;
  Change c = mk(0, 2, 1, Weight(1, 4));
  EXPECT_TRUE(cs.add(c));
  EXPECT_FALSE(cs.add(c));
  EXPECT_EQ(cs.size(), 1u);
}

TEST(ChangeSet, ConflictingDeltaThrows) {
  ChangeSet cs;
  cs.add(mk(0, 2, 1, Weight(1, 4)));
  EXPECT_THROW(cs.add(mk(0, 2, 1, Weight(1, 2))), std::logic_error);
}

TEST(ChangeSet, WeightOfSumsTargetChanges) {
  ChangeSet cs = ChangeSet::initial(WeightMap::uniform(3));
  cs.add(mk(0, 2, 0, -Weight(1, 4)));
  cs.add(mk(0, 2, 1, Weight(1, 4)));
  EXPECT_EQ(cs.weight_of(0), Weight(3, 4));
  EXPECT_EQ(cs.weight_of(1), Weight(5, 4));
  EXPECT_EQ(cs.weight_of(2), Weight(1));
  EXPECT_EQ(cs.total(), Weight(3));  // pairwise: total invariant
}

TEST(ChangeSet, SubsetForFiltersByTarget) {
  ChangeSet cs = ChangeSet::initial(WeightMap::uniform(3));
  cs.add(mk(0, 2, 1, Weight(1, 4)));
  ChangeSet sub = cs.subset_for(1);
  EXPECT_EQ(sub.size(), 2u);  // initial change + transfer credit
  for (const Change& c : sub.all()) EXPECT_EQ(c.target(), 1u);
}

TEST(ChangeSet, CountPair) {
  ChangeSet cs;
  cs.add(mk(0, 2, 0, -Weight(1, 4)));
  EXPECT_EQ(cs.count_pair(0, 2), 1u);
  cs.add(mk(0, 2, 1, Weight(1, 4)));
  EXPECT_EQ(cs.count_pair(0, 2), 2u);
  EXPECT_EQ(cs.count_pair(0, 3), 0u);
}

TEST(ChangeSet, JoinCountsNewOnly) {
  ChangeSet a = ChangeSet::initial(WeightMap::uniform(2));
  ChangeSet b = a;
  b.add(mk(0, 2, 1, Weight(1, 8)));
  EXPECT_EQ(a.join(b), 1u);
  EXPECT_EQ(a.join(b), 0u);
  EXPECT_EQ(a, b);
}

TEST(ChangeSet, SubsetOf) {
  ChangeSet a = ChangeSet::initial(WeightMap::uniform(2));
  ChangeSet b = a;
  EXPECT_TRUE(a.subset_of(b));
  b.add(mk(0, 2, 1, Weight(1, 8)));
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
}

TEST(ChangeSet, MissingFrom) {
  ChangeSet a = ChangeSet::initial(WeightMap::uniform(2));
  ChangeSet b = a;
  Change extra = mk(1, 2, 0, Weight(1, 8));
  b.add(extra);
  auto missing = a.missing_from(b);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], extra);
  EXPECT_TRUE(b.missing_from(a).empty());
}

TEST(ChangeSet, ToWeightMap) {
  ChangeSet cs = ChangeSet::initial(WeightMap::uniform(3));
  cs.add(mk(2, 2, 2, -Weight(1, 10)));
  cs.add(mk(2, 2, 0, Weight(1, 10)));
  WeightMap wm = cs.to_weight_map({0, 1, 2});
  EXPECT_EQ(wm.of(0), Weight(11, 10));
  EXPECT_EQ(wm.of(1), Weight(1));
  EXPECT_EQ(wm.of(2), Weight(9, 10));
}

TEST(ChangeSet, ToWeightMapMatchesWeightOf) {
  // The single-pass map must agree with the per-server sum for every
  // server, including ones several transfers touched and one none did.
  const std::vector<ProcessId> servers{0, 1, 2, 3, 4};
  ChangeSet cs = ChangeSet::initial(WeightMap::uniform(5));
  cs.add(mk(0, 2, 0, -Weight(1, 4)));
  cs.add(mk(0, 2, 3, Weight(1, 4)));
  cs.add(mk(1, 2, 1, -Weight(1, 3)));
  cs.add(mk(1, 2, 0, Weight(1, 3)));
  cs.add(mk(3, 2, 3, -Weight(1, 7)));
  cs.add(mk(3, 2, 1, Weight(1, 7)));
  cs.add(mk(0, 3, 0, Weight(0)));  // null transfer pair
  cs.add(mk(0, 3, 2, Weight(0)));
  WeightMap wm = cs.to_weight_map(servers);
  ASSERT_EQ(wm.size(), servers.size());
  for (ProcessId s : servers) {
    EXPECT_EQ(wm.of(s), cs.weight_of(s)) << "server " << s;
  }
  EXPECT_EQ(wm.total(), cs.total());
  EXPECT_EQ(wm.of(4), Weight(1));
}

TEST(ChangeSet, WireSizeGrowsLinearly) {
  // The piggyback cost of Algorithms 5/6 as the codec charges it: each
  // change adds exactly its 32-byte encoding (u32 issuer + u64 counter +
  // u32 target + i64/i64 weight) to the ReadAck that carries the set.
  ChangeSet cs;
  auto ack_bytes = [&cs] {
    return net::WireCodec::frame_size(
        ReadAck(1, TaggedValue{}, std::make_shared<const ChangeSet>(cs)));
  };
  std::size_t prev = ack_bytes();
  for (std::uint64_t counter = 2; counter < 6; ++counter) {
    cs.add(mk(0, counter, 1, Weight(1, 3)));
    std::size_t now = ack_bytes();
    EXPECT_EQ(now - prev, 32u);
    prev = now;
  }
}

// --- Property tests: join is a semilattice ----------------------------------

class ChangeSetLatticeTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ChangeSet random_set(Rng& rng, std::size_t max_changes = 20) {
    ChangeSet cs;
    std::size_t n = rng.below(max_changes);
    for (std::size_t i = 0; i < n; ++i) {
      auto issuer = static_cast<ProcessId>(rng.below(4));
      auto counter = 2 + rng.below(5);
      auto target = static_cast<ProcessId>(rng.below(4));
      // Delta determined by identity so duplicate ids never conflict.
      auto delta = Weight(
          static_cast<std::int64_t>(issuer + counter + target) - 4, 8);
      cs.add(Change(issuer, counter, target, delta));
    }
    return cs;
  }
};

TEST_P(ChangeSetLatticeTest, JoinLaws) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    ChangeSet a = random_set(rng);
    ChangeSet b = random_set(rng);
    ChangeSet c = random_set(rng);

    // Idempotence: a ∪ a = a.
    ChangeSet aa = a;
    aa.join(a);
    EXPECT_EQ(aa, a);

    // Commutativity: a ∪ b = b ∪ a.
    ChangeSet ab = a;
    ab.join(b);
    ChangeSet ba = b;
    ba.join(a);
    EXPECT_EQ(ab, ba);

    // Associativity: (a ∪ b) ∪ c = a ∪ (b ∪ c).
    ChangeSet ab_c = ab;
    ab_c.join(c);
    ChangeSet bc = b;
    bc.join(c);
    ChangeSet a_bc = a;
    a_bc.join(bc);
    EXPECT_EQ(ab_c, a_bc);

    // Monotonicity: a ⊆ a ∪ b.
    EXPECT_TRUE(a.subset_of(ab));
    EXPECT_TRUE(b.subset_of(ab));
  }
}

TEST_P(ChangeSetLatticeTest, WeightIsAdditiveOverJoin) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int iter = 0; iter < 100; ++iter) {
    ChangeSet a = random_set(rng);
    ChangeSet b = random_set(rng);
    ChangeSet joined = a;
    joined.join(b);
    // weight_of(target) over the join equals the sum over the union of
    // unique changes — recompute by brute force.
    for (ProcessId t = 0; t < 4; ++t) {
      Weight expect(0);
      for (const Change& c : joined.all()) {
        if (c.target() == t) expect += c.delta;
      }
      EXPECT_EQ(joined.weight_of(t), expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChangeSetLatticeTest,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace wrs
