// MsgPool: slab recycling, size-class routing, and — the part chaos
// cares about — the transparent heap fallback when the slab budget is
// exhausted (set_slab_limit). These run under ASan in CI: a double-free
// between pool and heap paths, or an adopted block freed with the wrong
// operator, would fire there.

#include "runtime/msg_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

namespace wrs {
namespace {

class PoolNote : public MessageBase<PoolNote> {
 public:
  explicit PoolNote(int v) : v_(v) {}
  int value() const { return v_; }
  std::string type_name() const override { return "POOL_NOTE"; }

 private:
  int v_;
};

TEST(MsgPool, SizeClassRoundTripReusesBlocks) {
  MsgPool& pool = MsgPool::instance();
  const auto before = pool.stats();

  // Warm the thread-local cache, then free: the next allocation of the
  // same class must come back from the cache (same pointer, LIFO).
  void* a = pool.allocate(64, 8);
  pool.deallocate(a, 64, 8);
  void* b = pool.allocate(64, 8);
  EXPECT_EQ(a, b);
  pool.deallocate(b, 64, 8);

  const auto after = pool.stats();
  EXPECT_GT(after.pool_allocs, before.pool_allocs);
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
}

TEST(MsgPool, RequestsRoundUpWithinOneClass) {
  MsgPool& pool = MsgPool::instance();
  // 65..96 all land in the 96-byte class: a freed 96-byte request must
  // satisfy a later 70-byte one.
  void* a = pool.allocate(96, 8);
  pool.deallocate(a, 96, 8);
  void* b = pool.allocate(70, 8);
  EXPECT_EQ(a, b);
  pool.deallocate(b, 70, 8);
}

TEST(MsgPool, OversizeFallsThroughToHeap) {
  MsgPool& pool = MsgPool::instance();
  const auto before = pool.stats();
  void* p = pool.allocate(4096, 8);  // > kMaxBlockBytes
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 4096);
  pool.deallocate(p, 4096, 8);
  const auto after = pool.stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + 1);
  EXPECT_EQ(after.pool_allocs, before.pool_allocs);
}

TEST(MsgPool, MakeMsgProducesWorkingSharedPtr) {
  std::shared_ptr<PoolNote> note = make_msg<PoolNote>(7);
  MsgPtr as_msg = note;
  const auto* cast = msg_cast<PoolNote>(*as_msg);
  ASSERT_NE(cast, nullptr);
  EXPECT_EQ(cast->value(), 7);

  // The shared_ptr machinery (weak counts) is the stock one: only where
  // the control block's bytes come from differs.
  std::weak_ptr<PoolNote> weak = note;
  as_msg.reset();
  note.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(MsgPool, SlabExhaustionFallsBackToHeapAndAdopts) {
  MsgPool& pool = MsgPool::instance();

  // Freeze the slab budget at whatever has been carved so far, then
  // hold enough live 64-byte blocks to drain the cache, the global free
  // list, and the slab remnant — every allocation past that point must
  // come from the heap (and be counted as a future adoptee).
  pool.set_slab_limit(pool.stats().slabs == 0 ? 1 : pool.stats().slabs);

  const auto before = pool.stats();
  std::vector<void*> live;
  live.reserve(200'000);
  while (pool.stats().heap_allocs < before.heap_allocs + 64) {
    ASSERT_LT(live.size(), 200'000u) << "slab budget never exhausted";
    live.push_back(pool.allocate(64, 8));
    ASSERT_NE(live.back(), nullptr);
    std::memset(live.back(), 0xcd, 64);  // fallback blocks are writable
  }
  const auto exhausted = pool.stats();
  EXPECT_GE(exhausted.heap_allocs, before.heap_allocs + 64);
  EXPECT_GT(exhausted.adopted, before.adopted);
  EXPECT_EQ(exhausted.slabs, before.slabs) << "limit did not hold";

  // Freeing mixes slab blocks and heap-fallback blocks back into the
  // same free lists (adoption): indistinguishable at free time, and
  // under ASan this proves none is released with the wrong operator.
  for (void* p : live) pool.deallocate(p, 64, 8);
  live.clear();

  // With everything recycled, the same demand is now served poolside —
  // no new heap allocations, no new slabs.
  const auto recycled_base = pool.stats();
  for (int i = 0; i < 64; ++i) live.push_back(pool.allocate(64, 8));
  for (void* p : live) pool.deallocate(p, 64, 8);
  const auto recycled = pool.stats();
  EXPECT_EQ(recycled.heap_allocs, recycled_base.heap_allocs);
  EXPECT_EQ(recycled.slabs, recycled_base.slabs);

  pool.set_slab_limit(0);  // restore: the pool is process-global
}

TEST(MsgPool, MessagesSurviveExhaustionTransparently) {
  MsgPool& pool = MsgPool::instance();
  pool.set_slab_limit(pool.stats().slabs == 0 ? 1 : pool.stats().slabs);

  // Protocol code never sees the fallback: messages built while the
  // pool is exhausted behave identically.
  std::vector<std::shared_ptr<PoolNote>> held;
  for (int i = 0; i < 50'000; ++i) held.push_back(make_msg<PoolNote>(i));
  for (int i = 0; i < 50'000; ++i) {
    ASSERT_EQ(held[static_cast<std::size_t>(i)]->value(), i);
  }
  held.clear();

  pool.set_slab_limit(0);
}

}  // namespace
}  // namespace wrs
