// Tests for the multi-register (key-value) extension of the dynamic-
// weighted storage: independent named registers over one quorum system,
// weighted-quorum key discovery, and the all-keys refresh on weight gain.
#include <gtest/gtest.h>

#include "storage/history.h"
#include "test_util.h"

namespace wrs {
namespace {

using test::run_until;
using test::StorageCluster;

TEST(KvStore, IndependentKeys) {
  StorageCluster c(4, 1, 61);
  std::vector<std::unique_ptr<StorageClient>> clients;
  clients.push_back(std::make_unique<StorageClient>(
      *c.env, client_id(0), c.config));
  c.env->register_process(client_id(0), clients[0].get());
  auto& abd = clients[0]->router().shard_client(0);

  int wrote = 0;
  abd.write("alpha", "value-a", [&](const Tag&) { ++wrote; });
  run_until(*c.env, [&] { return wrote == 1; });
  abd.write("beta", "value-b", [&](const Tag&) { ++wrote; });
  run_until(*c.env, [&] { return wrote == 2; });

  std::optional<TaggedValue> a, b, missing;
  abd.read("alpha", [&](const TaggedValue& tv) { a = tv; });
  run_until(*c.env, [&] { return a.has_value(); });
  abd.read("beta", [&](const TaggedValue& tv) { b = tv; });
  run_until(*c.env, [&] { return b.has_value(); });
  abd.read("gamma", [&](const TaggedValue& tv) { missing = tv; });
  run_until(*c.env, [&] { return missing.has_value(); });

  EXPECT_EQ(a->value, "value-a");
  EXPECT_EQ(b->value, "value-b");
  EXPECT_EQ(missing->tag, kInitialTag);  // never written
  EXPECT_EQ(missing->value, "");
}

TEST(KvStore, KeysDoNotInterfereWithDefaultRegister) {
  StorageCluster c(4, 1, 62);
  std::vector<std::unique_ptr<StorageClient>> clients;
  clients.push_back(std::make_unique<StorageClient>(
      *c.env, client_id(0), c.config));
  c.env->register_process(client_id(0), clients[0].get());
  auto& abd = clients[0]->router().shard_client(0);

  bool w1 = false, w2 = false;
  abd.write("default-value", [&](const Tag&) { w1 = true; });
  run_until(*c.env, [&] { return w1; });
  abd.write("named", "named-value", [&](const Tag&) { w2 = true; });
  run_until(*c.env, [&] { return w2; });

  std::optional<TaggedValue> def;
  abd.read([&](const TaggedValue& tv) { def = tv; });
  run_until(*c.env, [&] { return def.has_value(); });
  EXPECT_EQ(def->value, "default-value");
}

TEST(KvStore, ListKeysDiscoversAllWrittenKeys) {
  StorageCluster c(5, 2, 63);
  std::vector<std::unique_ptr<StorageClient>> clients;
  clients.push_back(std::make_unique<StorageClient>(
      *c.env, client_id(0), c.config));
  c.env->register_process(client_id(0), clients[0].get());
  auto& abd = clients[0]->router().shard_client(0);

  for (const char* key : {"k1", "k2", "k3"}) {
    bool done = false;
    abd.write(key, std::string("v-") + key, [&](const Tag&) { done = true; });
    run_until(*c.env, [&] { return done; });
  }
  std::optional<std::vector<RegisterKey>> keys;
  abd.list_keys([&](const std::vector<RegisterKey>& k) { keys = k; });
  run_until(*c.env, [&] { return keys.has_value(); });
  std::set<RegisterKey> got(keys->begin(), keys->end());
  EXPECT_TRUE(got.count("k1"));
  EXPECT_TRUE(got.count("k2"));
  EXPECT_TRUE(got.count("k3"));
}

TEST(KvStore, PerWriterTagsSpanKeysSafely) {
  // Tags are per-register; writing two keys from one client must not
  // produce conflicting tags within a register.
  StorageCluster c(4, 1, 64);
  std::vector<std::unique_ptr<StorageClient>> clients;
  clients.push_back(std::make_unique<StorageClient>(
      *c.env, client_id(0), c.config));
  c.env->register_process(client_id(0), clients[0].get());
  auto& abd = clients[0]->router().shard_client(0);

  std::optional<Tag> t1, t2, t3;
  abd.write("x", "1", [&](const Tag& t) { t1 = t; });
  run_until(*c.env, [&] { return t1.has_value(); });
  abd.write("x", "2", [&](const Tag& t) { t2 = t; });
  run_until(*c.env, [&] { return t2.has_value(); });
  abd.write("y", "3", [&](const Tag& t) { t3 = t; });
  run_until(*c.env, [&] { return t3.has_value(); });
  EXPECT_LT(*t1, *t2);  // same register: strictly increasing
  std::optional<TaggedValue> x;
  abd.read("x", [&](const TaggedValue& tv) { x = tv; });
  run_until(*c.env, [&] { return x.has_value(); });
  EXPECT_EQ(x->value, "2");
}

TEST(KvStore, GainRefreshCoversAllKeys) {
  // After a weight gain, the gaining server must hold fresh copies of
  // EVERY register (the multi-register generalization of Algorithm 4
  // line 9).
  StorageCluster c(4, 1, 65);
  std::vector<std::unique_ptr<StorageClient>> clients;
  clients.push_back(std::make_unique<StorageClient>(
      *c.env, client_id(0), c.config));
  c.env->register_process(client_id(0), clients[0].get());
  auto& abd = clients[0]->router().shard_client(0);

  for (const char* key : {"a", "b"}) {
    bool done = false;
    abd.write(key, std::string("fresh-") + key,
              [&](const Tag&) { done = true; });
    run_until(*c.env, [&] { return done; });
  }

  bool transferred = false;
  c.node(0).reassign().transfer(
      1, Weight(1, 4), [&](const TransferOutcome&) { transferred = true; });
  run_until(*c.env, [&] { return transferred; });
  c.env->run_to_quiescence();

  EXPECT_EQ(c.node(1).server().reg("a").value, "fresh-a");
  EXPECT_EQ(c.node(1).server().reg("b").value, "fresh-b");
}

TEST(KvStore, AtomicPerKeyUnderTransferChurn) {
  StorageCluster c(5, 1, 66);
  auto history_x = std::make_shared<HistoryRecorder>();
  auto history_y = std::make_shared<HistoryRecorder>();

  std::vector<std::unique_ptr<StorageClient>> clients;
  for (int k = 0; k < 2; ++k) {
    clients.push_back(std::make_unique<StorageClient>(
        *c.env, client_id(k), c.config));
    c.env->register_process(client_id(k), clients.back().get());
  }

  // Client 0 works key "x", client 1 works key "y"; transfers churn.
  // The test scope owns each self-rescheduling loop; the lambdas hold
  // only weak references to it (a shared self-capture would be a
  // reference cycle and leak the closure — ASan's leak check minds).
  std::vector<std::shared_ptr<std::function<void(int)>>> loops;
  auto drive = [&](int k, const RegisterKey& key,
                   std::shared_ptr<HistoryRecorder> hist) {
    auto loop = std::make_shared<std::function<void(int)>>();
    loops.push_back(loop);
    std::weak_ptr<std::function<void(int)>> weak = loop;
    auto next = [&, k, weak](int left) {
      c.env->schedule(client_id(k), ms(2), [weak, left] {
        if (auto l = weak.lock()) (*l)(left - 1);
      });
    };
    *loop = [&, k, key, hist, next](int left) {
      if (left == 0) return;
      auto& abd = clients[k]->router().shard_client(0);
      bool is_read = (left % 2 == 0);
      TimeNs start = c.env->now();
      if (is_read) {
        auto token = hist->begin(OpRecord::Kind::kRead, client_id(k), start);
        abd.read(key, [&, hist, token, next, left](const TaggedValue& tv) {
          hist->end_read(token, c.env->now(), tv);
          next(left);
        });
      } else {
        Value v = key + "#" + std::to_string(left);
        auto token = hist->begin(OpRecord::Kind::kWrite, client_id(k), start);
        abd.write(key, v, [&, hist, token, v, next, left](const Tag& t) {
          hist->end_write(token, c.env->now(), t, v);
          next(left);
        });
      }
    };
    c.env->schedule(client_id(k), 0, [weak] {
      if (auto l = weak.lock()) (*l)(30);
    });
  };
  drive(0, "x", history_x);
  drive(1, "y", history_y);

  for (std::uint32_t s = 0; s < 5; ++s) {
    c.env->schedule(s, ms(15 + 10 * s), [&, s] {
      if (!c.node(s).reassign().transfer_in_flight()) {
        c.node(s).reassign().transfer((s + 1) % 5, Weight(1, 40),
                                      [](const TransferOutcome&) {});
      }
    });
  }

  run_until(*c.env,
            [&] {
              return history_x->completed_count() == 30 &&
                     history_y->completed_count() == 30;
            },
            seconds(600));

  auto ex = check_atomicity(history_x->completed());
  EXPECT_FALSE(ex.has_value()) << *ex;
  auto ey = check_atomicity(history_y->completed());
  EXPECT_FALSE(ey.has_value()) << *ey;
}

}  // namespace
}  // namespace wrs
