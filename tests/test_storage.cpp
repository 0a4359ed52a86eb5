// Tests for the (dynamic-weighted) ABD atomic register — Algorithms 5-6
// plus the static baseline — including linearizability sweeps via the
// Definition-6 checker.
#include <gtest/gtest.h>

#include "storage/history.h"
#include "test_util.h"
#include "workload/workload.h"

namespace wrs {
namespace {

using test::run_until;
using test::StorageCluster;

/// Deploys storage client k and returns its (single-shard) AbdClient.
AbdClient* add_client(StorageCluster& c, std::uint32_t k,
                      std::vector<std::unique_ptr<StorageClient>>& own) {
  own.push_back(
      std::make_unique<StorageClient>(*c.env, client_id(k), c.config));
  c.env->register_process(client_id(k), own.back().get());
  return &own.back()->router().shard_client(0);
}

TEST(StaticAbd, ReadInitialValue) {
  StorageCluster c(4, 1, 1);
  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* cl = add_client(c, 0, clients);
  std::optional<TaggedValue> got;
  cl->read([&](const TaggedValue& tv) { got = tv; });
  run_until(*c.env, [&] { return got.has_value(); });
  EXPECT_EQ(got->tag, kInitialTag);
  EXPECT_EQ(got->value, "");
}

TEST(StaticAbd, WriteThenRead) {
  StorageCluster c(4, 1, 2);
  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* w = add_client(c, 0, clients);
  auto* r = add_client(c, 1, clients);

  std::optional<Tag> wrote;
  w->write("hello", [&](const Tag& t) { wrote = t; });
  run_until(*c.env, [&] { return wrote.has_value(); });
  EXPECT_EQ(wrote->ts, 1);
  EXPECT_EQ(wrote->pid, client_id(0));

  std::optional<TaggedValue> got;
  r->read([&](const TaggedValue& tv) { got = tv; });
  run_until(*c.env, [&] { return got.has_value(); });
  EXPECT_EQ(got->value, "hello");
  EXPECT_EQ(got->tag, *wrote);
}

TEST(StaticAbd, PipelinesDistinctKeysAndQueuesSameKey) {
  // The multiplexed client overlaps ops on distinct keys; ops on the SAME
  // key run in issue order (concurrent same-key writes from one process
  // could mint duplicate tags).
  StorageCluster c(4, 1, 3);
  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* cl = add_client(c, 0, clients);

  std::optional<Tag> ta, tb1, tb2;
  std::optional<TaggedValue> rb;
  cl->write("a", "va", [&](const Tag& t) { ta = t; });
  cl->write("b", "vb1", [&](const Tag& t) { tb1 = t; });
  cl->write("b", "vb2", [&](const Tag& t) { tb2 = t; });
  cl->read("b", [&](const TaggedValue& tv) { rb = tv; });
  EXPECT_EQ(cl->in_flight(), 4u);
  // Only "a"'s write and "b"'s FIRST write start immediately; the other
  // two queue behind "b" — max_in_flight counts genuinely started ops.
  EXPECT_EQ(cl->max_in_flight(), 2u);

  run_until(*c.env, [&] { return ta && tb1 && tb2 && rb.has_value(); });
  EXPECT_FALSE(cl->busy());
  // Per-key program order: the queued second write got the larger tag and
  // the read (issued last) observed it.
  EXPECT_LT(*tb1, *tb2);
  EXPECT_EQ(rb->value, "vb2");
  EXPECT_EQ(rb->tag, *tb2);
}

TEST(StaticAbd, MultiWriterTagsOrdered) {
  StorageCluster c(4, 1, 4);
  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* w1 = add_client(c, 0, clients);
  auto* w2 = add_client(c, 1, clients);

  std::optional<Tag> t1;
  w1->write("a", [&](const Tag& t) { t1 = t; });
  run_until(*c.env, [&] { return t1.has_value(); });
  std::optional<Tag> t2;
  w2->write("b", [&](const Tag& t) { t2 = t; });
  run_until(*c.env, [&] { return t2.has_value(); });
  EXPECT_LT(*t1, *t2);  // sequential writes get increasing tags

  std::optional<TaggedValue> got;
  w1->read([&](const TaggedValue& tv) { got = tv; });
  run_until(*c.env, [&] { return got.has_value(); });
  EXPECT_EQ(got->value, "b");
}

TEST(StaticAbd, ToleratesFCrashes) {
  StorageCluster c(5, 2, 5);
  c.env->crash(3);
  c.env->crash(4);
  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* cl = add_client(c, 0, clients);
  std::optional<Tag> wrote;
  cl->write("survive", [&](const Tag& t) { wrote = t; });
  run_until(*c.env, [&] { return wrote.has_value(); });
  std::optional<TaggedValue> got;
  cl->read([&](const TaggedValue& tv) { got = tv; });
  run_until(*c.env, [&] { return got.has_value(); });
  EXPECT_EQ(got->value, "survive");
}

TEST(DynamicAbd, ReadWriteWithoutTransfers) {
  StorageCluster c(4, 1, 6);
  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* cl = add_client(c, 0, clients);
  std::optional<Tag> wrote;
  cl->write("dyn", [&](const Tag& t) { wrote = t; });
  run_until(*c.env, [&] { return wrote.has_value(); });
  std::optional<TaggedValue> got;
  cl->read([&](const TaggedValue& tv) { got = tv; });
  run_until(*c.env, [&] { return got.has_value(); });
  EXPECT_EQ(got->value, "dyn");
  EXPECT_EQ(cl->restarts(), 0u);
}

TEST(DynamicAbd, ClientLearnsChangesAndRestarts) {
  StorageCluster c(4, 1, 7);
  // First run a transfer so servers hold a bigger change set.
  bool transferred = false;
  c.node(0).reassign().transfer(
      1, Weight(1, 4), [&](const TransferOutcome&) { transferred = true; });
  run_until(*c.env, [&] { return transferred; });
  c.env->run_to_quiescence();

  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* cl = add_client(c, 0, clients);
  std::optional<Tag> wrote;
  cl->write("after-transfer", [&](const Tag& t) { wrote = t; });
  run_until(*c.env, [&] { return wrote.has_value(); });
  // The client started from the initial change set and must have learned
  // the transfer (2 new changes) and restarted at least once.
  EXPECT_GE(cl->restarts(), 1u);
  EXPECT_EQ(cl->current_weights().of(1), Weight(5, 4));
  EXPECT_EQ(cl->current_weights().total(), Weight(4));
}

TEST(DynamicAbd, OperationsDuringConcurrentTransfers) {
  StorageCluster c(5, 2, 8);
  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* cl = add_client(c, 0, clients);

  // Interleave a write with a storm of transfers.
  int transfers_done = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    c.node(i).reassign().transfer((i + 1) % 5, Weight(1, 20),
                                  [&](const TransferOutcome&) {
                                    ++transfers_done;
                                  });
  }
  std::optional<Tag> wrote;
  cl->write("stormy", [&](const Tag& t) { wrote = t; });
  run_until(*c.env,
            [&] { return wrote.has_value() && transfers_done == 5; });
  std::optional<TaggedValue> got;
  cl->read([&](const TaggedValue& tv) { got = tv; });
  run_until(*c.env, [&] { return got.has_value(); });
  EXPECT_EQ(got->value, "stormy");
}

TEST(DynamicAbd, RegisterRefreshOnGainPreservesFreshness) {
  // A server that gains weight must refresh its register first
  // (Algorithm 4 line 9): after a client writes, a gaining server's local
  // register must not serve a stale tag once the transfer completes.
  StorageCluster c(4, 1, 9);
  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* cl = add_client(c, 0, clients);
  std::optional<Tag> wrote;
  cl->write("fresh", [&](const Tag& t) { wrote = t; });
  run_until(*c.env, [&] { return wrote.has_value(); });

  bool transferred = false;
  c.node(0).reassign().transfer(
      1, Weight(1, 4), [&](const TransferOutcome&) { transferred = true; });
  run_until(*c.env, [&] { return transferred; });
  c.env->run_to_quiescence();
  // The gaining server (s1) refreshed: its register holds the write.
  EXPECT_EQ(c.node(1).server().reg().value, "fresh");
  EXPECT_EQ(c.node(1).server().reg().tag, *wrote);
}

TEST(DynamicAbd, GainsQueuedBehindARefreshShareTheNextOne) {
  // Three gains reach s3 in a row: the first starts a refresh, the other
  // two queue behind it and share one more refresh. The second refresh
  // starts from s3's own change set, which already holds the first gain,
  // so s3's replies restart neither refresh's key discovery.
  StorageCluster c(4, 1, 9);
  ReassignNode& target = c.node(3).reassign();
  auto sync_gain = [&](ProcessId from) {
    ChangeSet sent = target.changes();
    sent.add(Change(from, kFirstCounter, from, -Weight(1, 8)));
    sent.add(Change(from, kFirstCounter, 3, Weight(1, 8)));
    target.handle(from, SyncMsg(sent, std::nullopt, c.config.shard));
  };
  sync_gain(0);
  sync_gain(1);
  sync_gain(2);
  c.env->run_to_quiescence();
  // Each refresh sends one KEYS broadcast to the four servers.
  EXPECT_EQ(c.node(3).client().restarts(), 0u);
  EXPECT_EQ(c.env->traffic().get("msg.KEYS"), 2 * 4);
  EXPECT_EQ(target.weight(), Weight(11, 8));
}

TEST(DynamicStorageNode, RepliesShareOneChangeSetUntilItGrows) {
  StorageCluster c(4, 1, 11);
  // Stands in for a client: records the change set of every R_A.
  struct Probe : Process {
    std::vector<ChangeSetPtr> seen;
    void on_message(ProcessId, const Message& m) override {
      if (const auto* ack = msg_cast<ReadAck>(m)) {
        seen.push_back(ack->changes());
      }
    }
  } probe;
  c.env->register_process(client_id(0), &probe);
  auto read_s0 = [&](OpId op) {
    c.node(0).handle(client_id(0), ReadReq(op));
    c.env->run_to_quiescence();
  };

  read_s0(1);
  read_s0(2);
  ASSERT_EQ(probe.seen.size(), 2u);
  EXPECT_EQ(probe.seen[0], probe.seen[1]);  // no growth: one object

  bool transferred = false;
  c.node(0).reassign().transfer(
      1, Weight(1, 4), [&](const TransferOutcome&) { transferred = true; });
  run_until(*c.env, [&] { return transferred; });
  read_s0(3);
  ASSERT_EQ(probe.seen.size(), 3u);
  EXPECT_NE(probe.seen[2], probe.seen[1]);
  EXPECT_EQ(probe.seen[2]->size(), probe.seen[1]->size() + 2);
}

TEST(DynamicAbd, QuorumShrinksAfterReweighting) {
  // After concentrating weight on two servers, a client's phase can
  // complete with fewer responders. Verify via the weight map the client
  // converges to.
  StorageCluster c(7, 2, 10, WeightMap::uniform(7));
  // floor = 7/10. s3..s6 donate 1/4 each to s0 (sequentially).
  int done = 0;
  for (std::uint32_t donor : {3u, 4u, 5u, 6u}) {
    c.node(donor).reassign().transfer(
        0, Weight(1, 4), [&](const TransferOutcome& o) {
          EXPECT_TRUE(o.effective);
          ++done;
        });
  }
  run_until(*c.env, [&] { return done == 4; });
  c.env->run_to_quiescence();

  std::vector<std::unique_ptr<StorageClient>> clients;
  auto* cl = add_client(c, 0, clients);
  std::optional<TaggedValue> got;
  cl->read([&](const TaggedValue& tv) { got = tv; });
  run_until(*c.env, [&] { return got.has_value(); });
  Wmqs q(cl->current_weights());
  EXPECT_EQ(q.weights().of(0), Weight(2));
  EXPECT_EQ(q.min_quorum_size(), 3u);  // was 4 with uniform weights
}

// --- Atomicity sweeps --------------------------------------------------------

struct AtomicitySweep {
  std::uint64_t seed;
  std::uint32_t n;
  std::uint32_t f;
  bool with_transfers;
  bool with_crashes;
};

class StorageAtomicityTest : public ::testing::TestWithParam<AtomicitySweep> {
};

TEST_P(StorageAtomicityTest, HistoryIsAtomic) {
  auto p = GetParam();
  StorageCluster c(p.n, p.f, p.seed);
  auto history = std::make_shared<HistoryRecorder>();

  WorkloadParams wp;
  wp.num_ops = 30;
  wp.read_ratio = 0.5;
  wp.think_time = ms(2);
  wp.value_size = 8;
  wp.seed = p.seed;

  std::vector<std::unique_ptr<WorkloadClient>> clients;
  const std::uint32_t kClients = 3;
  for (std::uint32_t k = 0; k < kClients; ++k) {
    clients.push_back(std::make_unique<WorkloadClient>(
        *c.env, client_id(k), c.config, wp,
        history));
    c.env->register_process(client_id(k), clients.back().get());
  }

  if (p.with_transfers) {
    // Background transfer churn: each server donates small slices on a
    // timer while the workload runs.
    for (std::uint32_t i = 0; i < p.n; ++i) {
      auto* node = &c.node(i);
      std::uint32_t dst = (i + 1) % p.n;
      for (int round = 0; round < 4; ++round) {
        c.env->schedule(i, ms(10 + 25 * round), [node, dst] {
          if (!node->reassign().transfer_in_flight()) {
            node->reassign().transfer(dst, Weight(1, 50),
                                      [](const TransferOutcome&) {});
          }
        });
      }
    }
  }
  if (p.with_crashes) {
    // Crash exactly f servers mid-run.
    for (std::uint32_t k = 0; k < p.f; ++k) {
      std::uint32_t victim = p.n - 1 - k;
      c.env->schedule(kNoProcess, ms(30 + 20 * k),
                      [&c, victim] { c.env->crash(victim); });
    }
  }

  auto all_done = [&] {
    for (const auto& cl : clients) {
      if (!cl->done()) return false;
    }
    return true;
  };
  run_until(*c.env, all_done, seconds(600));

  auto err = check_atomicity(history->completed());
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(history->completed_count(), kClients * wp.num_ops);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, StorageAtomicityTest,
    ::testing::Values(
        AtomicitySweep{301, 4, 1, false, false},
        AtomicitySweep{302, 4, 1, true, false},
        AtomicitySweep{303, 5, 2, true, false},
        AtomicitySweep{304, 5, 2, true, true},
        AtomicitySweep{305, 7, 2, true, false},
        AtomicitySweep{306, 7, 3, true, true},
        AtomicitySweep{307, 7, 2, true, true},
        AtomicitySweep{308, 9, 4, true, false},
        AtomicitySweep{309, 6, 1, true, true},
        AtomicitySweep{310, 8, 3, true, false}));

}  // namespace
}  // namespace wrs
