// Edge-case tests for the ABD client/server machinery: stale replies,
// restart budgets, weight views, one-round reads versus write-backs, and
// the server register rules.
#include <gtest/gtest.h>

#include "storage/abd_server.h"
#include "storage/snapshot_messages.h"
#include "test_util.h"
#include "workload/workload.h"

namespace wrs {
namespace {

using test::run_until;
using test::StorageCluster;

/// Registers a bare AbdClient with an env so a test can drive it by hand.
struct ClientHolder : Process {
  AbdClient* c = nullptr;
  void on_message(ProcessId from, const Message& m) override {
    c->handle(from, m);
  }
};

/// Clients on a StorageCluster, each with its own ABD client.
std::vector<std::unique_ptr<StorageClient>> add_clients(StorageCluster& c,
                                                        int count) {
  std::vector<std::unique_ptr<StorageClient>> clients;
  for (int k = 0; k < count; ++k) {
    clients.push_back(std::make_unique<StorageClient>(
        *c.env, client_id(k), c.config));
    c.env->register_process(client_id(k), clients.back().get());
  }
  return clients;
}

/// Issues a write on `client` and runs the simulator until it returns.
void write_now(StorageCluster& c, StorageClient& client, Value value) {
  bool wrote = false;
  client.router().shard_client(0).write(std::move(value),
                                       [&](const Tag&) { wrote = true; });
  run_until(*c.env, [&] { return wrote; });
}

/// Issues a read on `client` and runs the simulator until it returns.
TaggedValue read_now(StorageCluster& c, StorageClient& client) {
  std::optional<TaggedValue> got;
  client.router().shard_client(0).read(
      [&](const TaggedValue& tv) { got = tv; });
  EXPECT_TRUE(c.env->run_until_pred([&] { return got.has_value(); },
                                    c.env->now() + seconds(10)));
  return got.value_or(TaggedValue{});
}

TEST(AbdServer, KeepsHighestTagOnly) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  struct Sink : Process {
    void on_message(ProcessId, const Message&) override {}
  } sink;
  env.register_process(client_id(0), &sink);
  AbdServer server(env, 0, nullptr);
  env.register_process(0, &sink);  // placeholder owner for sends
  env.start();

  WriteReq w1(1, TaggedValue{Tag{5, 1}, "five"});
  server.handle(client_id(0), w1);
  EXPECT_EQ(server.reg().value, "five");

  // Lower tag: ignored.
  WriteReq w2(2, TaggedValue{Tag{3, 9}, "three"});
  server.handle(client_id(0), w2);
  EXPECT_EQ(server.reg().value, "five");
  EXPECT_EQ(server.reg().tag, (Tag{5, 1}));

  // Same ts, higher pid: accepted (lexicographic tag order).
  WriteReq w3(3, TaggedValue{Tag{5, 2}, "five-b"});
  server.handle(client_id(0), w3);
  EXPECT_EQ(server.reg().value, "five-b");
}

TEST(AbdServer, RepliesCarryProvidedChangeSet) {
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  struct Cap : Process {
    ChangeSetPtr last;
    void on_message(ProcessId, const Message& m) override {
      if (const auto* ack = msg_cast<ReadAck>(m)) last = ack->changes();
    }
  } cap;
  env.register_process(client_id(0), &cap);
  auto cs = std::make_shared<ChangeSet>(
      ChangeSet::initial(WeightMap::uniform(3)));
  AbdServer server(env, 0, [cs] { return cs; });
  struct Owner : Process {
    AbdServer* s;
    void on_message(ProcessId from, const Message& m) override {
      s->handle(from, m);
    }
  } owner;
  owner.s = &server;
  env.register_process(0, &owner);
  env.start();
  env.send(client_id(0), 0, std::make_shared<ReadReq>(1));
  env.run_to_quiescence();
  ASSERT_NE(cap.last, nullptr);
  EXPECT_EQ(cap.last->size(), 3u);
}

TEST(AbdClient, ForeignAndStaleAcksIgnored) {
  // Drive a client manually: replies that belong to no in-flight op are
  // left unconsumed (they may target a co-located client), and replies
  // from a superseded phase attempt are swallowed without effect.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(3, 1);
  ClientHolder holder;
  AbdClient client(env, client_id(0), cfg);
  holder.c = &client;
  env.register_process(client_id(0), &holder);
  env.start();

  bool fired = false;
  OpId op = client.read([&](const TaggedValue&) { fired = true; });
  // An op id no operation of this client owns: NOT consumed.
  ReadAck foreign(/*op_id=*/0xdeadbeef, TaggedValue{}, nullptr);
  EXPECT_FALSE(client.handle(0, foreign));
  // The right op id but a phase attempt that was never issued: consumed
  // silently, no quorum accounting.
  ReadAck stale(op, TaggedValue{}, nullptr, /*seq=*/99);
  EXPECT_TRUE(client.handle(0, stale));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(client.busy());
}

TEST(AbdClient, RestartBudgetThrowsWhenExhausted) {
  StorageCluster c(4, 1, 42);
  auto clients = add_clients(c, 1);
  clients[0]->router().shard_client(0).set_max_restarts(0);

  // Force a restart: a transfer completes before the client's op.
  bool transferred = false;
  c.node(0).reassign().transfer(
      1, Weight(1, 8), [&](const TransferOutcome&) { transferred = true; });
  run_until(*c.env, [&] { return transferred; });
  c.env->run_to_quiescence();

  clients[0]->router().shard_client(0).read([](const TaggedValue&) {});
  // The read will learn the new changes on the first replies and want to
  // restart — with budget 0 that surfaces as a logic error inside the
  // simulator event. gtest can't catch across the event loop, so step
  // manually and expect the throw.
  EXPECT_THROW(c.env->run_to_quiescence(), std::logic_error);
}

TEST(AbdClient, WeightedDeploymentWithoutTransfersIsStaticAbd) {
  // The classical static-weight baseline is a deployment that never
  // transfers weight: the client follows its change set, the set never
  // grows, so no operation restarts and every quorum is checked against
  // the configured weights (EXP-L1's oracle-tuned WMQS assignment).
  WeightMap wm;
  wm.set(0, Weight(3, 2));
  wm.set(1, Weight(3, 2));
  wm.set(2, Weight(1));
  wm.set(3, Weight(1, 2));
  wm.set(4, Weight(1, 2));
  StorageCluster c(5, 1, 44, wm);
  WorkloadParams wp;
  wp.num_ops = 60;
  wp.read_ratio = 0.5;
  wp.think_time = ms(5);
  wp.seed = 44;
  WorkloadClient client(*c.env, client_id(0), c.config, wp);
  c.env->register_process(client_id(0), &client);
  run_until(*c.env, [&] { return client.done(); });

  EXPECT_EQ(client.completed(), wp.num_ops);
  const AbdClient& abd = client.router().shard_client(0);
  EXPECT_EQ(abd.restarts(), 0u);
  EXPECT_EQ(abd.current_weights(), wm) << abd.current_weights().str();
  EXPECT_EQ(abd.changes().size(), 5u);  // the initial set only
}

TEST(AbdClient, SecondReadNeverReturnsOlderTag) {
  // After a read completed, a second read observes a tag at least as new
  // (no regression), per Definition 6.
  StorageCluster c(5, 2, 43);
  auto clients = add_clients(c, 2);
  write_now(c, *clients[0], "wb");

  const TaggedValue r1 = read_now(c, *clients[1]);
  const TaggedValue r2 = read_now(c, *clients[1]);
  EXPECT_EQ(r1.value, "wb");
  EXPECT_FALSE(r2.tag < r1.tag);
}

TEST(AbdClient, UnanimousReadCompletesInOneRound) {
  StorageCluster c(3, 1, 45);
  auto clients = add_clients(c, 1);
  write_now(c, *clients[0], "v");
  c.env->run_to_quiescence();  // every server now holds the write

  const std::int64_t w0 = c.env->traffic().get("msg.W");
  const std::int64_t fast0 = c.env->traffic().get("reads.fast_path");
  EXPECT_EQ(read_now(c, *clients[0]).value, "v");
  EXPECT_EQ(c.env->traffic().get("msg.W"), w0);  // no write-back
  EXPECT_EQ(c.env->traffic().get("reads.fast_path"), fast0 + 1);
}

TEST(AbdClient, ReadWritesBackAMinorityWriteBeforeReturningIt) {
  // A writer crashes after its phase 2 reached only server 0. A read
  // whose quorum includes server 0 sees the new tag at a minority, so it
  // must write it back: otherwise a later read whose quorum avoids
  // server 0 would return the OLDER tag (new-old inversion).
  StorageCluster c(5, 2, 46, WeightMap(), ms(1), ms(1));
  auto clients = add_clients(c, 3);
  LinkFaults& faults = c.env->faults();
  write_now(c, *clients[0], "old");
  c.env->run_to_quiescence();

  // Constant 1ms links: the R round lands at t+1ms and the acks at t+2ms,
  // when phase 2 is sent. Cut the writer off from servers 1-4 in between.
  clients[0]->router().shard_client(0).write("new", [](const Tag&) {});
  c.env->run_until(c.env->now() + us(1500));
  for (ProcessId s = 1; s < 5; ++s) faults.cut_one_way(client_id(0), s);
  c.env->run_until(c.env->now() + ms(2));
  c.env->crash(client_id(0));
  c.env->run_to_quiescence();
  ASSERT_EQ(c.node(0).server().reg().value, "new");
  for (std::uint32_t s = 1; s < 5; ++s) {
    ASSERT_EQ(c.node(s).server().reg().value, "old") << "server " << s;
  }

  // Reader 1's quorum is {0, 1, 2}: not unanimous, so it writes back.
  faults.partition(client_id(1), 3);
  faults.partition(client_id(1), 4);
  const std::int64_t w0 = c.env->traffic().get("msg.W");
  const std::int64_t fast0 = c.env->traffic().get("reads.fast_path");
  const TaggedValue first = read_now(c, *clients[1]);
  EXPECT_EQ(first.value, "new");
  EXPECT_GT(c.env->traffic().get("msg.W"), w0);
  EXPECT_EQ(c.env->traffic().get("reads.fast_path"), fast0);

  // Reader 2's quorum {2, 3, 4} avoids server 0, yet must still see it.
  faults.partition(client_id(2), 0);
  faults.partition(client_id(2), 1);
  const TaggedValue second = read_now(c, *clients[2]);
  EXPECT_EQ(second.tag, first.tag);
  EXPECT_EQ(second.value, "new");
}

TEST(AbdClient, NewerChangeSetOnUnanimousQuorumRestartsTheRead) {
  // Drive a dynamic client by hand over 3 servers (quorum: any 2). The
  // second ack would complete a unanimous quorum, but it carries a newer
  // change set: the read must restart under it, not return.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(3, 1);
  ClientHolder holder;
  AbdClient client(env, client_id(0), cfg);
  holder.c = &client;
  env.register_process(client_id(0), &holder);
  env.start();

  auto initial = std::make_shared<ChangeSet>(client.changes());
  auto newer = std::make_shared<ChangeSet>(client.changes());
  // A null transfer pair from server 2 to server 1: weights unchanged,
  // but the set is new to the client.
  newer->add(Change(2, 2, 2, Weight(0)));
  newer->add(Change(2, 2, 1, Weight(0)));
  const TaggedValue reg{Tag{1, client_id(9)}, "x"};

  bool fired = false;
  OpId op = client.read([&](const TaggedValue&) { fired = true; });
  EXPECT_TRUE(client.handle(0, ReadAck(op, reg, initial, /*seq=*/1)));
  EXPECT_TRUE(client.handle(1, ReadAck(op, reg, newer, /*seq=*/1)));
  EXPECT_FALSE(fired);
  EXPECT_EQ(client.restarts(), 1u);
  EXPECT_EQ(client.changes().size(), newer->size());
  EXPECT_EQ(env.traffic().get("reads.fast_path"), 0);

  // The restarted attempt completes in one round under the newer set.
  EXPECT_TRUE(client.handle(0, ReadAck(op, reg, newer, /*seq=*/2)));
  EXPECT_TRUE(client.handle(1, ReadAck(op, reg, newer, /*seq=*/2)));
  EXPECT_TRUE(fired);
  EXPECT_EQ(env.traffic().get("reads.fast_path"), 1);
}

TEST(AbdClient, NewerChangeSetInPhaseTwoReRunsOnlyTheAckRound) {
  // A write whose tag is chosen learns of a newer change set from a
  // WriteAck: it restarts under the new weights by re-sending its
  // WriteReq with the same tag, not by re-reading.
  test::RouterRig rig;
  const RegisterKey key = "k";
  const std::vector<ProcessId> servers =
      rig.router.map().servers(rig.router.shard_of(key));
  const test::RouterRig::SinkServer& first = rig.servers[servers.front()];
  Tag written;
  rig.router.write(key, "w", [&](const Tag& t) { written = t; });
  rig.env.run_to_quiescence();
  ASSERT_EQ(first.reads.size(), 1u);
  const OpId op = first.reads[0];

  const TaggedValue old_reg{Tag{4, client_id(9)}, "old"};
  for (int i = 0; i < 2; ++i) {
    rig.router.handle(servers[i], ReadAck(op, old_reg, nullptr, 1));
  }
  rig.env.run_to_quiescence();
  ASSERT_EQ(first.write_tags.size(), 1u);
  const Tag chosen = first.write_tags[0];

  // A null transfer pair: weights unchanged, but the set is new.
  auto newer = std::make_shared<ChangeSet>();
  newer->add(Change(servers[2], 2, servers[2], Weight(0)));
  newer->add(Change(servers[2], 2, servers[1], Weight(0)));
  rig.router.handle(servers[0], WriteAck(op, newer, /*seq=*/2));
  rig.env.run_to_quiescence();
  EXPECT_EQ(rig.router.restarts(), 1u);
  EXPECT_EQ(first.reads.size(), 1u) << "a phase-2 restart re-read";
  EXPECT_EQ(first.write_tags, (std::vector<Tag>{chosen, chosen}));

  for (int i = 0; i < 2; ++i) {
    rig.router.handle(servers[i], WriteAck(op, newer, /*seq=*/3));
  }
  EXPECT_EQ(written, chosen);
}

TEST(AbdClient, MergeMemoSkipsOnlySetsAlreadyMergedFromTheSender) {
  // Drive a dynamic client over 5 servers (quorum: any 3) with one read
  // that never completes: every ReadAck below is the reply path. After
  // each step the cached weights must equal a fresh derivation, and the
  // per-sender memo must hold a reference to exactly the set each server
  // last sent (use_count: the test's own handle plus one per memo slot).
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(5, 2);
  ClientHolder holder;
  AbdClient client(env, client_id(0), cfg);
  holder.c = &client;
  env.register_process(client_id(0), &holder);
  env.start();
  const std::vector<ProcessId> servers = cfg.servers();
  auto weights_fresh = [&] {
    return client.current_weights() == client.changes().to_weight_map(servers);
  };
  const TaggedValue reg{Tag{1, client_id(9)}, "x"};

  auto base = std::make_shared<const ChangeSet>(client.changes());
  auto newer = std::make_shared<const ChangeSet>([&] {
    ChangeSet cs = *base;
    cs.add(Change(2, 2, 2, -Weight(1, 4)));
    cs.add(Change(2, 2, 0, Weight(1, 4)));
    return cs;
  }());
  // What a socket decode of `newer` produces: same contents, new object.
  auto decoded = std::make_shared<const ChangeSet>(*newer);

  OpId op = client.read([](const TaggedValue&) { FAIL() << "completed"; });
  ASSERT_TRUE(weights_fresh());
  const WeightMap before = client.current_weights();

  // (a) The same pointer from two servers: nothing new, no restart.
  EXPECT_TRUE(client.handle(0, ReadAck(op, reg, base, /*seq=*/1)));
  EXPECT_TRUE(client.handle(1, ReadAck(op, reg, base, /*seq=*/1)));
  EXPECT_EQ(client.restarts(), 0u);
  EXPECT_TRUE(weights_fresh());
  EXPECT_EQ(base.use_count(), 3);  // memo slots of servers 0 and 1

  // (b) A new pointer from server 2 with one more transfer pair: one
  // restart, and the weights move.
  EXPECT_TRUE(client.handle(2, ReadAck(op, reg, newer, /*seq=*/1)));
  EXPECT_EQ(client.restarts(), 1u);
  EXPECT_EQ(client.changes().size(), newer->size());
  EXPECT_TRUE(weights_fresh());
  EXPECT_FALSE(client.current_weights() == before);
  EXPECT_EQ(client.current_weights().of(0), Weight(5, 4));
  EXPECT_EQ(newer.use_count(), 2);

  // (c) Equal contents in a different object: the memo misses, the join
  // adds nothing, no restart; server 0's slot now holds the new object.
  EXPECT_TRUE(client.handle(0, ReadAck(op, reg, decoded, /*seq=*/2)));
  EXPECT_EQ(client.restarts(), 1u);
  EXPECT_TRUE(weights_fresh());
  EXPECT_EQ(decoded.use_count(), 2);
  EXPECT_EQ(base.use_count(), 2);  // only server 1's slot left

  // (d) An older pointer from server 3: a subset, no restart.
  EXPECT_TRUE(client.handle(3, ReadAck(op, reg, base, /*seq=*/2)));
  EXPECT_EQ(client.restarts(), 1u);
  EXPECT_TRUE(weights_fresh());
  EXPECT_EQ(client.current_weights().of(0), Weight(5, 4));
  EXPECT_EQ(base.use_count(), 3);
  EXPECT_TRUE(client.busy());
}

TEST(AbdClient, DuplicateReadAckCountsOnceAndLastRegisterWins) {
  // Static client over 3 servers (quorum: any 2). Server 0 answers
  // twice: the second answer must not complete the quorum on its own,
  // and its register replaces the first one in the max-tag pick.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(3, 1);
  ClientHolder holder;
  AbdClient client(env, client_id(0), cfg);
  holder.c = &client;
  env.register_process(client_id(0), &holder);
  env.start();
  const TaggedValue high{Tag{5, client_id(9)}, "high"};
  const TaggedValue low{Tag{2, client_id(9)}, "low"};

  std::optional<TaggedValue> got;
  OpId op = client.read([&](const TaggedValue& tv) { got = tv; });
  EXPECT_TRUE(client.handle(0, ReadAck(op, high, nullptr, /*seq=*/1)));
  EXPECT_TRUE(client.handle(0, ReadAck(op, low, nullptr, /*seq=*/1)));
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(client.handle(1, ReadAck(op, low, nullptr, /*seq=*/1)));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, low.tag);
  EXPECT_EQ(got->value, "low");
  // Both recorded registers hold the max tag: a one-round read.
  EXPECT_EQ(env.traffic().get("reads.fast_path"), 1);
}

TEST(AbdClient, OtherReplyTypesAtAReadsPhaseOneAreConsumedWithoutEffect) {
  // Acks of the wrong type that echo a phase-1 read's op id and seq are
  // consumed, and count nothing toward its quorum.
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(3, 1);
  ClientHolder holder;
  AbdClient client(env, client_id(0), cfg);
  holder.c = &client;
  env.register_process(client_id(0), &holder);
  env.start();
  const TaggedValue reg{Tag{1, client_id(9)}, "x"};

  bool fired = false;
  OpId op = client.read([&](const TaggedValue&) { fired = true; });
  for (ProcessId s = 0; s < 3; ++s) {
    EXPECT_TRUE(client.handle(s, WriteAck(op, nullptr, /*seq=*/1)));
    EXPECT_TRUE(client.handle(s, KeysAck(op, {"k"}, nullptr, /*seq=*/1)));
    EXPECT_TRUE(client.handle(
        s, SnapAck(op, {SnapEntry{"k", reg}}, nullptr, /*seq=*/1)));
  }
  EXPECT_FALSE(fired);
  EXPECT_TRUE(client.busy());
  // One ReadAck is still one responder short of a quorum.
  EXPECT_TRUE(client.handle(0, ReadAck(op, reg, nullptr, /*seq=*/1)));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(client.handle(1, ReadAck(op, reg, nullptr, /*seq=*/1)));
  EXPECT_TRUE(fired);
}

TEST(AbdClient, AckOfAnotherRoundTypeCountsForNothing) {
  // A collect round takes SnapAcks only. ReadAcks that echo its op id
  // and seq must not be counted as a phase-1 quorum (which would move
  // the collect to a second attempt and drop its valid SnapAcks).
  SimEnv env(std::make_shared<ConstantLatency>(ms(1)), 1);
  SystemConfig cfg = SystemConfig::uniform(3, 1);
  ClientHolder holder;
  AbdClient client(env, client_id(0), cfg);
  holder.c = &client;
  env.register_process(client_id(0), &holder);
  env.start();
  const TaggedValue reg{Tag{3, client_id(9)}, "v"};

  std::optional<std::vector<AbdClient::CollectEntry>> got;
  OpId op = client.collect(
      {"k"}, [&](const std::vector<AbdClient::CollectEntry>& cut) { got = cut; });
  for (ProcessId s = 0; s < 3; ++s) {
    EXPECT_TRUE(client.handle(s, ReadAck(op, reg, nullptr, /*seq=*/1)));
  }
  EXPECT_FALSE(got.has_value());

  for (ProcessId s = 0; s < 2; ++s) {
    EXPECT_TRUE(client.handle(
        s, SnapAck(op, {SnapEntry{"k", reg}}, nullptr, /*seq=*/1)));
  }
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0].key, "k");
  EXPECT_EQ((*got)[0].reg.tag, reg.tag);
  EXPECT_TRUE((*got)[0].unanimous);
}

TEST(AbdClient, LargeValuesRoundTrip) {
  StorageCluster c(4, 1, 44);
  auto clients = add_clients(c, 1);
  Value big(1 << 20, 'z');  // 1 MiB
  write_now(c, *clients[0], big);
  const TaggedValue got = read_now(c, *clients[0]);
  EXPECT_EQ(got.value.size(), big.size());
  EXPECT_EQ(got.value, big);
}

TEST(ReadChangesEngine, ConcurrentInvocationsIndependent) {
  test::ReassignCluster c(4, 1, 45);
  int done = 0;
  std::optional<ChangeSet> a, b;
  c.node(0).read_changes(1, [&](const ChangeSet& cs) {
    a = cs;
    ++done;
  });
  c.node(0).read_changes(2, [&](const ChangeSet& cs) {
    b = cs;
    ++done;
  });
  run_until(*c.env, [&] { return done == 2; });
  EXPECT_EQ(a->weight_of(1), Weight(1));
  EXPECT_EQ(b->weight_of(2), Weight(1));
  // Each returned set is target-scoped.
  for (const Change& ch : a->all()) EXPECT_EQ(ch.target(), 1u);
  for (const Change& ch : b->all()) EXPECT_EQ(ch.target(), 2u);
}

TEST(ReadChangesEngine, DuplicateAcksFromSameServerCountOnce) {
  // With only f+1 = 2 distinct responders required (n=4, f=1), verify
  // the engine waits for DISTINCT servers: hold 3 of 4 servers so only
  // one can reply; the read must not finish phase 1.
  test::ReassignCluster c(4, 1, 46);
  c.env->hold_messages(1);
  c.env->hold_messages(2);
  c.env->hold_messages(3);
  bool finished = false;
  c.node(0).read_changes(0, [&](const ChangeSet&) { finished = true; });
  c.env->run_until(seconds(5));
  EXPECT_FALSE(finished);  // one responder (itself) is not f+1
  c.env->release_holds(1);
  c.env->release_holds(2);
  c.env->release_holds(3);
  run_until(*c.env, [&] { return finished; });
}

}  // namespace
}  // namespace wrs
