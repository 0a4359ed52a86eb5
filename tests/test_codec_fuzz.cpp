// Seeded fuzz of the socket wire codec (src/net/wire_codec.h).
//
//  * Round trip: random instances of EVERY wire message type must
//    survive serialize -> deserialize -> serialize byte-identically.
//  * Golden bytes: one hand-built frame per wire type pins its exact
//    encoding, so a field written in the wrong order fails here even
//    when the decoder reads it back in the same wrong order.
//  * Truncation: every strict prefix of a valid frame body is rejected.
//  * Corruption: seeded random byte flips either decode to a
//    re-encodable message or are rejected — never a crash (run under
//    ASan/UBSan in CI).
//  * Lifetime: decoded messages own all their state — nothing aliases
//    the receive buffer, and encoded frames never alias sender-owned
//    message state (the in-process runtimes share messages as MsgPtr;
//    the wire boundary must deep-copy). The scribble/free pattern below
//    turns any aliasing into an ASan report or a byte mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/reliable_broadcast.h"
#include "common/rng.h"
#include "core/reassign_messages.h"
#include "monitor/adaptive_node.h"
#include "net/wire_codec.h"
#include "storage/abd_messages.h"
#include "storage/migration_messages.h"
#include "storage/snapshot_messages.h"

namespace wrs::net {
namespace {

// --- seeded generators ------------------------------------------------------

std::string rand_string(Rng& rng, std::size_t max_len = 24) {
  std::size_t n = rng.below(max_len + 1);
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('!' + rng.below(94)));
  }
  return s;
}

Weight rand_weight(Rng& rng) {
  auto num = static_cast<std::int64_t>(rng.below(41)) - 20;
  auto den = static_cast<std::int64_t>(1 + rng.below(9));
  return Weight(num, den);
}

Tag rand_tag(Rng& rng) {
  return Tag{static_cast<std::int64_t>(rng.below(1'000'000)),
             static_cast<ProcessId>(rng.below(kClientIdBase + 64))};
}

TaggedValue rand_tagged_value(Rng& rng) {
  return TaggedValue{rand_tag(rng), rand_string(rng, 48)};
}

ChangeSet rand_change_set(Rng& rng) {
  ChangeSet cs;
  std::size_t n = rng.below(5);
  for (std::size_t i = 0; i < n; ++i) {
    // Unique counters so ids never collide within the set.
    cs.add(Change(static_cast<ProcessId>(rng.below(8)),
                  kFirstCounter + i,
                  static_cast<ProcessId>(rng.below(8)), rand_weight(rng)));
  }
  return cs;
}

ChangeSetPtr rand_changes_ptr(Rng& rng) {
  if (rng.below(3) == 0) return nullptr;
  return std::make_shared<const ChangeSet>(rand_change_set(rng));
}

MsgPtr rand_read_req(Rng& rng) {
  return std::make_shared<ReadReq>(rng(), rand_string(rng),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_write_req(Rng& rng) {
  return std::make_shared<WriteReq>(rng(), rand_tagged_value(rng),
                                    rand_string(rng),
                                    static_cast<std::uint32_t>(rng.below(100)),
                                    static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_keys_req(Rng& rng) {
  return std::make_shared<KeysReq>(rng(),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_read_ack(Rng& rng) {
  return std::make_shared<ReadAck>(rng(), rand_tagged_value(rng),
                                   rand_changes_ptr(rng),
                                   static_cast<std::uint32_t>(rng.below(100)));
}

MsgPtr rand_write_ack(Rng& rng) {
  return std::make_shared<WriteAck>(rng(), rand_changes_ptr(rng),
                                    static_cast<std::uint32_t>(rng.below(100)));
}

MsgPtr rand_keys_ack(Rng& rng) {
  std::vector<RegisterKey> keys;
  std::size_t n = rng.below(6);
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rand_string(rng));
  return std::make_shared<KeysAck>(rng(), std::move(keys),
                                   rand_changes_ptr(rng),
                                   static_cast<std::uint32_t>(rng.below(100)));
}

MsgPtr rand_batch_request(Rng& rng) {
  std::vector<MsgPtr> frames;
  std::size_t n = 1 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.below(3)) {
      case 0: frames.push_back(rand_read_req(rng)); break;
      case 1: frames.push_back(rand_write_req(rng)); break;
      default: frames.push_back(rand_keys_req(rng)); break;
    }
  }
  return std::make_shared<BatchRequest>(static_cast<ShardId>(rng.below(4)),
                                        std::move(frames));
}

MsgPtr rand_batch_reply(Rng& rng) {
  std::vector<MsgPtr> frames;
  std::size_t n = 1 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.below(3)) {
      case 0: frames.push_back(rand_read_ack(rng)); break;
      case 1: frames.push_back(rand_write_ack(rng)); break;
      default: frames.push_back(rand_keys_ack(rng)); break;
    }
  }
  return std::make_shared<BatchReply>(std::move(frames));
}

MsgPtr rand_transfer(Rng& rng) {
  Weight delta = rand_weight(rng);
  std::uint64_t counter = kFirstCounter + rng.below(50);
  auto issuer = static_cast<ProcessId>(rng.below(8));
  return std::make_shared<TransferMsg>(
      Change(issuer, counter, static_cast<ProcessId>(rng.below(8)), -delta),
      Change(issuer, counter, static_cast<ProcessId>(rng.below(8)), delta),
      static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_rb(Rng& rng) {
  return std::make_shared<RbMsg>(static_cast<ProcessId>(rng.below(8)), rng(),
                                 rand_transfer(rng));
}

MsgPtr rand_sync(Rng& rng) {
  std::optional<std::uint64_t> pending;
  if (rng.below(2) == 0) pending = rng();
  return std::make_shared<SyncMsg>(rand_change_set(rng), pending,
                                   static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_mig_freeze(Rng& rng) {
  return std::make_shared<MigFreeze>(rng(), rand_string(rng), rng(),
                                     static_cast<ShardId>(rng.below(4)),
                                     static_cast<std::uint32_t>(rng.below(100)),
                                     static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_mig_commit(Rng& rng) {
  std::optional<TaggedValue> install;
  if (rng.below(2) == 0) install = rand_tagged_value(rng);
  return std::make_shared<MigCommit>(rng(), rand_string(rng),
                                     static_cast<ShardId>(rng.below(4)), rng(),
                                     std::move(install),
                                     static_cast<std::uint32_t>(rng.below(100)),
                                     static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_wrong_shard(Rng& rng) {
  return std::make_shared<WrongShardAck>(
      rng(), rand_string(rng), static_cast<ShardId>(rng.below(4)), rng(),
      static_cast<std::uint32_t>(rng.below(100)));
}

std::vector<RegisterKey> rand_key_list(Rng& rng) {
  std::vector<RegisterKey> keys;
  std::size_t n = rng.below(6);
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rand_string(rng));
  return keys;
}

SnapEntry rand_snap_entry(Rng& rng) {
  SnapEntry e;
  e.key = rand_string(rng);
  e.reg = rand_tagged_value(rng);
  e.flag = static_cast<std::uint8_t>(rng.below(3));
  e.owner = static_cast<ShardId>(rng.below(4));
  e.epoch = rng();
  return e;
}

std::vector<SnapEntry> rand_snap_entries(Rng& rng) {
  std::vector<SnapEntry> entries;
  std::size_t n = rng.below(5);
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) entries.push_back(rand_snap_entry(rng));
  return entries;
}

MsgPtr rand_snap_req(Rng& rng) {
  return std::make_shared<SnapReq>(rng(), rand_key_list(rng),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_snap_ack(Rng& rng) {
  return std::make_shared<SnapAck>(rng(), rand_snap_entries(rng),
                                   rand_changes_ptr(rng),
                                   static_cast<std::uint32_t>(rng.below(100)),
                                   rng.below(2) == 0);
}

MsgPtr rand_snap_freeze(Rng& rng) {
  return std::make_shared<SnapFreeze>(rng(), rng(), rand_key_list(rng),
                                      static_cast<std::uint32_t>(rng.below(100)),
                                      static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_snap_release(Rng& rng) {
  return std::make_shared<SnapRelease>(
      rng(), rng(), rand_snap_entries(rng),
      static_cast<std::uint32_t>(rng.below(100)),
      static_cast<ShardId>(rng.below(4)));
}

MsgPtr rand_rtt_report(Rng& rng) {
  std::map<ProcessId, double> rtts;
  std::size_t n = rng.below(6);
  for (std::size_t i = 0; i < n; ++i) {
    rtts[static_cast<ProcessId>(rng.below(16))] = rng.uniform(0.0, 50.0);
  }
  return std::make_shared<RttReportMsg>(std::move(rtts));
}

using Maker = std::function<MsgPtr(Rng&)>;

const std::vector<std::pair<const char*, Maker>>& all_makers() {
  static const std::vector<std::pair<const char*, Maker>> makers = {
      {"ReadReq", rand_read_req},
      {"ReadAck", rand_read_ack},
      {"WriteReq", rand_write_req},
      {"WriteAck", rand_write_ack},
      {"KeysReq", rand_keys_req},
      {"KeysAck", rand_keys_ack},
      {"BatchRequest", rand_batch_request},
      {"BatchReply", rand_batch_reply},
      {"RcReq",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<RcReq>(rng(),
                                        static_cast<ProcessId>(rng.below(8)),
                                        static_cast<ShardId>(rng.below(4)));
       }},
      {"RcAck",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<RcAck>(rng(), rand_change_set(rng));
       }},
      {"WcReq",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<WcReq>(rng(), rand_change_set(rng),
                                        static_cast<ShardId>(rng.below(4)));
       }},
      {"WcAck", [](Rng& rng) -> MsgPtr { return std::make_shared<WcAck>(rng()); }},
      {"Transfer", rand_transfer},
      {"TAck",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<TAck>(rng(),
                                       static_cast<ShardId>(rng.below(4)));
       }},
      {"Sync", rand_sync},
      {"Rb", rand_rb},
      {"Ping",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<PingMsg>(
             static_cast<TimeNs>(rng.below(1'000'000'000)));
       }},
      {"Pong",
       [](Rng& rng) -> MsgPtr {
         return std::make_shared<PongMsg>(
             static_cast<TimeNs>(rng.below(1'000'000'000)));
       }},
      {"RttReport", rand_rtt_report},
      {"MigFreeze", rand_mig_freeze},
      {"MigCommit", rand_mig_commit},
      {"WrongShard", rand_wrong_shard},
      {"SnapReq", rand_snap_req},
      {"SnapAck", rand_snap_ack},
      {"SnapFreeze", rand_snap_freeze},
      {"SnapRelease", rand_snap_release},
  };
  return makers;
}

ProcessId rand_pid(Rng& rng) {
  return rng.below(2) ? static_cast<ProcessId>(rng.below(64))
                      : client_id(static_cast<std::uint32_t>(rng.below(8)));
}

// --- round trip -------------------------------------------------------------

TEST(CodecFuzz, RoundTripByteIdenticalEveryType) {
  // Every frame goes through ONE shared arena, with a random subset of
  // segments kept alive, so encodes keep landing at fresh offsets and
  // eventually rotate chunks mid-sweep.
  Rng rng(0xC0DEC);
  net::EncodeArena arena;
  std::vector<net::Segment> held;
  for (const auto& [name, make] : all_makers()) {
    for (int i = 0; i < 200; ++i) {
      MsgPtr msg = make(rng);
      ProcessId from = rand_pid(rng);
      ProcessId to = rand_pid(rng);
      net::Segment bytes = WireCodec::encode_frame_arena(arena, from, to, *msg);
      ASSERT_GT(bytes.size(), 4u) << name;
      EXPECT_EQ(WireCodec::frame_size(*msg), bytes.size()) << name;
      auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
      ASSERT_TRUE(decoded.has_value()) << name << " iteration " << i;
      EXPECT_EQ(decoded->from, from) << name;
      EXPECT_EQ(decoded->to, to) << name;
      ASSERT_NE(decoded->msg, nullptr) << name;
      // The decoded message is a fresh object of the same concrete type
      // whose re-encoding is byte-identical.
      EXPECT_EQ(decoded->msg->type_name(), msg->type_name()) << name;
      net::Segment again = WireCodec::encode_frame_arena(
          arena, decoded->from, decoded->to, *decoded->msg);
      ASSERT_EQ(again.size(), bytes.size()) << name << " iteration " << i;
      EXPECT_EQ(std::memcmp(again.data(), bytes.data(), bytes.size()), 0)
          << name << " iteration " << i << ": re-encode not byte-identical";
      if (rng.below(4) == 0) held.push_back(std::move(bytes));
      if (held.size() > 64) held.clear();
    }
  }
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

TEST(CodecFuzz, GoldenFramesArePinned) {
  // Exact frame bytes are a protocol contract between nodes built from
  // different trees: the encoder must reproduce them, and the decoder
  // must accept them back into a message that re-encodes identically.
  ChangeSet cs;
  cs.add(Change(1, kFirstCounter, 2, Weight(-1, 4)));
  cs.add(Change(3, kFirstCounter + 1, 0, Weight(1, 4)));
  SnapEntry entry;
  entry.key = "s";
  entry.reg = TaggedValue{Tag{8, 1}, "z"};
  entry.flag = SnapEntry::kMoved;
  entry.owner = 3;
  entry.epoch = 2;
  struct Golden {
    const char* name;
    MsgPtr msg;
    ProcessId from;
    ProcessId to;
    const char* hex;
  };
  const std::vector<Golden> goldens = {
      {"ReadReq", std::make_shared<ReadReq>(7, "k1", 3, 2), 1, client_id(0),
       "2000000001010100000000000100070000000000000003000000020000000200"
       "00006b31"},
      {"WriteReq",
       std::make_shared<WriteReq>(9, TaggedValue{Tag{5, 2}, "val"}, "key", 4,
                                  1),
       client_id(1), 2,
       "3400000001030100010002000000090000000000000004000000010000000500"
       "000000000000020000000300000076616c030000006b6579"},
      {"ReadAck",
       std::make_shared<ReadAck>(11, TaggedValue{Tag{6, 3}, "v"},
                                 std::make_shared<const ChangeSet>(cs), 5),
       2, client_id(0),
       "6c000000010202000000000001000b0000000000000005000000060000000000"
       "0000030000000100000076010200000001000000020000000000000002000000"
       "ffffffffffffffff040000000000000003000000030000000000000000000000"
       "01000000000000000400000000000000"},
      {"BatchRequest",
       std::make_shared<BatchRequest>(
           1, std::vector<MsgPtr>{
                  std::make_shared<ReadReq>(12, "a", 1, 1),
                  std::make_shared<WriteReq>(13, TaggedValue{Tag{2, 1}, "x"},
                                             "b", 2, 1)}),
       client_id(2), 4,
       "5700000001070200010004000000010000000200000001150000000c00000000"
       "0000000100000001000000010000006103260000000d00000000000000020000"
       "000100000002000000000000000100000001000000780100000062"},
      {"SnapAck",
       std::make_shared<SnapAck>(21, std::vector<SnapEntry>{entry}, nullptr, 6,
                                 true),
       0, client_id(3),
       "3f00000001180000000003000100150000000000000006000000010100000001"
       "00000073080000000000000001000000010000007a0203000000020000000000"
       "000000"},
      {"WriteAck",
       std::make_shared<WriteAck>(14, std::make_shared<const ChangeSet>(cs), 7),
       3, client_id(1),
       "5b000000010403000000010001000e0000000000000007000000010200000001"
       "000000020000000000000002000000ffffffffffffffff040000000000000003"
       "00000003000000000000000000000001000000000000000400000000000000"},
      {"KeysReq", std::make_shared<KeysReq>(15, 8, 3), client_id(4), 1,
       "1a000000010504000100010000000f000000000000000800000003000000"},
      {"KeysAck",
       std::make_shared<KeysAck>(16, std::vector<RegisterKey>{"k1", "k22"},
                                 std::make_shared<const ChangeSet>(cs), 9),
       1, client_id(4),
       "6c00000001060100000004000100100000000000000009000000020000000200"
       "00006b31030000006b3232010200000001000000020000000000000002000000"
       "ffffffffffffffff040000000000000003000000030000000000000000000000"
       "01000000000000000400000000000000"},
      {"BatchReply",
       std::make_shared<BatchReply>(std::vector<MsgPtr>{
           std::make_shared<WriteAck>(17, nullptr, 1),
           std::make_shared<ReadAck>(18, TaggedValue{Tag{3, 2}, "w"}, nullptr,
                                     2)}),
       2, client_id(2),
       "430000000108020000000200010002000000040d000000110000000000000001"
       "00000000021e0000001200000000000000020000000300000000000000020000"
       "00010000007700"},
      {"RcReq", std::make_shared<RcReq>(19, 2, 1), 0, 1,
       "1a0000000109000000000100000013000000000000000200000001000000"},
      {"RcAck", std::make_shared<RcAck>(20, cs), 1, 0,
       "56000000010a0100000000000000140000000000000002000000010000000200"
       "00000000000002000000ffffffffffffffff0400000000000000030000000300"
       "0000000000000000000001000000000000000400000000000000"},
      {"WcReq", std::make_shared<WcReq>(22, cs, 2), 2, 3,
       "5a000000010b0200000003000000160000000000000002000000020000000100"
       "0000020000000000000002000000ffffffffffffffff04000000000000000300"
       "000003000000000000000000000001000000000000000400000000000000"},
      {"WcAck", std::make_shared<WcAck>(23), 3, 2,
       "12000000010c03000000020000001700000000000000"},
      {"Transfer",
       std::make_shared<TransferMsg>(Change(1, kFirstCounter + 4, 1,
                                            Weight(-1, 8)),
                                     Change(1, kFirstCounter + 4, 3,
                                            Weight(1, 8)),
                                     1),
       1, 3,
       "4e000000010d010000000300000001000000060000000000000001000000ffff"
       "ffffffffffff0800000000000000010000000600000000000000030000000100"
       "000000000000080000000000000001000000"},
      {"TAck", std::make_shared<TAck>(kFirstCounter + 4, 1), 3, 1,
       "16000000010e0300000001000000060000000000000001000000"},
      {"Sync", std::make_shared<SyncMsg>(cs, std::uint64_t{5}, 2), 0, 2,
       "5b000000010f0000000002000000010500000000000000020000000200000001"
       "000000020000000000000002000000ffffffffffffffff040000000000000003"
       "00000003000000000000000000000001000000000000000400000000000000"},
      {"Rb",
       std::make_shared<RbMsg>(
           2, 24,
           std::make_shared<TransferMsg>(
               Change(2, kFirstCounter, 2, Weight(-1, 2)),
               Change(2, kFirstCounter, 0, Weight(1, 2)))),
       2, 1,
       "5f000000011002000000010000000200000018000000000000000d4400000002"
       "000000020000000000000002000000ffffffffffffffff020000000000000002"
       "0000000200000000000000000000000100000000000000020000000000000000"
       "000000"},
      {"Ping", std::make_shared<PingMsg>(-25), 0, 1,
       "1200000001110000000001000000e7ffffffffffffff"},
      {"Pong", std::make_shared<PongMsg>(26'000'000), 1, 0,
       "120000000112010000000000000080ba8c0100000000"},
      {"RttReport",
       std::make_shared<RttReportMsg>(
           std::map<ProcessId, double>{{0, 1.5}, {2, 0.25}}),
       1, 2,
       "26000000011301000000020000000200000000000000000000000000f83f0200"
       "0000000000000000d03f"},
      {"MigFreeze", std::make_shared<MigFreeze>(27, "mk", 3, 1, 10, 2),
       client_id(5), 0,
       "2c000000011405000100000000001b000000000000000a000000020000000300"
       "00000000000001000000020000006d6b"},
      {"MigCommit",
       std::make_shared<MigCommit>(28, "mk", 1, 3,
                                   TaggedValue{Tag{9, 4}, "mv"}, 11, 1),
       client_id(5), 3,
       "3f000000011505000100030000001c000000000000000b000000010000000300"
       "00000000000001000000020000006d6b01090000000000000004000000020000"
       "006d76"},
      {"WrongShard", std::make_shared<WrongShardAck>(29, "wk", 2, 4, 12), 1,
       client_id(6),
       "28000000011601000000060001001d000000000000000c000000040000000000"
       "00000200000002000000776b"},
      {"SnapReq",
       std::make_shared<SnapReq>(30, std::vector<RegisterKey>{"a", "bc"}, 13,
                                 2),
       client_id(7), 2,
       "29000000011707000100020000001e000000000000000d000000020000000200"
       "00000100000061020000006263"},
      {"SnapFreeze",
       std::make_shared<SnapFreeze>(31, make_snap_id(7, 3),
                                    std::vector<RegisterKey>{"a"}, 14, 1),
       client_id(7), 0,
       "2b000000011907000100000000001f000000000000000e000000010000000300"
       "000007000000010000000100000061"},
      {"SnapRelease",
       std::make_shared<SnapRelease>(32, make_snap_id(7, 3),
                                     std::vector<SnapEntry>{entry}, 15, 1),
       client_id(7), 1,
       "49000000011a070001000100000020000000000000000f000000010000000300"
       "000007000000010000000100000073080000000000000001000000010000007a"
       "02030000000200000000000000"},
  };
  ASSERT_EQ(goldens.size(), 26u) << "one golden frame per wire type";
  for (const Golden& g : goldens) {
    std::vector<std::uint8_t> bytes =
        WireCodec::encode_frame(g.from, g.to, *g.msg);
    EXPECT_EQ(hex(bytes), g.hex) << g.name;
    EXPECT_EQ(WireCodec::frame_size(*g.msg), bytes.size()) << g.name;
    auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
    ASSERT_TRUE(decoded.has_value()) << g.name;
    EXPECT_EQ(hex(WireCodec::encode_frame(decoded->from, decoded->to,
                                          *decoded->msg)),
              g.hex)
        << g.name;
  }
}

TEST(CodecFuzz, ArenaSegmentsSurviveArenaReuse) {
  // A retained segment (a queued write) stays valid while the arena
  // moves on to fresh chunks; copies share the refcount.
  net::EncodeArena arena;
  Rng rng(0x5E6);
  MsgPtr msg = all_makers()[0].second(rng);
  net::Segment first = WireCodec::encode_frame_arena(arena, 1, 2, *msg);
  std::vector<std::uint8_t> pinned(first.data(), first.data() + first.size());
  // Churn the arena well past one chunk.
  for (int i = 0; i < 50'000; ++i) {
    net::Segment s = WireCodec::encode_frame_arena(arena, 1, 2, *msg);
    (void)s;
  }
  net::Segment copy(first);
  EXPECT_EQ(copy.size(), first.size());
  EXPECT_EQ(std::memcmp(first.data(), pinned.data(), pinned.size()), 0);
  EXPECT_EQ(std::memcmp(copy.data(), pinned.data(), pinned.size()), 0);
}

TEST(CodecFuzz, ArenaRotationNeverTakesBackTheChunkItLeaves) {
  // Every segment of the full chunk has drained when the arena rotates.
  // It must still move to another chunk: refilling the same one would
  // leave a steady-state sender one chunk short, so its pool would make
  // the second chunk later, at a rotation that has segments in flight.
  net::EncodeArena arena;
  const auto full = reinterpret_cast<std::uintptr_t>(
      arena.reserve(kArenaChunkBytes));
  ASSERT_EQ(arena.writable(), kArenaChunkBytes);
  { net::Segment all = arena.commit(kArenaChunkBytes); }
  const auto next = reinterpret_cast<std::uintptr_t>(arena.reserve(0));
  EXPECT_TRUE(next < full || next >= full + kArenaChunkBytes)
      << "the arena refilled the chunk it rotated away from";
}

TEST(CodecFuzz, WireTypeTagsAreStable) {
  // The on-the-wire tags are a protocol contract — pin EVERY value so a
  // refactor reordering the enum (a silent wire break between versions
  // of wrs-node) fails loudly here. The enum is append-only; these pins
  // mirror the static_asserts in net/wire_format.h.
  EXPECT_EQ(WireCodec::wire_type_of(ReadReq(1)), WireType::kReadReq);
  EXPECT_EQ(static_cast<int>(WireType::kReadReq), 1);
  EXPECT_EQ(static_cast<int>(WireType::kReadAck), 2);
  EXPECT_EQ(static_cast<int>(WireType::kWriteReq), 3);
  EXPECT_EQ(static_cast<int>(WireType::kWriteAck), 4);
  EXPECT_EQ(static_cast<int>(WireType::kKeysReq), 5);
  EXPECT_EQ(static_cast<int>(WireType::kKeysAck), 6);
  EXPECT_EQ(static_cast<int>(WireType::kBatchRequest), 7);
  EXPECT_EQ(static_cast<int>(WireType::kBatchReply), 8);
  EXPECT_EQ(static_cast<int>(WireType::kRcReq), 9);
  EXPECT_EQ(static_cast<int>(WireType::kRcAck), 10);
  EXPECT_EQ(static_cast<int>(WireType::kWcReq), 11);
  EXPECT_EQ(static_cast<int>(WireType::kWcAck), 12);
  EXPECT_EQ(static_cast<int>(WireType::kTransfer), 13);
  EXPECT_EQ(static_cast<int>(WireType::kTAck), 14);
  EXPECT_EQ(static_cast<int>(WireType::kSync), 15);
  EXPECT_EQ(static_cast<int>(WireType::kRb), 16);
  EXPECT_EQ(static_cast<int>(WireType::kPing), 17);
  EXPECT_EQ(static_cast<int>(WireType::kPong), 18);
  EXPECT_EQ(static_cast<int>(WireType::kRttReport), 19);
  EXPECT_EQ(static_cast<int>(WireType::kMigFreeze), 20);
  EXPECT_EQ(static_cast<int>(WireType::kMigCommit), 21);
  EXPECT_EQ(static_cast<int>(WireType::kWrongShard), 22);
  EXPECT_EQ(static_cast<int>(WireType::kSnapReq), 23);
  EXPECT_EQ(static_cast<int>(WireType::kSnapAck), 24);
  EXPECT_EQ(static_cast<int>(WireType::kSnapFreeze), 25);
  EXPECT_EQ(static_cast<int>(WireType::kSnapRelease), 26);
  EXPECT_TRUE(WireCodec::encodable(ReadReq(1)));
  EXPECT_EQ(WireCodec::wire_type_of(MigFreeze(1, "k", 1, 0)),
            WireType::kMigFreeze);
  EXPECT_EQ(WireCodec::wire_type_of(MigCommit(1, "k", 0, 1)),
            WireType::kMigCommit);
  EXPECT_EQ(WireCodec::wire_type_of(WrongShardAck(1, "k", 0, 1)),
            WireType::kWrongShard);
  EXPECT_EQ(WireCodec::wire_type_of(SnapReq(1, {"k"})), WireType::kSnapReq);
  EXPECT_EQ(WireCodec::wire_type_of(SnapAck(1, {}, nullptr)),
            WireType::kSnapAck);
  EXPECT_EQ(WireCodec::wire_type_of(SnapFreeze(1, 2, {"k"})),
            WireType::kSnapFreeze);
  EXPECT_EQ(WireCodec::wire_type_of(SnapRelease(1, 2, {})),
            WireType::kSnapRelease);
}

// --- malformed input --------------------------------------------------------

TEST(CodecFuzz, EveryStrictPrefixRejected) {
  Rng gen(0x7121);
  for (const auto& [name, make] : all_makers()) {
    for (int i = 0; i < 10; ++i) {
      MsgPtr msg = make(gen);
      std::vector<std::uint8_t> bytes =
          WireCodec::encode_frame(3, client_id(1), *msg);
      const std::uint8_t* body = bytes.data() + 4;
      std::size_t body_len = bytes.size() - 4;
      for (std::size_t cut = 0; cut < body_len; ++cut) {
        auto decoded = WireCodec::decode_frame(body, cut);
        EXPECT_FALSE(decoded.has_value())
            << name << ": prefix of " << cut << "/" << body_len
            << " bytes decoded";
      }
    }
  }
}

TEST(CodecFuzz, SeededByteFlipsNeverCrash) {
  Rng rng(0xF1195);
  std::size_t malformed = 0;
  std::size_t survived = 0;
  for (const auto& [name, make] : all_makers()) {
    for (int i = 0; i < 100; ++i) {
      MsgPtr msg = make(rng);
      std::vector<std::uint8_t> bytes =
          WireCodec::encode_frame(1, client_id(0), *msg);
      std::size_t flips = 1 + rng.below(3);
      for (std::size_t k = 0; k < flips; ++k) {
        std::size_t at = 4 + rng.below(bytes.size() - 4);
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
      if (!decoded) {
        ++malformed;  // rejected, counted — the required behavior
      } else {
        ++survived;  // flip hit a don't-care bit or produced another
                     // valid message; it must still be re-encodable
        EXPECT_NO_THROW({
          auto again = WireCodec::encode_frame(decoded->from, decoded->to,
                                               *decoded->msg);
          EXPECT_FALSE(again.empty());
        }) << name;
      }
    }
  }
  // Sanity: the corpus actually exercised the rejection path.
  EXPECT_GT(malformed, 0u);
  EXPECT_GT(malformed + survived, 0u);
}

TEST(CodecFuzz, VersionAndTagRejection) {
  std::vector<std::uint8_t> bytes =
      WireCodec::encode_frame(0, client_id(0), ReadReq(7, "k", 1, 0));
  // Wrong version byte.
  auto bad_version = bytes;
  bad_version[4] = kWireVersion + 1;
  EXPECT_FALSE(
      WireCodec::decode_frame(bad_version.data() + 4, bad_version.size() - 4));
  // Unknown type tag.
  auto bad_tag = bytes;
  bad_tag[5] = 0xEE;
  EXPECT_FALSE(WireCodec::decode_frame(bad_tag.data() + 4, bad_tag.size() - 4));
  // Trailing garbage after a complete payload.
  auto trailing = bytes;
  trailing.push_back(0x00);
  EXPECT_FALSE(
      WireCodec::decode_frame(trailing.data() + 4, trailing.size() - 4));
  // Empty body.
  EXPECT_FALSE(WireCodec::decode_frame(bytes.data() + 4, 0));
}

TEST(CodecFuzz, AbsurdContainerCountRejectedWithoutAllocating) {
  // Hand-craft a KeysAck whose key count claims 2^32-1 entries in a
  // 30-byte frame: the decoder must reject it before reserving anything.
  std::vector<std::uint8_t> body;
  auto le32 = [&body](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  body.push_back(kWireVersion);
  body.push_back(static_cast<std::uint8_t>(WireType::kKeysAck));
  le32(0);                     // from
  le32(client_id(0));          // to
  for (int i = 0; i < 8; ++i) body.push_back(0);  // op_id
  le32(1);                     // seq
  le32(0xFFFFFFFFu);           // key count — absurd
  EXPECT_FALSE(WireCodec::decode_frame(body.data(), body.size()));
}

TEST(CodecFuzz, OverDeepNestingRejectedBothDirections) {
  // Encoding: an RbMsg chain deeper than kMaxNestingDepth throws.
  MsgPtr msg = std::make_shared<PingMsg>(1);
  for (int i = 0; i < kMaxNestingDepth + 1; ++i) {
    msg = std::make_shared<RbMsg>(0, i, msg);
  }
  EXPECT_THROW(WireCodec::encode_frame(0, 1, *msg), std::invalid_argument);

  // Decoding: hand-crafted bytes nesting RbMsg past the cap are
  // malformed, not a stack overflow.
  std::vector<std::uint8_t> inner;  // PingMsg body
  for (int i = 0; i < 8; ++i) inner.push_back(0);
  std::uint8_t inner_tag = static_cast<std::uint8_t>(WireType::kPing);
  for (int level = 0; level < kMaxNestingDepth + 1; ++level) {
    std::vector<std::uint8_t> rb;  // RbMsg body: origin, seq, nested msg
    auto le32 = [&rb](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) rb.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    le32(0);                                  // origin
    for (int i = 0; i < 8; ++i) rb.push_back(0);  // seq
    rb.push_back(inner_tag);                  // nested tag
    le32(static_cast<std::uint32_t>(inner.size()));
    rb.insert(rb.end(), inner.begin(), inner.end());
    inner = std::move(rb);
    inner_tag = static_cast<std::uint8_t>(WireType::kRb);
  }
  std::vector<std::uint8_t> body;
  auto le32 = [&body](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  body.push_back(kWireVersion);
  body.push_back(inner_tag);
  le32(0);  // from
  le32(1);  // to
  body.insert(body.end(), inner.begin(), inner.end());
  EXPECT_FALSE(WireCodec::decode_frame(body.data(), body.size()));
}

// --- lifetime: copy, never alias -------------------------------------------

TEST(CodecFuzz, EncodedFrameOutlivesSenderOwnedMessage) {
  // The in-process runtimes share messages as MsgPtr; on the wire the
  // frame must be self-contained. Encode, destroy the message (and the
  // shared change set it referenced), then decode from the frame alone.
  std::vector<std::uint8_t> bytes;
  {
    auto changes = std::make_shared<const ChangeSet>([] {
      ChangeSet cs;
      cs.add(Change(0, kFirstCounter, 1, Weight(1, 3)));
      cs.add(Change(2, kFirstCounter, 0, Weight(-1, 3)));
      return cs;
    }());
    auto ack = std::make_shared<ReadAck>(
        42, TaggedValue{Tag{7, client_id(1)}, "sender-owned-value"}, changes, 3);
    std::vector<MsgPtr> frames{ack, std::make_shared<WriteAck>(43, changes, 4)};
    BatchReply reply(std::move(frames));
    bytes = WireCodec::encode_frame(2, client_id(1), reply);
  }  // message, frames, and the shared ChangeSet are gone
  auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
  ASSERT_TRUE(decoded.has_value());
  const auto* reply = msg_cast<BatchReply>(*decoded->msg);
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->frames().size(), 2u);
  const auto* ack = msg_cast<ReadAck>(*reply->frames()[0]);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->reg().value, "sender-owned-value");
  ASSERT_NE(ack->changes(), nullptr);
  EXPECT_EQ(ack->changes()->size(), 2u);
}

TEST(CodecFuzz, DecodedMessageNeverAliasesReceiveBuffer) {
  Rng rng(0xA11A5);
  for (const auto& [name, make] : all_makers()) {
    MsgPtr msg = make(rng);
    std::vector<std::uint8_t> bytes =
        WireCodec::encode_frame(1, client_id(2), *msg);
    const std::vector<std::uint8_t> pristine = bytes;

    auto decoded = WireCodec::decode_frame(bytes.data() + 4, bytes.size() - 4);
    ASSERT_TRUE(decoded.has_value()) << name;

    // Scribble over the receive buffer, then FREE it. Any decoded field
    // aliasing it now reads 0xAA garbage (byte mismatch below) or freed
    // memory (ASan report — this test runs in the asan-ubsan CI job).
    std::fill(bytes.begin(), bytes.end(), 0xAA);
    std::vector<std::uint8_t>().swap(bytes);

    std::vector<std::uint8_t> again =
        WireCodec::encode_frame(decoded->from, decoded->to, *decoded->msg);
    EXPECT_EQ(again, pristine) << name << ": decoded message aliased buffer";
  }
}

}  // namespace
}  // namespace wrs::net
