// A full dynamic-weighted storage server: the composition described in
// Section VII.
//
//   DynamicStorageNode = ReassignNode (Algorithms 3+4)
//                      + AbdServer    (Algorithm 6)
//                      + a private AbdClient used for the register
//                        refresh that Algorithm 4 line 9 performs before
//                        a weight gain is applied.
//
// All three share this Process's mailbox; on_message dispatches to each
// component in turn. ABD replies from this node's AbdServer piggyback the
// ReassignNode's current change set (one shared copy per set size: a
// grow-only set's size is its version, so snapshots are O(1) between
// reassignments).
#pragma once

#include <memory>

#include "core/reassign_node.h"
#include "shard/shard_router.h"
#include "storage/abd_client.h"
#include "storage/abd_server.h"

namespace wrs {

class DynamicStorageNode : public Process {
 public:
  DynamicStorageNode(Env& env, ProcessId self, const SystemConfig& config);

  ReassignNode& reassign() { return reassign_; }
  AbdServer& server() { return server_; }

  /// The node's own client endpoint (a server may also read/write the
  /// register, e.g. for the refresh; applications normally use external
  /// StorageClient processes instead).
  AbdClient& client() { return refresh_client_; }

  void on_message(ProcessId from, const Message& msg) override;

  /// Component-style dispatch (for composition, e.g. AdaptiveNode);
  /// true iff the message belonged to one of this node's components.
  bool handle(ProcessId from, const Message& msg);

  ProcessId id() const { return self_; }

 private:
  ChangeSetPtr changes_snapshot();
  void drain_pending_refreshes();
  void refresh_keys(std::vector<RegisterKey> keys,
                    std::function<void()> done);

  ProcessId self_;
  ReassignNode reassign_;
  AbdClient refresh_client_;
  AbdServer server_;
  std::vector<std::function<void()>> pending_refreshes_;
  bool refreshing_ = false;  // a refresh runs on refresh_client_

  ChangeSetPtr cached_snapshot_;  // reassign_.changes() at its current size
};

/// A standalone storage client process (reader or writer, member of Pi).
/// Runs over a ShardRouter: a one-shard map IS the paper's client; a
/// sharded map routes every operation by key.
class StorageClient : public Process {
 public:
  StorageClient(Env& env, ProcessId self, const SystemConfig& config)
      : StorageClient(env, self, ShardMap::single(config)) {}

  StorageClient(Env& env, ProcessId self, ShardMap map)
      : self_(self), router_(env, self, std::move(map)) {}

  ShardRouter& router() { return router_; }
  ProcessId id() const { return self_; }

  void on_message(ProcessId from, const Message& msg) override {
    router_.handle(from, msg);
  }

 private:
  ProcessId self_;
  ShardRouter router_;
};

}  // namespace wrs
