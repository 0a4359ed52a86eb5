#include "storage/dynamic_node.h"

#include "common/logging.h"
#include "runtime/msg_pool.h"

namespace wrs {

DynamicStorageNode::DynamicStorageNode(Env& env, ProcessId self,
                                       const SystemConfig& config)
    : self_(self),
      reassign_(env, self, config),
      refresh_client_(env, self, config),
      server_(env, self, [this] { return changes_snapshot(); },
              config.shard) {
  // Algorithm 4 line 9: before a weight gain is applied, refresh the
  // register by performing a full atomic read. Gains arriving while an
  // earlier refresh runs queue up; each finished refresh starts one more
  // for everything queued behind it.
  reassign_.set_refresh_hook([this](std::function<void()> done) {
    pending_refreshes_.push_back(std::move(done));
    drain_pending_refreshes();
  });
}

void DynamicStorageNode::drain_pending_refreshes() {
  if (pending_refreshes_.empty() || refreshing_) return;
  refreshing_ = true;
  // Every gain queued so far arrived before this refresh begins, so this
  // one refresh is as fresh as a refresh of its own would be for each.
  std::function<void()> done = [waiting = std::move(pending_refreshes_)] {
    for (const std::function<void()>& fn : waiting) fn();
  };
  pending_refreshes_.clear();
  // Multi-register refresh: a weight gain changes which sets of servers
  // form quorums, so EVERY register this node serves must be as fresh as
  // a pre-gain quorum before the gain applies. Key discovery itself goes
  // through a weighted quorum (list_keys), which intersects every quorum
  // a past write used. The client first learns this node's own set, as
  // this node's reply would teach it, so gains applied since its last
  // refresh do not restart the key discovery.
  refresh_client_.merge_own_server_changes(changes_snapshot());
  refresh_client_.list_keys([this, done](std::vector<RegisterKey> keys) {
    refresh_keys(std::move(keys), std::move(done));
  });
}

void DynamicStorageNode::refresh_keys(std::vector<RegisterKey> keys,
                                      std::function<void()> done) {
  if (keys.empty()) {
    refreshing_ = false;
    done();
    drain_pending_refreshes();
    return;
  }
  // The client multiplexes operations, so refresh every register in one
  // pipelined burst (distinct keys never serialize) instead of one atomic
  // read per round trip.
  auto remaining = std::make_shared<std::size_t>(keys.size());
  auto when_done = std::make_shared<std::function<void()>>(std::move(done));
  for (const RegisterKey& key : keys) {
    refresh_client_.read(key, [this, key, remaining,
                               when_done](const TaggedValue& tv) {
      // Install the fresh value locally (the ABD read's write-back
      // already pushed it to a quorum; this keeps our own replica
      // current too).
      if (server_.reg(key).tag < tv.tag) server_.set_reg(tv, key);
      if (--*remaining == 0) {
        refreshing_ = false;
        (*when_done)();
        drain_pending_refreshes();
      }
    });
  }
}

ChangeSetPtr DynamicStorageNode::changes_snapshot() {
  // The set only grows, so an unchanged size means unchanged contents
  // and every reply since the last growth shares one pointer.
  const ChangeSet& live = reassign_.changes();
  if (!cached_snapshot_ || cached_snapshot_->size() != live.size()) {
    cached_snapshot_ = make_pooled<ChangeSet>(live);
  }
  return cached_snapshot_;
}

bool DynamicStorageNode::handle(ProcessId from, const Message& msg) {
  if (reassign_.handle(from, msg)) return true;
  if (server_.handle(from, msg)) return true;
  if (refresh_client_.handle(from, msg)) return true;
  return false;
}

void DynamicStorageNode::on_message(ProcessId from, const Message& msg) {
  if (!handle(from, msg)) {
    WRS_DEBUG("DynamicStorageNode " << process_name(self_)
                                    << ": unhandled message "
                                    << msg.type_name());
  }
}

}  // namespace wrs
