// The body of a `wrs-node` OS process: one SocketEnv hosting the n
// DynamicStorageNodes of ONE replica group (shard), serving clients and
// sibling processes over real sockets.
//
// Used three ways:
//  * tools/wrs_node.cpp wraps it in a main() with flag parsing —
//    the manually deployable binary;
//  * spawn_node_group() forks it as a child process (no exec), which is
//    how examples/socket_demo and bench/socket_calibration stand up
//    multi-process deployments programmatically;
//  * tests run it in-process against a stop flag.
//
// The ready protocol: after the listener is bound (resolving port 0 to
// the actual ephemeral port), the runner writes one line
// "<addr>\n" (e.g. "tcp:127.0.0.1:40213\n") to `ready_fd` and closes
// it. Parents read the line to learn where the group landed; anything
// written before the line is not part of the protocol.
//
// IMPORTANT (fork discipline): spawn_node_group must be called BEFORE
// the parent creates any threads of its own (its SocketEnv, a Cluster,
// ...) — fork() only duplicates the calling thread, so forking a
// threaded parent leaves mutexes locked by nobody in the child. Spawn
// every node group first, then build the client side.
#pragma once
#ifdef __linux__

#include <atomic>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common/types.h"

namespace wrs::deploy {

struct NodeOptions {
  std::uint32_t shard = 0;             ///< which replica group this is
  std::uint32_t num_shards = 1;        ///< total groups in the deployment
  std::uint32_t servers_per_shard = 3;
  std::uint32_t faults = 1;            ///< per-group fault threshold f
  std::string listen = "tcp:127.0.0.1:0";
  TimeNs service_time = 0;             ///< modeled per-request service time
  TimeNs retry = 0;                    ///< ABD retransmission interval
  TimeNs anti_entropy = 0;             ///< <SYNC> gossip period
  std::uint64_t seed = 1;
  int ready_fd = -1;                   ///< ready-line fd (-1 = stdout)
};

/// Runs the node until `*stop` becomes true (checked a few times per
/// second; null = run forever). Returns a process exit code.
int run_node(const NodeOptions& opts, const std::atomic<bool>* stop);

/// Parses --shard=, --num-shards=, --servers=, --faults=, --listen=,
/// --service-time-us=, --retry-ms=, --anti-entropy-ms=, --seed=,
/// and --ready-fd=. Throws std::invalid_argument naming any unknown
/// flag, a flag without "=value", or a malformed or out-of-range number.
NodeOptions parse_node_flags(int argc, const char* const* argv);

/// One forked node-group process.
struct SpawnedNode {
  pid_t pid = -1;
  std::string addr;  ///< actual listen address from the ready line
};

/// Forks a child running run_node(opts) (no exec) and blocks until its
/// ready line arrives. See the fork discipline note above. Throws
/// std::runtime_error if the child dies before reporting ready.
SpawnedNode spawn_node_group(NodeOptions opts);

/// SIGTERM + waitpid. Safe on an already-dead child.
void stop_node_group(const SpawnedNode& node);

/// SIGKILL + waitpid — the kill-9 liveness scenario.
void kill_node_group(const SpawnedNode& node);

}  // namespace wrs::deploy

#endif  // __linux__
