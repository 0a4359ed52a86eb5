// Env over real sockets: every send() is WireCodec-serialized into a
// length-prefixed frame and handed to a SocketTransport epoll reactor
// (src/net/socket_transport.h); every delivery is a decode of bytes that
// actually crossed the kernel. AbdClient/AbdServer/ReassignNode run
// byte-for-byte unchanged — they only see the Env interface.
//
// Deployment model: one SocketEnv per OS process, hosting that process's
// registered wrs processes (e.g. the n servers of one replica group).
// Remote processes are reached through
//  * static routes (add_route(pid, addr)) — how clients find servers and
//    how node binaries find each other from config, and
//  * learned routes — frames carry the sender's ProcessId, so the env
//    remembers which connection a pid last arrived on and answers on it
//    (how servers reply to clients that dialed in, without the client
//    needing a listener).
//
// Handlers run on the transport's loop thread: one thread per OS process
// serializes everything, which trivially satisfies the per-process
// serialization contract of Env. The Await<T> client path (condition-
// variable blocking, runtime/await.h) therefore works unchanged.
//
// Fault plane on real connections: decide() applies at send time
// (drop/duplicate, same as ThreadEnv) and is_cut() filters again at
// delivery. Additionally a periodic poll TEARS DOWN the underlying
// connection to any peer whose pid pairs are all cut both ways, so
// Cluster::isolate() exercises real TCP teardown + reconnect-with-backoff
// instead of a polite in-memory filter (fault_teardowns() counts these).
//
// A message between two processes of the same env goes out through the
// env's own listener and back in: every protocol message makes a real
// kernel round trip, so a single-process deployment (Cluster's
// Runtime::kSocket) exercises the same wire path as the multi-process
// one.
#pragma once
#ifdef __linux__

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/socket_addr.h"
#include "net/socket_transport.h"
#include "runtime/env.h"
#include "runtime/latency_model.h"

namespace wrs {

class SocketEnv : public Env {
 public:
  struct Options {
    /// Where this env accepts connections (TCP port 0 = ephemeral; read
    /// the actual address back with listen_addr()).
    net::SocketAddr listen;
    /// Optional extra delivery delay (WAN emulation); null = none.
    std::shared_ptr<LatencyModel> latency;
    std::uint64_t seed = 1;
  };

  explicit SocketEnv(Options opts);
  ~SocketEnv() override;

  SocketEnv(const SocketEnv&) = delete;
  SocketEnv& operator=(const SocketEnv&) = delete;

  // --- Env interface -------------------------------------------------------
  TimeNs now() const override;
  /// Serializes and ships `msg` — encoded once into a thread-local
  /// arena (zero heap allocations per message in steady state; the
  /// runtime_overhead bench gates this). Throws std::invalid_argument
  /// for message types outside the wire protocol (WireCodec::encodable).
  /// A message to a pid with neither a local handler, a static route,
  /// nor a learned connection is dropped and counted
  /// ("msgs.unroutable").
  void send(ProcessId from, ProcessId to, MsgPtr msg) override;
  void schedule(ProcessId pid, TimeNs delay, Task fn) override;
  /// Allowed before or after start(); after, on_start is delivered
  /// immediately (mid-run restart scenarios).
  void register_process(ProcessId pid, Process* process) override;
  void crash(ProcessId pid) override;
  bool is_crashed(ProcessId pid) const override;
  // Fault verdicts draw from the env's seeded rng under mu_.

  // --- socket-specific -----------------------------------------------------
  /// Static route to a remote pid. May be called any time.
  void add_route(ProcessId pid, const net::SocketAddr& addr);

  /// Binds the listener, starts the loop thread, delivers on_start to
  /// everything registered so far.
  void start() override;
  /// Abrupt stop: closes every socket with no goodbye (kill -9 semantics
  /// for the peers). Idempotent; the destructor stops too.
  void stop() override;
  bool started() const { return started_; }

  /// Actual listen address (resolves port 0). Only valid after start().
  net::SocketAddr listen_addr() const;

  /// Connections torn down by the fault poll (isolate() on real sockets).
  std::uint64_t fault_teardowns() const { return fault_teardowns_.load(); }

  /// Transport-level counters for tests (conns opened/closed, drops).
  const net::SocketTransport& transport() const { return transport_; }

 private:
  void on_frame(net::SocketTransport::ConnId conn, const std::uint8_t* body,
                std::size_t len);
  void on_conn_closed(net::SocketTransport::ConnId conn);
  void deliver(ProcessId from, ProcessId to, const MsgPtr& msg);
  void fault_poll();

  Options opts_;
  net::SocketTransport transport_;
  std::chrono::steady_clock::time_point epoch_;
  net::SocketTransport::PeerId self_peer_ =
      net::SocketTransport::kNoPeer;  // local destinations (after start)
  net::SocketAddr self_addr_;

  mutable std::mutex mu_;  // guards everything below
  std::map<ProcessId, Process*> local_;
  std::set<ProcessId> crashed_;
  std::map<ProcessId, net::SocketAddr> routes_;
  // Route targets interned once at add_route: the per-send path looks
  // up a dense PeerId instead of building an address string.
  std::map<ProcessId, net::SocketTransport::PeerId> route_peers_;
  std::map<ProcessId, net::SocketTransport::ConnId> learned_;
  Rng rng_;  // fault verdicts and latency draws
  bool started_ = false;

  std::atomic<std::uint64_t> fault_teardowns_{0};
};

}  // namespace wrs

#endif  // __linux__
