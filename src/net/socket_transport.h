// Nonblocking epoll reactor: the byte-moving half of the socket runtime
// (SocketEnv in src/runtime/socket_env.h is the Env-semantics half).
//
// One loop thread owns an epoll instance, every socket, every
// per-connection read/write buffer, and a deadline min-heap. The public
// API is thread-safe: calls enqueue typed command records onto the loop
// through an eventfd-woken ring, so all connection state is
// single-threaded by construction (the same serialize-everything trick
// the rest of the library plays per process).
//
// The command plane is engineered for zero steady-state allocations
// (bench/runtime_overhead gates this end to end with SocketEnv):
//
//  * Peers are INTERNED once (intern_peer → small dense PeerId); the
//    per-send path never builds an address string or hashes a map key.
//  * Commands are a tagged struct (send/post/timer/close) in a pair of
//    grow-only rings swapped under the lock — producers fill one while
//    the loop drains the other, and both buffers stay warm forever
//    (unlike the old swap-into-empty-vector, which reallocated every
//    batch). Callables ride as small-buffer Tasks, not std::functions.
//  * Frames are arena `Segment`s (net/encode_arena.h): the sender's
//    encode is the only copy; per-connection write queues are rings of
//    segments flushed with scatter-gather sendmsg().
//  * Timers carry Tasks plus an opaque gate token: at fire time the
//    owner's `timer_gate` callback decides whether the task still runs
//    (SocketEnv uses it for crash semantics without wrapping the Task
//    in a second closure).
//
//  * Listener: nonblocking accept4 loop; TCP (SO_REUSEADDR, port 0 =
//    ephemeral, actual address readable after listen()) and Unix-domain
//    stream sockets (stale path unlinked before bind).
//  * Outbound connections: nonblocking connect (EINPROGRESS ->
//    EPOLLOUT -> SO_ERROR), keyed by PeerId. Frames sent while a peer
//    is down queue up (bounded) and flush on connect; failed dials
//    retry with exponential backoff.
//  * Framing: each frame starts with a u32 length prefix (see
//    wire_format.h). Partial reads accumulate per connection; partial
//    writes keep their queue position and EPOLLOUT re-arms. A length
//    prefix over kMaxFrameBodyBytes closes the connection as malformed.
//
// This layer knows nothing about message types or process ids — it
// moves length-prefixed byte frames between interned peers and hands
// complete frames (and connection lifecycle events) to callbacks that
// run on the loop thread.
#pragma once
#ifdef __linux__

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "net/encode_arena.h"
#include "net/socket_addr.h"
#include "runtime/task.h"

namespace wrs::net {

class SocketTransport {
 public:
  /// Identifies one live connection (never reused within a transport).
  using ConnId = std::uint64_t;
  static constexpr ConnId kNoConn = 0;

  /// Dense id of an interned peer address (stable for the transport's
  /// lifetime).
  using PeerId = std::uint32_t;
  static constexpr PeerId kNoPeer = 0xffffffffu;

  /// All callbacks run on the loop thread.
  struct Events {
    /// One complete frame BODY (length prefix stripped).
    std::function<void(ConnId, const std::uint8_t* body, std::size_t len)>
        on_frame;
    /// Connection died (EOF, error, malformed frame, forced close).
    std::function<void(ConnId)> on_conn_closed;
    /// Gate for timers scheduled with a nonzero token: return false to
    /// drop the task at fire time (crashed-process semantics). Absent =
    /// every timer runs.
    std::function<bool(std::uint64_t token)> timer_gate;
  };

  SocketTransport();
  ~SocketTransport();

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Must be set before start().
  void set_events(Events events);

  /// Binds and listens; call before start(). With a TCP port of 0 the
  /// kernel picks one — listen_addr() reports the actual address.
  /// Throws std::runtime_error on bind/listen failure.
  void listen(const SocketAddr& addr);
  std::optional<SocketAddr> listen_addr() const;

  /// Spawns the loop thread. Idempotent stop(); the destructor stops too.
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- frame output (thread-safe) -----------------------------------------
  /// Interns `addr` once and returns its dense id; the same address
  /// always maps to the same id. Cheap enough to call on a warm path
  /// but meant to be cached by the caller (SocketEnv caches per route).
  PeerId intern_peer(const SocketAddr& addr);

  /// Queues one frame (complete wire bytes, length prefix included) to
  /// an interned peer, dialing if no connection exists.
  void send_to_peer(PeerId peer, Segment frame);

  /// Queues one frame onto an existing connection (how servers answer
  /// clients that dialed in); silently dropped (and counted) when the
  /// connection is gone.
  void send_on_conn(ConnId conn, Segment frame);

  /// Tears down any connection to `peer` and drops its queued frames.
  /// The peer stays dialable — a later send_to_peer reconnects.
  void close_peer(PeerId peer);
  /// Tears down one connection (inbound or outbound).
  void close_conn(ConnId conn);

  // --- loop-thread execution (thread-safe) --------------------------------
  /// Runs `fn` on the loop thread (soon; FIFO with sends).
  void post(wrs::Task fn);
  /// Runs `fn` on the loop thread after `delay`. A nonzero `token` is
  /// passed to Events::timer_gate at fire time; 0 = ungated.
  void schedule_after(TimeNs delay, std::uint64_t token, wrs::Task fn);
  void schedule_after(TimeNs delay, wrs::Task fn) {
    schedule_after(delay, 0, std::move(fn));
  }

  // --- counters (atomic; readable from any thread) ------------------------
  std::uint64_t conns_opened() const { return conns_opened_.load(); }
  std::uint64_t conns_closed() const { return conns_closed_.load(); }
  std::uint64_t dials_failed() const { return dials_failed_.load(); }
  std::uint64_t frames_dropped() const { return frames_dropped_.load(); }
  std::uint64_t oversize_frames() const { return oversize_frames_.load(); }

 private:
  struct Conn {
    ConnId id = kNoConn;
    int fd = -1;
    bool connecting = false;       // nonblocking connect in flight
    PeerId peer = kNoPeer;         // outbound only (kNoPeer for inbound)
    std::vector<std::uint8_t> rbuf;
    std::size_t rpos = 0;          // parsed-up-to offset into rbuf
    wrs::GrowRing<Segment> wq;
    std::size_t woff = 0;          // bytes of wq front already written
    bool want_write = false;       // EPOLLOUT currently armed
  };

  struct Peer {
    SocketAddr addr;
    ConnId conn = kNoConn;
    wrs::GrowRing<Segment> pending;  // queued while down (bounded)
    TimeNs backoff = 0;            // current redial backoff (0 = none yet)
    bool dial_timer_armed = false;
  };

  /// One cross-thread command. A tagged struct in a reused ring instead
  /// of a heap-allocated closure per call: the send path moves a
  /// Segment and two ints, posts/timers move a small-buffer Task.
  struct Cmd {
    enum class Kind : std::uint8_t {
      kNone,
      kTask,
      kTimer,
      kSendPeer,
      kSendConn,
      kClosePeer,
      kCloseConn,
    };
    Kind kind = Kind::kNone;
    wrs::Task fn;              // kTask, kTimer
    TimeNs at = 0;             // kTimer: absolute deadline
    std::uint64_t token = 0;   // kTimer: gate token
    PeerId peer = kNoPeer;     // kSendPeer, kClosePeer
    ConnId conn = kNoConn;     // kSendConn, kCloseConn
    Segment seg;               // kSendPeer, kSendConn
  };

  // Loop internals (loop thread only).
  void loop();
  void drain_commands();
  void dispatch(Cmd cmd);
  void run_due_timers(TimeNs now);
  TimeNs mono_now() const;
  Conn* find_conn(ConnId id);
  Peer* peer(PeerId id);
  void post_cmd(Cmd cmd);
  void do_send_to_peer(PeerId id, Segment frame);
  void do_send_on_conn(ConnId conn, Segment frame);
  void do_close_peer(PeerId id);
  void dial(Peer& p, PeerId id);
  void arm_redial(PeerId id);
  void on_connect_ready(Conn& conn);
  void accept_ready();
  void read_ready(Conn& conn);
  void write_ready(Conn& conn);
  bool flush_writes(Conn& conn);   // false = connection died
  void parse_frames(Conn& conn);
  void enqueue_frame(Conn& conn, Segment frame);
  void close_conn_internal(ConnId id, bool notify);
  void update_epoll(Conn& conn);
  void wake();

  Events events_;

  // Command rings (any thread -> loop thread). Producers push into
  // commands_ under cmd_mu_; the loop swaps it with drain_ (O(1)) and
  // dispatches lock-free. The buffers ping-pong, so both stay at their
  // high-water capacity — steady state never touches the allocator.
  std::mutex cmd_mu_;
  wrs::GrowRing<Cmd> commands_;
  wrs::GrowRing<Cmd> drain_;  // loop thread only

  // Interned peers. The vector only grows and elements are unique_ptr,
  // so a Peer* stays valid forever; intern_mu_ guards the vector/index
  // themselves (interning is rare, the lock is uncontended).
  mutable std::mutex intern_mu_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::map<std::string, PeerId> peer_index_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd
  int listen_fd_ = -1;
  std::optional<SocketAddr> listen_addr_;
  std::string unix_path_;  // unlinked on stop

  std::map<ConnId, std::unique_ptr<Conn>> conns_;
  // Ids 0..15 are reserved for non-connection epoll entries (the wake
  // eventfd and the listener); see kFirstConnId in the .cpp.
  ConnId next_conn_id_ = 16;

  wrs::TaskHeap timers_;  // tag: the timer's token (0 = ungated)

  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> conns_opened_{0};
  std::atomic<std::uint64_t> conns_closed_{0};
  std::atomic<std::uint64_t> dials_failed_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> oversize_frames_{0};
};

}  // namespace wrs::net

#endif  // __linux__
