#ifdef __linux__

#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "net/wire_format.h"

namespace wrs::net {
namespace {

// epoll user-data ids below the first connection id are reserved
// (next_conn_id_ starts at 16 so conn ids never collide with these).
constexpr std::uint64_t kWakeId = 0;
constexpr std::uint64_t kListenId = 1;

constexpr TimeNs kDialBackoffMin = ms(20);
constexpr TimeNs kDialBackoffMax = ms(500);

/// Frames a disconnected peer may queue before new ones are dropped
/// (the bound a real network's socket buffers would impose).
constexpr std::size_t kMaxPendingFrames = 8192;

/// Segments per scatter-gather sendmsg() burst.
constexpr std::size_t kMaxIov = 64;

int make_socket(const SocketAddr& addr) {
  int domain = addr.kind == SocketAddr::Kind::kUnix ? AF_UNIX : AF_INET;
  int fd = ::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  if (addr.kind == SocketAddr::Kind::kTcp) {
    int one = 1;
    // Protocol frames are small and latency-sensitive.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

/// Fills a sockaddr for `addr`; returns its length.
socklen_t fill_sockaddr(const SocketAddr& addr, sockaddr_storage* out) {
  std::memset(out, 0, sizeof(*out));
  if (addr.kind == SocketAddr::Kind::kUnix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(out);
    sun->sun_family = AF_UNIX;
    std::strncpy(sun->sun_path, addr.path.c_str(), sizeof(sun->sun_path) - 1);
    return sizeof(sockaddr_un);
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(out);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.host.c_str(), &sin->sin_addr) != 1) {
    throw std::runtime_error("SocketTransport: bad IPv4 host \"" + addr.host +
                             "\"");
  }
  return sizeof(sockaddr_in);
}

}  // namespace

SocketTransport::SocketTransport() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

SocketTransport::~SocketTransport() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void SocketTransport::set_events(Events events) { events_ = std::move(events); }

void SocketTransport::listen(const SocketAddr& addr) {
  if (listen_fd_ >= 0) {
    throw std::logic_error("SocketTransport: listen() called twice");
  }
  int fd = make_socket(addr);
  if (addr.kind == SocketAddr::Kind::kTcp) {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    // A previous process's stale socket file blocks bind.
    ::unlink(addr.path.c_str());
  }
  sockaddr_storage ss;
  socklen_t len = fill_sockaddr(addr, &ss);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&ss), len) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error("SocketTransport: bind(" + addr.str() +
                             "): " + std::strerror(err));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error("SocketTransport: listen(" + addr.str() +
                             "): " + std::strerror(err));
  }
  SocketAddr actual = addr;
  if (addr.kind == SocketAddr::Kind::kTcp) {
    sockaddr_in sin{};
    socklen_t sl = sizeof(sin);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &sl) == 0) {
      actual.port = ntohs(sin.sin_port);
    }
  } else {
    unix_path_ = addr.path;
  }
  listen_fd_ = fd;
  listen_addr_ = actual;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
}

std::optional<SocketAddr> SocketTransport::listen_addr() const {
  return listen_addr_;
}

void SocketTransport::start() {
  if (running_.load()) return;
  stopping_.store(false);
  running_.store(true);
  loop_thread_ = std::thread([this] { loop(); });
}

void SocketTransport::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  running_.store(false);
  // Abrupt teardown: no goodbye protocol, exactly like a killed process.
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  std::lock_guard lock(intern_mu_);
  peers_.clear();
  peer_index_.clear();
}

// --- thread-safe entry points ----------------------------------------------

SocketTransport::PeerId SocketTransport::intern_peer(const SocketAddr& addr) {
  std::string key = addr.str();
  std::lock_guard lock(intern_mu_);
  auto [it, inserted] = peer_index_.try_emplace(std::move(key), 0);
  if (inserted) {
    it->second = static_cast<PeerId>(peers_.size());
    auto p = std::make_unique<Peer>();
    p->addr = addr;
    peers_.push_back(std::move(p));
  }
  return it->second;
}

SocketTransport::Peer* SocketTransport::peer(PeerId id) {
  std::lock_guard lock(intern_mu_);
  return id < peers_.size() ? peers_[id].get() : nullptr;
}

void SocketTransport::post_cmd(Cmd cmd) {
  {
    std::lock_guard lock(cmd_mu_);
    commands_.push(std::move(cmd));
  }
  wake();
}

void SocketTransport::send_to_peer(PeerId peer_id, Segment frame) {
  if (std::this_thread::get_id() == loop_thread_.get_id()) {
    do_send_to_peer(peer_id, std::move(frame));
    return;
  }
  Cmd cmd;
  cmd.kind = Cmd::Kind::kSendPeer;
  cmd.peer = peer_id;
  cmd.seg = std::move(frame);
  post_cmd(std::move(cmd));
}

void SocketTransport::send_on_conn(ConnId conn, Segment frame) {
  if (std::this_thread::get_id() == loop_thread_.get_id()) {
    do_send_on_conn(conn, std::move(frame));
    return;
  }
  Cmd cmd;
  cmd.kind = Cmd::Kind::kSendConn;
  cmd.conn = conn;
  cmd.seg = std::move(frame);
  post_cmd(std::move(cmd));
}

void SocketTransport::close_peer(PeerId peer_id) {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kClosePeer;
  cmd.peer = peer_id;
  post_cmd(std::move(cmd));
}

void SocketTransport::close_conn(ConnId conn) {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kCloseConn;
  cmd.conn = conn;
  post_cmd(std::move(cmd));
}

void SocketTransport::post(wrs::Task fn) {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kTask;
  cmd.fn = std::move(fn);
  post_cmd(std::move(cmd));
}

void SocketTransport::schedule_after(TimeNs delay, std::uint64_t token,
                                     wrs::Task fn) {
  if (delay < 0) delay = 0;
  TimeNs at = mono_now() + delay;
  if (std::this_thread::get_id() == loop_thread_.get_id()) {
    timers_.push(at, token, std::move(fn));
    return;
  }
  Cmd cmd;
  cmd.kind = Cmd::Kind::kTimer;
  cmd.at = at;
  cmd.token = token;
  cmd.fn = std::move(fn);
  post_cmd(std::move(cmd));
}

void SocketTransport::wake() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

TimeNs SocketTransport::mono_now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- loop -------------------------------------------------------------------

void SocketTransport::loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    drain_commands();
    TimeNs now = mono_now();
    run_due_timers(now);

    // Sleep until the next timer (ns precision — the M/D/1 service-time
    // model schedules in the ~100us range) or the next io/wake event.
    timespec ts{};
    timespec* tsp = nullptr;
    bool more_cmds;
    {
      std::lock_guard lock(cmd_mu_);
      more_cmds = !commands_.empty();
    }
    if (more_cmds) {
      ts.tv_sec = 0;
      ts.tv_nsec = 0;
      tsp = &ts;
    } else if (!timers_.empty()) {
      TimeNs delta = timers_.next_at() - mono_now();
      if (delta < 0) delta = 0;
      ts.tv_sec = delta / kNsPerSec;
      ts.tv_nsec = delta % kNsPerSec;
      tsp = &ts;
    }
    int n = ::epoll_pwait2(epoll_fd_, events, kMaxEvents, tsp, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — shutting down
    }
    for (int i = 0; i < n; ++i) {
      std::uint64_t id = events[i].data.u64;
      std::uint32_t mask = events[i].events;
      if (id == kWakeId) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (id == kListenId) {
        accept_ready();
        continue;
      }
      Conn* conn = find_conn(id);
      if (conn == nullptr) continue;  // closed earlier this batch
      if (conn->connecting) {
        if (mask & (EPOLLOUT | EPOLLERR | EPOLLHUP)) on_connect_ready(*conn);
        continue;
      }
      if (mask & (EPOLLERR | EPOLLHUP)) {
        close_conn_internal(id, /*notify=*/true);
        continue;
      }
      if (mask & EPOLLIN) {
        read_ready(*conn);
        if (find_conn(id) == nullptr) continue;
      }
      if (mask & EPOLLOUT) write_ready(*conn);
    }
  }
}

void SocketTransport::drain_commands() {
  {
    std::lock_guard lock(cmd_mu_);
    commands_.swap(drain_);  // O(1); both buffers stay warm forever
  }
  while (!drain_.empty()) dispatch(drain_.pop());
}

void SocketTransport::dispatch(Cmd cmd) {
  switch (cmd.kind) {
    case Cmd::Kind::kNone:
      break;
    case Cmd::Kind::kTask:
      cmd.fn();
      break;
    case Cmd::Kind::kTimer:
      timers_.push(cmd.at, cmd.token, std::move(cmd.fn));
      break;
    case Cmd::Kind::kSendPeer:
      do_send_to_peer(cmd.peer, std::move(cmd.seg));
      break;
    case Cmd::Kind::kSendConn:
      do_send_on_conn(cmd.conn, std::move(cmd.seg));
      break;
    case Cmd::Kind::kClosePeer:
      do_close_peer(cmd.peer);
      break;
    case Cmd::Kind::kCloseConn:
      close_conn_internal(cmd.conn, /*notify=*/true);
      break;
  }
}

void SocketTransport::run_due_timers(TimeNs now) {
  while (!timers_.empty() && timers_.next_at() <= now) {
    wrs::TaskHeap::Entry item = timers_.pop();
    if (item.tag == 0 || !events_.timer_gate ||
        events_.timer_gate(item.tag)) {
      item.fn();
    }
  }
}

SocketTransport::Conn* SocketTransport::find_conn(ConnId id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

// --- outbound path ----------------------------------------------------------

void SocketTransport::do_send_to_peer(PeerId id, Segment frame) {
  Peer* p = peer(id);
  if (p == nullptr) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (p->conn != kNoConn) {
    Conn* conn = find_conn(p->conn);
    if (conn != nullptr && !conn->connecting) {
      enqueue_frame(*conn, std::move(frame));
      return;
    }
  }
  // Not (yet) connected: queue, bounded like a real socket buffer.
  if (p->pending.size() >= kMaxPendingFrames) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  p->pending.push(std::move(frame));
  if (p->conn == kNoConn && !p->dial_timer_armed) dial(*p, id);
}

void SocketTransport::do_send_on_conn(ConnId conn_id, Segment frame) {
  Conn* conn = find_conn(conn_id);
  if (conn == nullptr || conn->connecting) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  enqueue_frame(*conn, std::move(frame));
}

void SocketTransport::do_close_peer(PeerId id) {
  Peer* p = peer(id);
  if (p == nullptr) return;
  ConnId conn = p->conn;
  p->conn = kNoConn;
  p->pending.clear();
  p->backoff = 0;
  if (conn != kNoConn) close_conn_internal(conn, /*notify=*/true);
}

void SocketTransport::dial(Peer& p, PeerId id) {
  int fd = -1;
  try {
    fd = make_socket(p.addr);
  } catch (const std::exception&) {
    dials_failed_.fetch_add(1, std::memory_order_relaxed);
    arm_redial(id);
    return;
  }
  sockaddr_storage ss;
  socklen_t len = fill_sockaddr(p.addr, &ss);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&ss), len);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    dials_failed_.fetch_add(1, std::memory_order_relaxed);
    arm_redial(id);
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->id = next_conn_id_++;
  conn->fd = fd;
  conn->connecting = (rc != 0);
  conn->peer = id;
  p.conn = conn->id;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;  // EPOLLOUT signals connect completion
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  Conn& ref = *conn;
  conns_[conn->id] = std::move(conn);
  if (!ref.connecting) on_connect_ready(ref);
}

void SocketTransport::arm_redial(PeerId id) {
  Peer* p = peer(id);
  if (p == nullptr || p->dial_timer_armed) return;
  p->backoff = p->backoff == 0 ? kDialBackoffMin
                               : std::min(p->backoff * 2, kDialBackoffMax);
  p->dial_timer_armed = true;
  schedule_after(p->backoff, [this, id] {
    Peer* p2 = peer(id);
    if (p2 == nullptr) return;
    p2->dial_timer_armed = false;
    if (p2->conn == kNoConn && !p2->pending.empty()) dial(*p2, id);
  });
}

void SocketTransport::on_connect_ready(Conn& conn) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (conn.connecting) {
    ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  }
  PeerId id = conn.peer;
  if (err != 0) {
    dials_failed_.fetch_add(1, std::memory_order_relaxed);
    close_conn_internal(conn.id, /*notify=*/false);
    arm_redial(id);
    return;
  }
  conn.connecting = false;
  conns_opened_.fetch_add(1, std::memory_order_relaxed);
  Peer* p = peer(id);
  if (p != nullptr) {
    p->backoff = 0;
    while (!p->pending.empty()) conn.wq.push(p->pending.pop());
  }
  if (!flush_writes(conn)) return;
  update_epoll(conn);
}

// --- inbound path -----------------------------------------------------------

void SocketTransport::accept_ready() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error
    if (listen_addr_ && listen_addr_->kind == SocketAddr::Kind::kTcp) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conns_opened_.fetch_add(1, std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[conn->id] = std::move(conn);
  }
}

void SocketTransport::read_ready(Conn& conn) {
  std::uint8_t chunk[64 * 1024];
  while (true) {
    ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      // Grow geometrically, starting at two full reads: compaction
      // empties rbuf but keeps its capacity, and a plain insert would
      // reallocate to exactly the new size every time the largest
      // backlog so far is exceeded.
      const std::size_t need = conn.rbuf.size() + static_cast<std::size_t>(n);
      if (need > conn.rbuf.capacity()) {
        conn.rbuf.reserve(
            std::max({need, 2 * conn.rbuf.capacity(), 2 * sizeof(chunk)}));
      }
      conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + n);
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {  // EOF
      close_conn_internal(conn.id, /*notify=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn_internal(conn.id, /*notify=*/true);
    return;
  }
  parse_frames(conn);
}

void SocketTransport::parse_frames(Conn& conn) {
  ConnId id = conn.id;
  while (true) {
    std::size_t avail = conn.rbuf.size() - conn.rpos;
    if (avail < 4) break;
    const std::uint8_t* p = conn.rbuf.data() + conn.rpos;
    std::uint32_t body_len = 0;
    for (int i = 0; i < 4; ++i) body_len |= std::uint32_t{p[i]} << (8 * i);
    if (body_len > kMaxFrameBodyBytes) {
      // An absurd length prefix means the stream is garbage (or hostile);
      // there is no way to resynchronize a length-prefixed stream.
      oversize_frames_.fetch_add(1, std::memory_order_relaxed);
      close_conn_internal(id, /*notify=*/true);
      return;
    }
    if (avail < 4 + static_cast<std::size_t>(body_len)) break;
    conn.rpos += 4 + body_len;
    if (events_.on_frame) events_.on_frame(id, p + 4, body_len);
    // The callback may have closed this very connection.
    if (find_conn(id) == nullptr) return;
  }
  // Compact once the parsed prefix dominates the buffer.
  if (conn.rpos > 0 && (conn.rpos >= conn.rbuf.size() ||
                        conn.rpos > (64u << 10))) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(conn.rpos));
    conn.rpos = 0;
  }
}

// --- write path -------------------------------------------------------------

void SocketTransport::enqueue_frame(Conn& conn, Segment frame) {
  if (conn.wq.size() >= kMaxPendingFrames) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  conn.wq.push(std::move(frame));
  if (!flush_writes(conn)) return;
  update_epoll(conn);
}

void SocketTransport::write_ready(Conn& conn) {
  if (!flush_writes(conn)) return;
  update_epoll(conn);
}

bool SocketTransport::flush_writes(Conn& conn) {
  while (!conn.wq.empty()) {
    // Scatter-gather straight from the queued segments: no coalescing
    // copy, one syscall per burst of up to kMaxIov frames.
    iovec iov[kMaxIov];
    std::size_t nseg = std::min(conn.wq.size(), kMaxIov);
    for (std::size_t i = 0; i < nseg; ++i) {
      const Segment& s = conn.wq[i];
      std::size_t skip = i == 0 ? conn.woff : 0;
      iov[i].iov_base =
          const_cast<std::uint8_t*>(s.data()) + skip;
      iov[i].iov_len = s.size() - skip;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = nseg;
    ssize_t n = ::sendmsg(conn.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        std::size_t rem = conn.wq[0].size() - conn.woff;
        if (left >= rem) {
          left -= rem;
          conn.wq.pop();
          conn.woff = 0;
        } else {
          conn.woff += left;
          left = 0;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn_internal(conn.id, /*notify=*/true);
    return false;
  }
  return true;
}

void SocketTransport::update_epoll(Conn& conn) {
  bool want_write = conn.connecting || !conn.wq.empty();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

// --- teardown ---------------------------------------------------------------

void SocketTransport::close_conn_internal(ConnId id, bool notify) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  if (!conn->wq.empty()) {
    frames_dropped_.fetch_add(conn->wq.size(), std::memory_order_relaxed);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  PeerId peer_id = conn->peer;
  conns_.erase(it);
  conns_closed_.fetch_add(1, std::memory_order_relaxed);
  if (peer_id != kNoPeer) {
    Peer* p = peer(peer_id);
    if (p != nullptr && p->conn == id) {
      p->conn = kNoConn;
      // Frames queued while we believed the connection healthy are lost
      // (like in-flight packets of a real dropped connection); anything
      // still pending redials with backoff.
      if (!p->pending.empty()) arm_redial(peer_id);
    }
  }
  if (notify && events_.on_conn_closed) events_.on_conn_closed(id);
}

}  // namespace wrs::net

#endif  // __linux__
