#ifdef __linux__

#include "runtime/socket_env.h"

#include <stdexcept>
#include <utility>

#include "net/wire_codec.h"

namespace wrs {
namespace {

/// How often the fault poll maps cut links onto connection teardown.
constexpr TimeNs kFaultPollInterval = ms(25);

}  // namespace

SocketEnv::SocketEnv(Options opts)
    : opts_(std::move(opts)),
      epoch_(std::chrono::steady_clock::now()),
      rng_(opts_.seed) {
  transport_.set_events(net::SocketTransport::Events{
      [this](net::SocketTransport::ConnId conn, const std::uint8_t* body,
             std::size_t len) { on_frame(conn, body, len); },
      [this](net::SocketTransport::ConnId conn) { on_conn_closed(conn); },
      // Timer gate: schedule() tags its timers with pid+1; a crashed
      // process's pending callbacks are dropped at fire time without
      // wrapping the Task in another closure.
      [this](std::uint64_t token) {
        return !is_crashed(static_cast<ProcessId>(token - 1));
      }});
}

SocketEnv::~SocketEnv() { stop(); }

void SocketEnv::start() {
  std::vector<std::pair<ProcessId, Process*>> to_start;
  {
    std::lock_guard lock(mu_);
    if (started_) return;
    started_ = true;
    for (auto& [pid, proc] : local_) to_start.emplace_back(pid, proc);
  }
  transport_.listen(opts_.listen);
  self_addr_ = *transport_.listen_addr();
  self_peer_ = transport_.intern_peer(self_addr_);
  transport_.start();
  transport_.post([this, to_start = std::move(to_start)] {
    for (auto& [pid, proc] : to_start) {
      if (!is_crashed(pid)) proc->on_start();
    }
  });
  transport_.schedule_after(kFaultPollInterval, [this] { fault_poll(); });
}

void SocketEnv::stop() {
  {
    std::lock_guard lock(mu_);
    if (!started_) return;
  }
  transport_.stop();
}

TimeNs SocketEnv::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

net::SocketAddr SocketEnv::listen_addr() const {
  auto addr = transport_.listen_addr();
  if (!addr) {
    throw std::logic_error("SocketEnv::listen_addr: not started");
  }
  return *addr;
}

void SocketEnv::register_process(ProcessId pid, Process* process) {
  bool deliver_start = false;
  {
    std::lock_guard lock(mu_);
    if (local_.count(pid) != 0) {
      throw std::logic_error("SocketEnv: process " + process_name(pid) +
                             " registered twice");
    }
    local_[pid] = process;
    crashed_.erase(pid);  // a re-registered id is a restarted process
    deliver_start = started_;
  }
  if (deliver_start) {
    transport_.post([this, pid, process] {
      if (!is_crashed(pid)) process->on_start();
    });
  }
}

void SocketEnv::crash(ProcessId pid) {
  std::lock_guard lock(mu_);
  crashed_.insert(pid);
}

bool SocketEnv::is_crashed(ProcessId pid) const {
  std::lock_guard lock(mu_);
  return crashed_.count(pid) != 0;
}

void SocketEnv::add_route(ProcessId pid, const net::SocketAddr& addr) {
  net::SocketTransport::PeerId peer = transport_.intern_peer(addr);
  std::lock_guard lock(mu_);
  routes_[pid] = addr;
  route_peers_[pid] = peer;
}

void SocketEnv::schedule(ProcessId pid, TimeNs delay, Task fn) {
  // The Task moves into the transport's timer heap as-is (no wrapper
  // closure, no allocation); the pid+1 token routes the crash check
  // through the timer_gate callback at fire time (0 = ungated).
  transport_.schedule_after(delay, static_cast<std::uint64_t>(pid) + 1,
                            std::move(fn));
}

namespace {

/// Per-sending-thread encode arena: chunks recycle through the global
/// pool as the loop thread releases written segments, so steady-state
/// encode+send is allocation-free end to end.
net::EncodeArena& send_arena() {
  thread_local net::EncodeArena arena;
  return arena;
}

}  // namespace

void SocketEnv::send(ProcessId from, ProcessId to, MsgPtr msg) {
  // Serialize first: an unencodable type is a caller bug and throws even
  // if faults would have dropped the message anyway. The encode lands in
  // the thread-local arena; `frame` (and any duplicate copies, which
  // just bump the chunk refcount) share that single encode.
  net::Segment frame = net::WireCodec::encode_frame_arena(send_arena(), from,
                                                          to, *msg);

  // Routing decisions happen under mu_, but every transport_ call is
  // made OUTSIDE it: on the loop thread a send can fail and close the
  // connection inline, and the on_conn_closed callback locks mu_ again.
  enum class Via { kNone, kLocal, kPeer, kConn };
  Via via = Via::kNone;
  int copies = 1;
  net::SocketTransport::PeerId peer = net::SocketTransport::kNoPeer;
  net::SocketTransport::ConnId conn = 0;
  count_send(from, to, *msg, frame.size());
  {
    std::lock_guard lock(mu_);
    if (crashed_.count(to) != 0) return;
    if (faults().active()) {
      LinkFaults::Decision fate = fault_verdict(from, to, rng_);
      if (!fate.deliver) return;
      if (fate.duplicate) copies = 2;
    }
    if (local_.count(to) != 0) {
      if (opts_.loopback_self) {  // out through our own listener
        via = Via::kPeer;
        peer = self_peer_;
      } else {
        via = Via::kLocal;
      }
    } else if (auto rit = route_peers_.find(to); rit != route_peers_.end()) {
      via = Via::kPeer;
      peer = rit->second;
    } else if (auto lit = learned_.find(to); lit != learned_.end()) {
      via = Via::kConn;
      conn = lit->second;
    } else {
      count_event(TrafficLedger::kMsgsUnroutable);
      return;
    }
  }

  for (int i = 0; i < copies; ++i) {
    if (via == Via::kLocal) {
      // Decode our own bytes so local delivery exercises the exact same
      // codec path (and never aliases the sender's message).
      auto decoded = net::WireCodec::decode_frame(frame.data() + 4,
                                                  frame.size() - 4);
      if (!decoded) {
        count_event(TrafficLedger::kMsgsMalformed);
        continue;
      }
      MsgPtr local_msg = decoded->msg;
      transport_.post(
          [this, from, to, local_msg] { deliver(from, to, local_msg); });
    } else if (via == Via::kPeer) {
      transport_.send_to_peer(peer, net::Segment(frame));
    } else {
      transport_.send_on_conn(conn, net::Segment(frame));
    }
  }
}

void SocketEnv::on_frame(net::SocketTransport::ConnId conn,
                         const std::uint8_t* body, std::size_t len) {
  auto decoded = net::WireCodec::decode_frame(body, len);
  if (!decoded) {
    // A frame we cannot decode means the stream is not speaking our
    // protocol (or a version we know) — drop the connection.
    count_event(TrafficLedger::kMsgsMalformed);
    transport_.close_conn(conn);
    return;
  }
  ProcessId from = decoded->from;
  ProcessId to = decoded->to;
  count_event(TrafficLedger::kMsgsIn);
  count_event(TrafficLedger::kBytesIn, static_cast<std::int64_t>(len + 4));
  {
    std::lock_guard lock(mu_);
    // Learn the return route (how servers answer dialed-in clients).
    if (local_.count(from) == 0) learned_[from] = conn;
    if (local_.count(to) == 0) {
      count_event(TrafficLedger::kMsgsNoHandler);
      return;
    }
    if (crashed_.count(to) != 0) return;
    // Delivery-time cut filter: a partition started after the bytes left
    // the sender still stops them here, like a mid-flight cable pull.
    if (faults().active() && faults().is_cut(from, to)) {
      count_event(TrafficLedger::kMsgsLost);
      return;
    }
  }
  if (opts_.latency) {
    TimeNs delay;
    {
      std::lock_guard lock(mu_);
      delay = opts_.latency->sample(from, to, rng_);
    }
    MsgPtr msg = decoded->msg;
    transport_.schedule_after(
        delay, [this, from, to, msg] { deliver(from, to, msg); });
    return;
  }
  deliver(from, to, decoded->msg);
}

void SocketEnv::deliver(ProcessId from, ProcessId to, const MsgPtr& msg) {
  Process* proc = nullptr;
  {
    std::lock_guard lock(mu_);
    if (crashed_.count(to) != 0) return;
    auto it = local_.find(to);
    if (it == local_.end()) return;
    proc = it->second;
  }
  // Loop thread, outside the lock: handlers may send freely.
  proc->on_message(from, *msg);
}

void SocketEnv::on_conn_closed(net::SocketTransport::ConnId conn) {
  std::lock_guard lock(mu_);
  for (auto it = learned_.begin(); it != learned_.end();) {
    if (it->second == conn) {
      it = learned_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketEnv::fault_poll() {
  if (faults().active()) {
    // Collect the remote peers whose every pid pair is cut both ways;
    // their connections get torn down for real (the redial/backoff path
    // then exercises reconnection when the partition heals).
    std::vector<net::SocketTransport::PeerId> cut_peers;
    std::vector<net::SocketTransport::ConnId> cut_conns;
    {
      std::lock_guard lock(mu_);
      const LinkFaults& plane = faults();
      auto fully_cut = [this, &plane](ProcessId remote) {
        bool any = false;
        for (const auto& [lpid, proc] : local_) {
          if (crashed_.count(lpid) != 0) continue;
          any = true;
          if (!plane.is_cut(lpid, remote) || !plane.is_cut(remote, lpid)) {
            return false;
          }
        }
        return any;
      };
      for (const auto& [pid, peer] : route_peers_) {
        if (local_.count(pid) == 0 && fully_cut(pid)) {
          cut_peers.push_back(peer);
        }
      }
      for (const auto& [pid, conn] : learned_) {
        if (fully_cut(pid)) cut_conns.push_back(conn);
      }
    }
    for (auto peer : cut_peers) {
      transport_.close_peer(peer);
      fault_teardowns_.fetch_add(1, std::memory_order_relaxed);
    }
    for (auto conn : cut_conns) {
      transport_.close_conn(conn);
      fault_teardowns_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  transport_.schedule_after(kFaultPollInterval, [this] { fault_poll(); });
}

}  // namespace wrs

#endif  // __linux__
