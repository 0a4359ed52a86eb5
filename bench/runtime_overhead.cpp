// EXP-RT1: runtime hot-path overhead — what does one message cost?
//
// Measures the enqueue→deliver path of the runtimes with the protocol
// stripped away: a sender fires small messages at a sink process and we
// report wall-clock ns per delivered message plus heap allocations per
// message, counted by a global operator new hook (this binary only).
// Three rows:
//
//   threads/spsc   one sender thread -> one mailbox (the EXP-SH3 shape)
//   threads/mpsc4  four sender threads -> one mailbox (contended: what
//                  the old global-mutex send path serialized)
//   sim/spsc       the discrete-event simulator as the reference point
//   socket/spsc    SocketEnv with loopback_self: every message is arena-
//                  encoded, crosses the kernel over TCP loopback, and is
//                  pool-decoded — the full real-transport path
//   pool/churn     make_msg<T> construct+destroy round trips (the slab
//                  pool's thread-local cache in isolation)
//   mpsc/push4     four producers pushing inline Tasks through one
//                  MpscRing while the consumer drains (the raw mailbox)
//
// The interesting gate is allocs_per_msg == 0 on every row in steady
// state: routing is a lock-free snapshot, traffic counters are
// pre-interned ledger slots, the delivery closure fits in Task's inline
// buffer, the mailbox ring and the simulator's TaskHeap never shrink,
// messages come from the slab pool, and the wire path encodes into
// recycled arena chunks — so after warm-up, no message touches the
// allocator. The binary exits nonzero when that fails (and --gate-spsc-ns bounds
// threads/spsc absolutely); CI adds an ns/msg regression bound against
// the committed baseline. A failing allocs gate prints the call stack of
// the row's first counted allocation, so a rare stray allocation names
// its site.
//
// Senders pace themselves (bounded backlog, wait for the sink to catch
// up) so queues plateau during warm-up and the measured window exercises
// the steady state, not queue growth.

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "monitor/adaptive_node.h"
#include "net/socket_addr.h"
#include "runtime/latency_model.h"
#include "runtime/mpsc_queue.h"
#include "runtime/msg_pool.h"
#include "runtime/sim_env.h"
#include "runtime/socket_env.h"
#include "runtime/thread_env.h"

namespace {

// --- counting allocator hook -----------------------------------------------
// Global operator new/delete replacements: every heap allocation in the
// process routes through here. Counting is gated so setup/teardown noise
// (thread spawn, container warm-up) is excluded from the measured window.

std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_allocs{0};

// The window's first counted allocation records its call stack here.
// Static storage, so the hook itself allocates nothing; glibc backtrace
// is called once before any window (it loads the unwinder lazily).
constexpr int kTraceDepth = 32;
void* g_first_trace[kTraceDepth];
std::atomic<int> g_first_trace_depth{0};

void count_alloc() {
  if (!g_count_allocs.load(std::memory_order_relaxed)) return;
  if (g_allocs.fetch_add(1, std::memory_order_relaxed) == 0) {
    g_first_trace_depth.store(backtrace(g_first_trace, kTraceDepth),
                              std::memory_order_release);
  }
}

void* counted_alloc(std::size_t n) {
  count_alloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  count_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n == 0 ? align : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wrs::bench {
namespace {

struct Ping : MessageBase<Ping> {
  std::string type_name() const override { return "PING"; }
};

struct Sink : Process {
  std::atomic<std::uint64_t> delivered{0};
  void on_message(ProcessId, const Message&) override {
    delivered.fetch_add(1, std::memory_order_relaxed);
  }
};

constexpr ProcessId kServer = 0;
constexpr std::uint64_t kWarmupMsgs = 20'000;
// Senders stall once this many messages are in flight, so the mailbox
// ring's capacity plateaus during warm-up and the measured steady state
// never grows it again.
constexpr std::uint64_t kMaxBacklog = 512;

struct Measurement {
  double ns_per_msg = 0;
  double allocs_per_msg = 0;
  double wall_ms = 0;
  std::uint64_t msgs = 0;
  std::vector<void*> first_alloc;  // call stack; empty without allocations
};

using Clock = std::chrono::steady_clock;

/// Opens the counting window: from here every operator new counts.
void open_alloc_window() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_first_trace_depth.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_release);
}

void close_alloc_window() {
  g_count_allocs.store(false, std::memory_order_release);
}

/// `msgs` messages measured over [t0, t1], with the closed window's
/// allocation count and first allocation's stack.
Measurement measured(std::uint64_t msgs, Clock::time_point t0,
                     Clock::time_point t1) {
  Measurement m;
  m.msgs = msgs;
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.ns_per_msg = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(msgs);
  m.allocs_per_msg =
      static_cast<double>(g_allocs.load()) / static_cast<double>(msgs);
  const int depth = g_first_trace_depth.load(std::memory_order_acquire);
  m.first_alloc.assign(g_first_trace, g_first_trace + depth);
  return m;
}

/// Paced multi-threaded fire-hose at one ThreadEnv mailbox. Sender
/// threads are spawned (and the deployment warmed) with counting OFF;
/// only the steady-state window is measured.
Measurement run_threads(unsigned senders, std::uint64_t msgs) {
  ThreadEnv env;
  Sink sink;
  env.register_process(kServer, &sink);
  env.start();

  // Unpaced prefill: drive the mailbox ring past any backlog the paced
  // senders can reach (pacing is check-then-send, so `senders` threads
  // can overshoot kMaxBacklog by senders-1), guaranteeing the ring never
  // grows inside the measured window.
  const std::uint64_t prefill = 2 * kMaxBacklog;
  {
    MsgPtr warm = std::make_shared<Ping>();
    for (std::uint64_t i = 0; i < prefill; ++i) {
      env.send(client_id(0), kServer, warm);
    }
    while (sink.delivered.load(std::memory_order_acquire) < prefill) {
      std::this_thread::yield();
    }
  }

  std::atomic<std::uint64_t> sent{prefill};
  std::atomic<int> phase{0};  // 0 = warmup, 1 = measure, 2 = done
  const std::uint64_t warm_quota = kWarmupMsgs / senders;
  const std::uint64_t quota = msgs / senders;
  const std::uint64_t warm_total = prefill + warm_quota * senders;
  const std::uint64_t total = quota * senders;

  auto pump = [&](ProcessId self, const MsgPtr& msg, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      while (sent.load(std::memory_order_relaxed) -
                 sink.delivered.load(std::memory_order_relaxed) >=
             kMaxBacklog) {
        std::this_thread::yield();
      }
      env.send(self, kServer, msg);
      sent.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> pumps;
  pumps.reserve(senders);
  for (unsigned s = 0; s < senders; ++s) {
    pumps.emplace_back([&, s] {
      const ProcessId self = client_id(s);
      // One message reused for every send (the runtimes share MsgPtrs
      // zero-copy); created here so the measured window allocates nothing.
      MsgPtr msg = std::make_shared<Ping>();
      pump(self, msg, warm_quota);
      while (phase.load(std::memory_order_acquire) < 1) {
        std::this_thread::yield();
      }
      pump(self, msg, quota);
    });
  }

  while (sink.delivered.load(std::memory_order_acquire) < warm_total) {
    std::this_thread::yield();
  }

  open_alloc_window();
  auto t0 = Clock::now();
  phase.store(1, std::memory_order_release);
  while (sink.delivered.load(std::memory_order_acquire) < warm_total + total) {
    std::this_thread::yield();
  }
  auto t1 = Clock::now();
  close_alloc_window();

  for (std::thread& t : pumps) t.join();
  env.stop();

  return measured(total, t0, t1);
}

/// The simulator as the single-threaded reference: same pacing (chunks
/// bounded by kMaxBacklog, drained between chunks), wall clock over the
/// send+drain loop.
Measurement run_sim(std::uint64_t msgs) {
  auto env = SimEnv(std::make_shared<ConstantLatency>(us(10)), 1);
  Sink sink;
  env.register_process(kServer, &sink);
  env.start();
  env.run_to_quiescence();

  const ProcessId self = client_id(0);
  MsgPtr msg = std::make_shared<Ping>();
  auto burst = [&](std::uint64_t n) {
    std::uint64_t done = 0;
    while (done < n) {
      std::uint64_t chunk = std::min<std::uint64_t>(kMaxBacklog, n - done);
      for (std::uint64_t i = 0; i < chunk; ++i) env.send(self, kServer, msg);
      env.run_to_quiescence();
      done += chunk;
    }
  };

  burst(kWarmupMsgs);

  open_alloc_window();
  auto t0 = Clock::now();
  burst(msgs);
  auto t1 = Clock::now();
  close_alloc_window();

  return measured(msgs, t0, t1);
}

/// SocketEnv loopback: sends are arena-encoded, cross the kernel over a
/// real TCP connection to our own listener, and are pool-decoded on the
/// loop thread. Same pacing as run_threads; the gate is that the whole
/// wire round trip — encode, enqueue, sendmsg, recv, decode, deliver —
/// stays allocation-free once the arena chunk pool and slab pool are
/// warm.
Measurement run_socket(std::uint64_t msgs) {
  SocketEnv::Options opts;
  opts.listen = net::SocketAddr::parse("tcp:127.0.0.1:0");
  opts.loopback_self = true;
  SocketEnv env(opts);
  Sink sink;
  env.register_process(kServer, &sink);
  env.start();

  const ProcessId self = client_id(0);
  // PingMsg instead of the bench-local Ping: the wire codec only knows
  // protocol types. One pooled message reused for every send.
  MsgPtr msg = make_msg<PingMsg>(0);

  auto pump = [&](std::uint64_t sent_before, std::uint64_t n) {
    std::uint64_t sent = sent_before;
    for (std::uint64_t i = 0; i < n; ++i) {
      while (sent - sink.delivered.load(std::memory_order_relaxed) >=
             kMaxBacklog) {
        std::this_thread::yield();
      }
      env.send(self, kServer, msg);
      ++sent;
    }
    while (sink.delivered.load(std::memory_order_acquire) < sent) {
      std::this_thread::yield();
    }
  };

  pump(0, kWarmupMsgs);

  open_alloc_window();
  auto t0 = Clock::now();
  pump(kWarmupMsgs, msgs);
  auto t1 = Clock::now();
  close_alloc_window();

  env.stop();

  return measured(msgs, t0, t1);
}

/// Slab-pool churn: make_msg construct + destroy round trips on one
/// thread. After warm-up every block comes from (and returns to) the
/// thread-local cache — no lock, no atomics, no allocator.
Measurement run_pool(std::uint64_t ops) {
  for (std::uint64_t i = 0; i < kWarmupMsgs; ++i) {
    MsgPtr m = make_msg<PingMsg>(static_cast<TimeNs>(i));
    (void)m;
  }

  open_alloc_window();
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    MsgPtr m = make_msg<PingMsg>(static_cast<TimeNs>(i));
    (void)m;
  }
  auto t1 = Clock::now();
  close_alloc_window();

  return measured(ops, t0, t1);
}

/// Raw mailbox ring: `producers` threads push inline no-op Tasks through
/// one MpscRing while the consumer drains. try_push spins on full (the
/// ThreadEnv overflow path is measured end-to-end by threads/mpsc4; this
/// row isolates the ring itself).
Measurement run_mpsc(unsigned producers, std::uint64_t ops) {
  MpscRing<Task> ring(1024);
  const std::uint64_t quota = ops / producers;
  const std::uint64_t total = quota * producers;
  std::atomic<int> phase{0};

  std::vector<std::thread> pumps;
  pumps.reserve(producers);
  for (unsigned p = 0; p < producers; ++p) {
    pumps.emplace_back([&] {
      while (phase.load(std::memory_order_acquire) < 1) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < quota; ++i) {
        Task t([] {});
        while (!ring.try_push(std::move(t))) {
          std::this_thread::yield();
        }
      }
    });
  }

  open_alloc_window();
  auto t0 = Clock::now();
  phase.store(1, std::memory_order_release);
  std::uint64_t popped = 0;
  Task t;
  while (popped < total) {
    if (ring.try_pop(t)) {
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  auto t1 = Clock::now();
  close_alloc_window();

  for (std::thread& th : pumps) th.join();

  return measured(total, t0, t1);
}

int run(int argc, char** argv) {
  std::uint64_t msgs = 200'000;
  double gate_spsc_ns = 0;  // 0 = no absolute bound
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--msgs") == 0 && i + 1 < argc) {
      msgs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--gate-spsc-ns") == 0 && i + 1 < argc) {
      gate_spsc_ns = std::strtod(argv[++i], nullptr);
    }
  }

  void* warm_trace[1];
  backtrace(warm_trace, 1);  // loads the unwinder outside every window

  banner("EXP-RT1", "runtime enqueue→deliver overhead (ns/msg, allocs/msg)");
  note("Counting allocator hook active in the measured window only;");
  note("warm-up (" + std::to_string(kWarmupMsgs) +
       " msgs) grows rings/queues to steady state first.\n");

  struct NamedRow {
    const char* runtime;
    const char* mode;
    Measurement m;
  };
  std::vector<NamedRow> rows;
  rows.push_back({"threads", "spsc", run_threads(1, msgs)});
  rows.push_back({"threads", "mpsc4", run_threads(4, msgs)});
  rows.push_back({"sim", "spsc", run_sim(msgs)});
#ifdef __linux__
  rows.push_back({"socket", "spsc", run_socket(msgs)});
#endif
  rows.push_back({"pool", "churn", run_pool(msgs)});
  rows.push_back({"mpsc", "push4", run_mpsc(4, msgs)});

  Table table({"runtime", "mode", "msgs", "ns/msg", "allocs/msg", "wall ms"});
  for (const NamedRow& r : rows) {
    table.add_row({r.runtime, r.mode, std::to_string(r.m.msgs),
                   Table::fmt(r.m.ns_per_msg, 1),
                   Table::fmt(r.m.allocs_per_msg, 4),
                   Table::fmt(r.m.wall_ms, 1)});
  }
  table.print();

  const std::string path = json_path(argc, argv);
  if (!path.empty()) {
    JsonReport report("EXP-RT1 runtime overhead");
    report.seed(1);
    for (const NamedRow& r : rows) {
      report.row()
          .field("runtime", std::string(r.runtime))
          .field("mode", std::string(r.mode))
          .field("msgs", static_cast<double>(r.m.msgs))
          .field("ns_per_msg", r.m.ns_per_msg)
          .field("allocs_per_msg", r.m.allocs_per_msg)
          .field("wall_ms", r.m.wall_ms);
    }
    if (!report.write(path)) return 1;
  }

  // Self-check: every runtime, the message pool and the raw mailbox must
  // be allocation-free per message in steady state; --gate-spsc-ns
  // bounds threads/spsc absolutely.
  bool ok = true;
  for (const NamedRow& r : rows) {
    const std::string name = std::string(r.runtime) + "/" + r.mode;
    if (!gate(name + " allocs/msg", r.m.allocs_per_msg, "==", 0)) {
      ok = false;
      std::printf("first counted allocation in %s:\n", name.c_str());
      std::fflush(stdout);
      backtrace_symbols_fd(r.m.first_alloc.data(),
                           static_cast<int>(r.m.first_alloc.size()),
                           STDOUT_FILENO);
    }
    if (gate_spsc_ns > 0 && name == "threads/spsc") {
      ok &= gate(name + " ns/msg", r.m.ns_per_msg, "<=", gate_spsc_ns);
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace wrs::bench

int main(int argc, char** argv) { return wrs::bench::run(argc, argv); }
