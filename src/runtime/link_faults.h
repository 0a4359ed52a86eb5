// Per-link fault-injection plane, owned by Env and shared by all three
// runtimes (SimEnv, ThreadEnv, SocketEnv).
//
// The paper's system model assumes reliable links; this plane lets tests
// and chaos harnesses violate that assumption on purpose:
//
//  * partition(a, b) / heal(a, b)       — cut both directions of a link;
//  * cut_one_way(from, to)              — asymmetric partition;
//  * set_drop(a, b, p)                  — lose each message with prob. p;
//  * set_duplicate(a, b, p)             — deliver each message twice with
//                                         probability p;
//  * set_reorder(p, max_extra)          — give each message an extra delay
//                                         uniform in [0, max_extra) with
//                                         probability p (bounded
//                                         reordering; the simulator applies
//                                         it seeded and deterministically,
//                                         the thread and socket runtimes
//                                         ignore it).
//
// Semantics: faults apply to messages SENT while the fault is active.
// Cut/dropped messages are LOST, not buffered — healing does not
// resurrect them, exactly like a real network that threw the packets
// away. Protocol liveness under faults therefore needs retransmission
// (AbdClient::set_retry_interval) and/or anti-entropy
// (ReassignNode::enable_sync). Self-loops (from == to) are never faulted:
// a process can always talk to itself.
//
// Internally synchronized: scenario scripts mutate the plane from the
// thread runtime's timer thread while workers send. Env::fault_verdict
// is the one caller of decide() on every runtime. decide() draws from
// the CALLER's rng (the env's seeded stream) and only for links with
// probabilistic faults configured, so fault-free runs consume no
// randomness and stay bit-for-bit identical to pre-fault-plane builds.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <utility>

#include "common/rng.h"
#include "common/types.h"

namespace wrs {

class LinkFaults {
 public:
  /// The fate of one message, decided at send time.
  struct Decision {
    bool deliver = true;
    bool duplicate = false;
    TimeNs extra_delay = 0;  // bounded-reorder extra (simulator only)
  };

  // --- symmetric verbs -----------------------------------------------------
  /// Cuts both directions of the a<->b link.
  void partition(ProcessId a, ProcessId b);
  /// Restores both directions of the a<->b link (drop/duplicate rates on
  /// the link are kept; only the cut is removed).
  void heal(ProcessId a, ProcessId b);
  /// Loses each message on the a<->b link (both directions) with
  /// probability p; p <= 0 clears.
  void set_drop(ProcessId a, ProcessId b, double p);
  /// Delivers each message on the a<->b link (both directions) twice with
  /// probability p; p <= 0 clears.
  void set_duplicate(ProcessId a, ProcessId b, double p);

  /// Network-wide storm rates applying to EVERY link — including links of
  /// processes deployed while the storm is active (restarted readers).
  /// Per-link settings and the storm compose by "the stronger wins".
  void set_drop_all(double p);
  void set_duplicate_all(double p);

  // --- directional verbs ---------------------------------------------------
  /// Cuts only the from->to direction (asymmetric partition: `to` still
  /// reaches `from`).
  void cut_one_way(ProcessId from, ProcessId to);
  void heal_one_way(ProcessId from, ProcessId to);

  // --- global knobs --------------------------------------------------------
  /// Bounded reordering: with probability p a message gets an extra delay
  /// uniform in [0, max_extra). Applied (seeded) by the simulator only.
  void set_reorder(double p, TimeNs max_extra);

  /// Clears every cut, drop/duplicate rate, and the reorder knob.
  void heal_all();

  // --- queries -------------------------------------------------------------
  bool is_cut(ProcessId from, ProcessId to) const;
  /// Cheap fast-path check: false iff no fault of any kind is configured.
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Decides the fate of one from->to message, drawing from `rng` only
  /// when the link has probabilistic faults (or reordering is on). The
  /// caller must own `rng` (each runtime calls this under its own
  /// serialization).
  Decision decide(ProcessId from, ProcessId to, Rng& rng);

 private:
  struct Link {
    bool cut = false;
    double drop_p = 0;
    double dup_p = 0;
    bool trivial() const { return !cut && drop_p <= 0 && dup_p <= 0; }
  };
  using Key = std::pair<ProcessId, ProcessId>;

  /// Applies `fn` to the directed link, erasing it again when trivial.
  template <typename Fn>
  void mutate(ProcessId from, ProcessId to, Fn fn) {
    std::lock_guard lock(mu_);
    Link& link = links_[Key{from, to}];
    fn(link);
    if (link.trivial()) links_.erase(Key{from, to});
    refresh_active();
  }

  void refresh_active() {
    active_.store(!links_.empty() || reorder_p_ > 0 || drop_all_p_ > 0 ||
                      dup_all_p_ > 0,
                  std::memory_order_release);
  }

  mutable std::mutex mu_;
  std::map<Key, Link> links_;
  double drop_all_p_ = 0;
  double dup_all_p_ = 0;
  double reorder_p_ = 0;
  TimeNs reorder_max_ = 0;
  std::atomic<bool> active_{false};
};

}  // namespace wrs
