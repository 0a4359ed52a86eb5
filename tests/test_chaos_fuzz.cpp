// Seeded chaos-fuzz harness: many episodes of concurrent open-loop
// reads/writes + weight reassignments under a Nemesis fault schedule
// (partitions, drop/duplicate storms, reordering, slowdowns, rolling
// crashes + restarts-as-new-readers), each checked for
//
//   * atomicity           — check_atomicity over the recorded history;
//   * reassignment safety — every sampled per-server change set grows
//                           monotonically (subset of its successor), and
//                           after healing all live servers agree on the
//                           final change set / weights, with total weight
//                           conserved, and every live client's cached
//                           weights equal those its change set derives;
//   * progress            — operations completed and the reassignment
//                           state converged once faults healed.
//
// EVERY failure prints its seed and the Nemesis timeline, and
//
//   ./test_chaos_fuzz --seed=<N>
//
// replays exactly that episode on the deterministic simulator (the
// harness runs it twice and asserts the two runs are bit-for-bit
// identical). WRS_CHAOS_SEEDS=<count> widens the sweep — the `chaos`
// ctest label runs 20 seeds nightly on both runtimes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "storage/history.h"
#include "testing/nemesis.h"

namespace wrs {

std::optional<std::uint64_t> g_replay_seed;  // set by --seed=<N> in main

namespace {

std::size_t seed_count(std::size_t fallback) {
  const char* env = std::getenv("WRS_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return fallback;
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

std::uint64_t sweep_seed(std::size_t i) { return 20260726u + 7919u * i; }

struct EpisodeOutcome {
  std::vector<std::string> violations;
  std::string fingerprint;  // history + final state (sim: replay-stable)
  std::size_t completed_ops = 0;
  std::size_t transfers_completed = 0;
  std::size_t transfers_effective = 0;
  std::int64_t one_round_reads = 0;   ///< "reads.fast_path"
  std::int64_t write_back_reads = 0;  ///< "reads.write_back"
  std::vector<std::string> timeline;
};

std::string runtime_name(Runtime rt) {
  return rt == Runtime::kSim ? "sim" : "threads";
}

/// One chaos episode; everything about it derives from (rt, seed).
EpisodeOutcome run_episode(Runtime rt, std::uint64_t seed) {
  EpisodeOutcome out;
  Rng rng(seed);

  const std::uint32_t n = 4 + static_cast<std::uint32_t>(rng.below(3));
  const std::uint32_t f = (n - 1) / 2;
  const std::uint32_t crash_budget =
      1 + static_cast<std::uint32_t>(rng.below(f));
  const TimeNs horizon = ms(300);

  WorkloadParams wp;
  wp.num_ops = 40;
  wp.read_ratio = 0.5;
  wp.value_size = 8;
  wp.num_keys = 3;
  wp.target_ops_per_sec = 250;  // arrivals span ~160ms of the fault window
  wp.max_in_flight = 8;
  // Mix atomic snapshots into the stream: every cut is recorded and must
  // pass the checker's S1/S2 cut conditions alongside plain atomicity.
  wp.snapshot_every_ops = 10;
  wp.snapshot_keys = 3;
  wp.seed = rng();

  auto history = std::make_shared<HistoryRecorder>();
  Cluster c = Cluster::builder()
                  .servers(n)
                  .faults(f)
                  .clients(2)
                  .workload(wp)
                  .history(history)
                  .uniform_latency(us(200), ms(2))
                  .retry(ms(10))
                  .anti_entropy(ms(25))
                  .runtime(rt)
                  .seed(seed)
                  .build();

  // Concurrent reconfiguration: seeded random transfers across the window.
  testing::TransferStormParams tsp;
  tsp.horizon = horizon;
  tsp.attempts = 6;
  testing::TransferStorm storm(c, rng(), tsp);
  storm.unleash();

  // The fault schedule, drawn from the same master seed.
  testing::NemesisParams np;
  np.horizon = horizon;
  np.events = 8;
  np.crash_budget = crash_budget;
  np.reader_restarts = true;
  np.restart_workload = wp;
  np.restart_workload.num_ops = 8;
  np.restart_workload.read_ratio = 0.9;  // restarted processes are readers
  np.restart_workload.target_ops_per_sec = 400;
  np.restart_workload.max_in_flight = 4;
  testing::Nemesis nemesis(c, rng(), np);
  nemesis.unleash();
  out.timeline = nemesis.timeline();

  // Reassignment-safety probe: sample every server's change set through
  // the chaos (in the server's own context — race-free on threads).
  struct Samples {
    std::mutex mu;
    std::vector<std::vector<ChangeSet>> per_server;
  };
  auto samples = std::make_shared<Samples>();
  samples->per_server.resize(n);
  for (ProcessId s = 0; s < n; ++s) {
    ReassignNode* node = &c.server(s).node();
    for (TimeNs t = ms(30); t <= horizon + ms(60); t += ms(30)) {
      c.env().schedule(s, t, [samples, node, s] {
        std::lock_guard lock(samples->mu);
        samples->per_server[s].push_back(node->changes());
      });
    }
  }

  // The chaotic phase, plus a fault-free tail for retries to fire.
  c.run_for(horizon + ms(80));

  std::vector<ProcessId> live;
  for (ProcessId s = 0; s < n; ++s) {
    if (!c.is_crashed(s)) live.push_back(s);
  }

  // Post-heal convergence: anti-entropy repairs whatever the fault plane
  // destroyed; bounded rounds so a convergence bug fails loudly instead
  // of hanging.
  struct ServerState {
    ChangeSet changes;
    bool transfer_pending = false;
  };
  auto probe = [&c](ProcessId s) {
    ReassignNode* node = &c.server(s).node();
    return c.call<ServerState>(s, [node](auto done) {
      done(ServerState{node->changes(), node->transfer_in_flight()});
    });
  };
  bool converged = false;
  std::vector<ChangeSet> final_sets;
  for (int round = 0; round < 80 && !converged; ++round) {
    c.run_for(ms(25));
    final_sets.clear();
    bool pending = false;
    bool missing = false;
    for (ProcessId s : live) {
      auto state = probe(s).try_get(seconds(10));
      if (!state.has_value()) {
        missing = true;
        break;
      }
      pending = pending || state->transfer_pending;
      final_sets.push_back(state->changes);
    }
    if (missing || pending || final_sets.empty()) continue;
    converged = true;
    for (std::size_t i = 1; i < final_sets.size(); ++i) {
      if (!(final_sets[i] == final_sets[0])) converged = false;
    }
  }
  if (!converged) {
    out.violations.push_back(
        "reassignment state did not converge on live servers after healing");
  }

  // Every workload client (original and restarted readers) must finish:
  // retries + healed links restore liveness. 30s per client (sim time is
  // free; real ops finish in well under a second) keeps a genuinely stuck
  // episode from eating the nightly sweep's whole ctest timeout.
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    if (!c.workload_done(k).try_get(seconds(30)).has_value()) {
      out.violations.push_back("workload client #" + std::to_string(k) +
                               " never finished (liveness)");
    } else {
      out.completed_ops += c.workload(k).completed();
      if (c.workload(k).snapshots_done() != c.workload(k).snapshots_issued()) {
        out.violations.push_back("workload client #" + std::to_string(k) +
                                 " lost a snapshot (liveness)");
      }
    }
  }
  out.transfers_completed = storm.completed();
  out.transfers_effective = storm.effective();

  // Let the deployment quiesce so every history record is closed.
  c.set_anti_entropy(0);
  c.quiesce(seconds(120));
  out.one_round_reads = c.traffic().get("reads.fast_path");
  out.write_back_reads = c.traffic().get("reads.write_back");

  // --- safety checks --------------------------------------------------------
  std::vector<OpRecord> ops = history->completed();
  if (auto err = check_atomicity(ops)) {
    out.violations.push_back("atomicity: " + *err);
  }
  if (out.completed_ops == 0) {
    out.violations.push_back("no operation completed (progress)");
  }

  {
    std::lock_guard lock(samples->mu);
    for (ProcessId s = 0; s < n; ++s) {
      const auto& seq = samples->per_server[s];
      for (std::size_t i = 1; i < seq.size(); ++i) {
        if (!seq[i - 1].subset_of(seq[i])) {
          out.violations.push_back(
              "change set of " + process_name(s) +
              " shrank between samples " + std::to_string(i - 1) + " and " +
              std::to_string(i) + " (monotonicity)");
          break;
        }
      }
    }
  }
  if (converged && !final_sets.empty()) {
    if (!(final_sets[0].total() == c.config().initial_total())) {
      out.violations.push_back(
          "total weight not conserved: " + final_sets[0].total().str() +
          " != " + c.config().initial_total().str());
    }
  }

  // --- fingerprint (replay determinism) -------------------------------------
  std::ostringstream fp;
  fp << "n=" << n << " f=" << f << " live=" << live.size()
     << " ops=" << ops.size() << "\n";
  for (const OpRecord& op : ops) {
    fp << (op.kind == OpRecord::Kind::kRead ? "R" : "W") << " "
       << process_name(op.process) << " k=" << op.key << " [" << op.start
       << "," << op.end << "] " << op.tag.str() << " v=" << op.value;
    if (op.snap_id != 0) fp << " snap=" << op.snap_id;
    fp << "\n";
  }
  for (std::size_t i = 0; i < final_sets.size() && i < live.size(); ++i) {
    fp << process_name(live[i]) << ": " << final_sets[i].str() << "\n";
  }
  out.fingerprint = fp.str();

  // Cached weight views: every live dynamic client (the workload clients,
  // restarted readers included, and each storage node's refresh client)
  // must hold exactly the weights its change set derives. Read in the
  // owner's context, race-free on threads.
  const std::vector<ProcessId> servers = c.config().servers();
  auto check_weights = [&](ProcessId pid, const AbdClient* client) {
    if (c.is_crashed(pid)) return;
    std::optional<bool> fresh =
        c.call<bool>(pid, [client, servers](auto done) {
           done(client->current_weights() ==
                client->changes().to_weight_map(servers));
         }).try_get(seconds(10));
    if (!fresh.has_value()) {
      out.violations.push_back("weight probe of " + process_name(pid) +
                               " never ran");
    } else if (!*fresh) {
      out.violations.push_back("cached weights of " + process_name(pid) +
                               " differ from its change set's");
    }
  };
  for (std::size_t k = 0; k < c.num_clients(); ++k) {
    check_weights(client_id(static_cast<std::uint32_t>(k)),
                  &c.client(k).router().shard_client(0));
  }
  for (ProcessId s : live) check_weights(s, &c.storage_node(s).client());
  return out;
}

/// Runs one seed, reports any violation with its replay instructions,
/// and returns the episode's outcome for aggregate assertions.
EpisodeOutcome expect_episode_clean(Runtime rt, std::uint64_t seed) {
  EpisodeOutcome out = run_episode(rt, seed);
  EXPECT_GT(out.timeline.size(), 1u);  // the nemesis really scheduled faults
  if (out.violations.empty()) return out;
  std::ostringstream os;
  os << "[chaos] FAILED seed=" << seed << " runtime=" << runtime_name(rt)
     << "\n[chaos] replay: ./test_chaos_fuzz --seed=" << seed << "\n";
  for (const auto& v : out.violations) os << "[chaos]   violation: " << v << "\n";
  os << "[chaos] nemesis timeline:\n";
  for (const auto& t : out.timeline) os << "[chaos]   " << t << "\n";
  ADD_FAILURE() << os.str();
  return out;
}

/// Sweeps `count` seeds and guards against the harness rotting into a
/// no-op: across the sweep, operations and transfer attempts must
/// actually have completed, and reads must have taken both read paths
/// (one round on a unanimous quorum, and the write-back).
void sweep(Runtime rt, std::size_t count) {
  std::size_t total_ops = 0;
  std::size_t total_transfers = 0;
  std::int64_t one_round = 0;
  std::int64_t write_back = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t seed = sweep_seed(i);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EpisodeOutcome out = expect_episode_clean(rt, seed);
    total_ops += out.completed_ops;
    total_transfers += out.transfers_completed;
    one_round += out.one_round_reads;
    write_back += out.write_back_reads;
  }
  EXPECT_GT(total_ops, 0u);
  EXPECT_GT(total_transfers, 0u);
  EXPECT_GT(one_round, 0);
  EXPECT_GT(write_back, 0);
  const std::int64_t reads = one_round + write_back;
  std::cout << "[chaos] " << runtime_name(rt) << ": " << one_round << " of "
            << reads << " reads completed in one round ("
            << (reads > 0 ? 100 * one_round / reads : 0) << "%)\n";
}

TEST(ChaosFuzz, SimSeedsStayAtomicUnderReconfiguration) {
  sweep(Runtime::kSim, seed_count(4));
}

TEST(ChaosFuzz, ThreadSeedsStayAtomicUnderReconfiguration) {
  sweep(Runtime::kThread, seed_count(2));
}

TEST(ChaosFuzz, ReplayIsBitForBitDeterministic) {
  // The --seed=<N> path: replay that exact episode on the simulator and
  // prove determinism by running it twice. Without the flag, a fixed
  // seed still pins the property in every run.
  std::uint64_t seed = g_replay_seed.value_or(sweep_seed(1));
  std::cout << "[chaos] replaying seed=" << seed << " on SimEnv\n";
  EpisodeOutcome first = run_episode(Runtime::kSim, seed);
  EpisodeOutcome second = run_episode(Runtime::kSim, seed);
  EXPECT_EQ(first.fingerprint, second.fingerprint)
      << "[chaos] seed=" << seed << " episodes diverged — the simulator or "
      << "a protocol consumed unseeded nondeterminism";
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.completed_ops, second.completed_ops);
  if (g_replay_seed.has_value()) {
    std::cout << "[chaos] timeline:\n";
    for (const auto& t : first.timeline) std::cout << "[chaos]   " << t << "\n";
    for (const auto& v : first.violations) {
      std::cout << "[chaos] violation: " << v << "\n";
    }
    std::cout << "[chaos] " << first.completed_ops << " ops, "
              << first.transfers_completed << " transfers ("
              << first.transfers_effective << " effective)\n";
  }
}

}  // namespace
}  // namespace wrs

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg.rfind("--seed=", 0) == 0) {
      value = arg.substr(7);
    } else if (arg == "--seed" && i + 1 < argc) {
      value = argv[++i];
    } else {
      continue;
    }
    char* end = nullptr;
    std::uint64_t seed = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || end == nullptr || *end != '\0') {
      std::cerr << "test_chaos_fuzz: bad --seed value \"" << value
                << "\" (expected a decimal integer)\n";
      return 2;  // fail fast: replaying seed 0 silently helps no one
    }
    wrs::g_replay_seed = seed;
  }
  if (wrs::g_replay_seed.has_value() &&
      ::testing::GTEST_FLAG(filter) == std::string("*")) {
    // --seed replays just that episode unless the caller asked for more.
    ::testing::GTEST_FLAG(filter) = "ChaosFuzz.ReplayIsBitForBitDeterministic";
  }
  return RUN_ALL_TESTS();
}
