// Example: watching the impossibility proof run.
//
// Theorem 1 says: give me any black box solving the weight reassignment
// problem (Definition 3) and I will solve consensus with it — hence no
// such box exists in an asynchronous failure-prone system (FLP).
//
// This demo wires Algorithm 1 to the oracle linearizer (the "impossible
// box") and runs it: n servers propose different values, exactly one
// reassign completes with a non-zero change, and everyone decides its
// issuer's proposal. The reduction's servers and the oracle are not a
// storage deployment, so they are registered on the simulator directly
// (as bench/paper's EXP-T1 does) instead of through the Cluster facade.
//
// Run: ./build/examples/consensus_reduction_demo
// Exits 1 when the servers' decisions disagree, a server does not
// decide, or the oracle granted other than one effective change.
#include <algorithm>
#include <iostream>
#include <optional>

#include "common/metrics.h"
#include "consensus/oracle.h"
#include "consensus/reduction.h"
#include "runtime/sim_env.h"

using namespace wrs;

int main() {
  const std::uint32_t n = 5, f = 2;
  // The paper's boundary-tight initial weights: members of F get
  // (n-1)/(2f), the rest (n+1)/(2(n-f)).
  const SystemConfig cfg =
      SystemConfig::make(n, f, reduction_initial_weights(n, f));
  SimEnv env(std::make_shared<UniformLatency>(ms(1), ms(20)), /*seed=*/99);

  auto registers = std::make_shared<SharedRegisters>(n);
  std::vector<std::unique_ptr<Alg1Server>> servers;
  for (ProcessId s : cfg.servers()) {
    servers.push_back(std::make_unique<Alg1Server>(env, s, cfg, registers));
    env.register_process(s, servers.back().get());
  }
  OracleReassignService oracle(env, cfg);
  env.register_process(kOracleId, &oracle);
  env.start();

  std::cout << "initial weights: " << cfg.initial_weights.str() << "\n";
  std::cout << "Integrity allows at most ONE of the +1/2 / -1/2 requests "
               "to be granted — that grant is the consensus decision.\n\n";

  const char* proposals[] = {"apply-config-A", "apply-config-B",
                             "apply-config-C", "apply-config-D",
                             "apply-config-E"};
  std::vector<std::optional<std::string>> decided(n);
  std::vector<TimeNs> decided_at(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    servers[i]->propose(proposals[i], [&, i](const std::string& v) {
      decided[i] = v;
      decided_at[i] = env.now();
    });
    std::cout << "s" << i << " proposes \"" << proposals[i] << "\" and asks "
              << (i < f ? "reassign(+1/2)" : "reassign(-1/2)") << "\n";
  }

  env.run_until_pred(
      [&] {
        return std::all_of(decided.begin(), decided.end(),
                           [](const auto& d) { return d.has_value(); });
      },
      seconds(120));
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!decided[i]) {
      std::cout << "s" << i << " did not decide\n";
      continue;
    }
    std::cout << "s" << i << " decided \"" << *decided[i] << "\" by t="
              << Table::fmt(to_ms(decided_at[i])) << " ms\n";
  }

  const bool agree =
      decided[0].has_value() &&
      std::all_of(decided.begin(), decided.end(),
                  [&](const auto& d) { return d == decided[0]; });
  const bool one_grant = oracle.effective_count() == 1;
  std::cout << "\noracle granted " << oracle.effective_count()
            << " effective change(s); all " << n
            << " servers decided the same value: "
            << (agree ? "yes" : "NO (bug!)") << "\n";
  std::cout << "\nSince consensus is unsolvable in this system model, the "
               "oracle's power cannot be implemented — that is Corollary 1. "
               "The implementable fallback is the RESTRICTED pairwise "
               "problem (see examples/quickstart.cpp).\n";
  return agree && one_grant ? 0 : 1;
}
