// Example: riding out a degraded replica — and a crash — without
// reconfiguration.
//
// The set of servers and the fault threshold f are STATIC (that is the
// paper's model); what changes is voting power. When a replica turns
// slow, it demotes itself (C1: only the owner moves its weight; C2: it
// keeps the floor). When a replica crashes, nothing needs to happen at
// all: Property 1 guarantees a weighted quorum of correct servers.
//
// Run: ./build/examples/slow_replica_failover
// Exits 1 unless adaptation demoted s2 below 1 while keeping it above the
// floor and the total weight conserved.
#include <iostream>

#include "api/cluster.h"

using namespace wrs;

namespace {

WeightMap report(const char* phase, Cluster& cluster, ClientHandle& client) {
  // Measure 20 reads.
  Histogram lat;
  for (int i = 0; i < 20; ++i) {
    TimeNs start = cluster.now();
    client.read().get(seconds(30));
    lat.add_time(cluster.now() - start);
  }
  // Read the weight map from the first server that is still alive.
  ProcessId alive = kNoProcess;
  for (ProcessId s : cluster.config().servers()) {
    if (!cluster.is_crashed(s)) {
      alive = s;
      break;
    }
  }
  WeightMap weights = cluster.server(alive).weights_snapshot().get();
  std::cout << phase << ": read p50 " << Table::fmt(to_ms(lat.percentile(50)))
            << " ms, weights " << weights.str() << "\n";
  return weights;
}

}  // namespace

int main() {
  AdaptiveParams params;
  params.probe_interval = ms(100);
  params.eval_interval = ms(300);
  params.step = Weight(1, 20);
  params.slow_factor = 2.0;

  Cluster cluster = Cluster::builder()
                        .servers(5)
                        .faults(1)
                        .uniform_latency(ms(2), ms(8))
                        .seed(31)
                        .adaptive(params)
                        .build();
  ClientHandle client = cluster.client();

  client.write("payload").get(seconds(30));
  report("healthy          ", cluster, client);

  // Phase 2: s2 degrades 30x. Its own monitoring notices (via gossip)
  // and it starts donating weight to faster peers.
  cluster.slow(2, 30.0);
  cluster.run_for(seconds(15));  // let adaptation converge
  const WeightMap adapted = report("s2 slow (adapted)", cluster, client);
  std::cout << "   s2 demoted itself toward the floor "
            << cluster.config().floor().str()
            << " — approach (I) of Section V-C is the "
            << "only one available, and only s2 itself may execute it.\n";

  // Phase 3: s2 crashes outright. f=1 is budgeted for this: Property 1
  // (maintained by RP-Integrity) says the remaining servers hold a
  // strict weighted majority, so reads/writes continue untouched.
  cluster.crash(2);
  report("s2 crashed       ", cluster, client);

  std::cout << "\nNo reconfiguration, no consensus, no epoch boundaries: "
               "the server set and f never changed — only voting power "
               "moved, and availability held throughout.\n";

  const Weight floor = cluster.config().floor();
  const Weight total = cluster.config().initial_total();
  if (!(adapted.of(2) < Weight(1)) || !(adapted.of(2) > floor) ||
      adapted.total() != total) {
    std::cout << "FAIL: expected s2 in (" << floor.str() << ", 1) and total "
              << total.str() << ", got " << adapted.str() << "\n";
    return 1;
  }
  return 0;
}
