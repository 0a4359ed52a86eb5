// Quickstart: a 4-server dynamic-weighted atomic register in ~50 lines.
//
//   1. deploy four dynamic storage nodes (reassignment + weighted ABD)
//      through the wrs::Cluster facade;
//   2. write and read a value through an awaitable client;
//   3. pipeline a batch of writes over distinct keys through ONE client
//      and fan the tags in with when_all;
//   4. transfer voting weight from s3 to s0 with Algorithm 4;
//   5. observe the new weights and the shrunken quorum.
//
// The SAME source runs on the deterministic simulator (default), the
// thread-per-process runtime ("threads" as the first argument) or real
// loopback TCP sockets ("sockets", Linux only).
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart [threads|sockets]
#include <cstring>
#include <iostream>

#include "api/cluster.h"

using namespace wrs;

int main(int argc, char** argv) {
  Runtime runtime = Runtime::kSim;
  if (argc > 1 && std::strcmp(argv[1], "threads") == 0) {
    runtime = Runtime::kThread;
  } else if (argc > 1 && std::strcmp(argv[1], "sockets") == 0) {
    runtime = Runtime::kSocket;
  }

  // A 4-server system tolerating f=1 crash, uniform initial weights.
  // The RP-Integrity floor is W_{S,0}/(2(n-f)) = 4/6 = 2/3.
  Cluster cluster = Cluster::builder()
                        .servers(4)
                        .faults(1)
                        .uniform_latency(ms(1), ms(10))
                        .runtime(runtime)
                        .seed(7)
                        .build();
  ClientHandle client = cluster.client();

  // --- write, then read back ------------------------------------------------
  Tag tag = client.write("hello, weighted quorums").get();
  std::cout << "wrote with tag " << tag.str() << "\n";

  TaggedValue tv = client.read().get();
  std::cout << "read back: \"" << tv.value << "\" (tag " << tv.tag.str()
            << ")\n";

  // --- pipeline a batch over distinct keys ----------------------------------
  // One client multiplexes any number of in-flight operations: the whole
  // batch is issued before the first quorum round completes, so the wall
  // clock pays ~one round trip, not one per key.
  std::vector<std::pair<RegisterKey, Value>> puts;
  for (int i = 0; i < 8; ++i) {
    puts.emplace_back("shard" + std::to_string(i), "value" + std::to_string(i));
  }
  std::vector<Tag> tags = when_all(client.write_batch(puts)).get();
  std::cout << "pipelined " << tags.size() << " writes through one client; "
            << "keys stored: " << client.list_keys().get().size() << "\n";

  // --- reassign weight (Algorithm 4) ----------------------------------------
  // s3 donates 1/4 of its voting power to s0. The C2 check requires
  // 1 > 1/4 + 2/3, which holds, so the transfer is effective.
  TransferOutcome outcome = cluster.server(3).transfer(0, Weight(1, 4)).get();
  std::cout << "transfer completed, effective=" << outcome.effective << "\n";
  cluster.quiesce();

  // --- inspect the new quorum geometry --------------------------------------
  WeightMap weights = cluster.server(1).weights_snapshot().get();
  std::cout << "weights after transfer: " << weights.str() << "\n";
  Wmqs quorums(weights);
  std::cout << "minimum quorum size: " << quorums.min_quorum_size()
            << " (was 3 with uniform weights)\n";
  std::cout << "available with f=1 crash? "
            << (quorums.is_available(cluster.config().f) ? "yes" : "no")
            << "\n";

  // A follow-up read still works — clients discover the new weights via
  // the piggybacked change sets and restart onto the new quorum system.
  std::cout << "read after reassignment: \"" << client.read().get().value
            << "\"\n";
  return 0;
}
