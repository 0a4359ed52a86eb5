// wrs-node — one OS process hosting one replica group (shard) of the
// weighted-quorum store, serving clients over TCP or Unix sockets.
//
//   wrs-node --shard=0 --num-shards=2 --servers=3 --faults=1
//            --listen=tcp:127.0.0.1:7000 [--service-time-us=100]
//            [--retry-ms=10] [--anti-entropy-ms=25] [--seed=1]
//            [--ready-fd=N]
//
// After the listener is bound the process prints its actual address
// ("tcp:127.0.0.1:7000", with port 0 resolved to the ephemeral choice)
// on stdout — or to --ready-fd when given — then serves until SIGTERM
// or SIGINT. Every flag takes the form --key=value; an unknown flag or
// a malformed or out-of-range number exits with status 2.
#ifdef __linux__

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <exception>

#include "deploy/node_runner.h"

namespace {

std::atomic<bool> g_stop{false};

void stop_handler(int) { g_stop.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  struct sigaction sa{};
  sa.sa_handler = stop_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  try {
    wrs::deploy::NodeOptions opts = wrs::deploy::parse_node_flags(argc, argv);
    return wrs::deploy::run_node(opts, &g_stop);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}

#else  // !__linux__

#include <cstdio>

int main() {
  std::fprintf(stderr, "wrs-node: the socket runtime requires Linux\n");
  return 2;
}

#endif
