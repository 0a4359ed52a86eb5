#ifdef __linux__

#include "deploy/node_runner.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "net/socket_addr.h"
#include "runtime/socket_env.h"
#include "shard/shard_map.h"
#include "storage/dynamic_node.h"

namespace wrs::deploy {
namespace {

/// Poll period for the stop flag while the loop thread does the work.
constexpr auto kStopPoll = std::chrono::milliseconds(100);

void write_ready_line(int fd, const std::string& addr) {
  std::string line = addr + "\n";
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // parent gone; keep serving anyway
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

}  // namespace

int run_node(const NodeOptions& opts, const std::atomic<bool>* stop) {
  if (opts.servers_per_shard == 0 || opts.num_shards == 0 ||
      opts.shard >= opts.num_shards) {
    std::fprintf(stderr,
                 "wrs-node: need servers >= 1 and shard < num_shards "
                 "(got shard=%u num_shards=%u servers=%u)\n",
                 opts.shard, opts.num_shards, opts.servers_per_shard);
    return 2;
  }

  ShardMap shard_map = ShardMap::uniform(opts.num_shards,
                                         opts.servers_per_shard, opts.faults);
  const SystemConfig& cfg = shard_map.config(opts.shard);

  SocketEnv::Options env_opts;
  env_opts.listen = net::SocketAddr::parse(opts.listen);
  env_opts.seed = opts.seed;
  SocketEnv env(env_opts);

  std::vector<std::unique_ptr<DynamicStorageNode>> nodes;
  for (ProcessId s : cfg.servers()) {
    auto node = std::make_unique<DynamicStorageNode>(env, s, cfg);
    if (opts.service_time > 0) node->server().set_service_time(opts.service_time);
    if (opts.retry > 0) node->client().set_retry_interval(opts.retry);
    if (opts.anti_entropy > 0) node->reassign().enable_sync(opts.anti_entropy);
    env.register_process(s, node.get());
    nodes.push_back(std::move(node));
  }

  env.start();
  std::string addr = env.listen_addr().str();
  if (opts.ready_fd >= 0) {
    write_ready_line(opts.ready_fd, addr);
    ::close(opts.ready_fd);
  } else {
    std::printf("%s\n", addr.c_str());
    std::fflush(stdout);
  }

  while (stop == nullptr || !stop->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(kStopPoll);
  }
  env.stop();
  return 0;
}

// --- flag parsing ------------------------------------------------------------

namespace {

/// A decimal number that fits T. from_chars, unlike stoull, rejects
/// leading whitespace and (for unsigned T) a sign, and reports a value
/// out of T's range instead of wrapping: "--seed=-1" and
/// "--shard=4294967296" are errors, not 2^64-1 and shard 0.
template <typename T>
T parse_number(const std::string& flag, const std::string& v) {
  T out{};
  const char* end = v.data() + v.size();
  auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("wrs-node: bad number for " + flag + ": \"" +
                                v + "\"");
  }
  return out;
}

/// Applies one --key=value flag; `key` is the flag without its dashes.
void apply_option(NodeOptions& opts, const std::string& key,
                  const std::string& value) {
  auto u32 = [&] { return parse_number<std::uint32_t>(key, value); };
  auto u64 = [&] { return parse_number<std::uint64_t>(key, value); };
  if (key == "shard") {
    opts.shard = u32();
  } else if (key == "num-shards") {
    opts.num_shards = u32();
  } else if (key == "servers") {
    opts.servers_per_shard = u32();
  } else if (key == "faults") {
    opts.faults = u32();
  } else if (key == "listen") {
    opts.listen = value;
  } else if (key == "service-time-us") {
    opts.service_time = us(static_cast<double>(u64()));
  } else if (key == "retry-ms") {
    opts.retry = ms(static_cast<double>(u64()));
  } else if (key == "anti-entropy-ms") {
    opts.anti_entropy = ms(static_cast<double>(u64()));
  } else if (key == "seed") {
    opts.seed = u64();
  } else if (key == "ready-fd") {
    opts.ready_fd = parse_number<int>(key, value);
  } else {
    throw std::invalid_argument("wrs-node: unknown option \"" + key + "\"");
  }
}

}  // namespace

NodeOptions parse_node_flags(int argc, const char* const* argv) {
  NodeOptions opts;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("wrs-node: unknown argument \"" + arg +
                                  "\" (flags are --key=value)");
    }
    std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("wrs-node: flag " + arg + " needs =value");
    }
    apply_option(opts, arg.substr(2, eq - 2), arg.substr(eq + 1));
  }
  return opts;
}

// --- fork helpers -----------------------------------------------------------

namespace {

std::atomic<bool> g_child_stop{false};

void child_stop_handler(int) {
  g_child_stop.store(true, std::memory_order_release);
}

}  // namespace

SpawnedNode spawn_node_group(NodeOptions opts) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(std::string("spawn_node_group: pipe: ") +
                             std::strerror(errno));
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error(std::string("spawn_node_group: fork: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child: become a node process, report ready over the pipe.
    ::close(pipe_fds[0]);
    g_child_stop.store(false);
    struct sigaction sa{};
    sa.sa_handler = child_stop_handler;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    opts.ready_fd = pipe_fds[1];
    int rc = 2;
    try {
      rc = run_node(opts, &g_child_stop);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wrs-node (shard %u): %s\n", opts.shard, e.what());
    }
    ::_exit(rc);  // never unwind into the parent's state
  }
  ::close(pipe_fds[1]);
  // Read the ready line "<addr>\n".
  std::string addr;
  char c;
  while (true) {
    ssize_t n = ::read(pipe_fds[0], &c, 1);
    if (n == 1) {
      if (c == '\n') break;
      addr.push_back(c);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF before newline: child died
  }
  ::close(pipe_fds[0]);
  if (addr.empty()) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    throw std::runtime_error("spawn_node_group: shard " +
                             std::to_string(opts.shard) +
                             " died before reporting ready");
  }
  return SpawnedNode{pid, addr};
}

void stop_node_group(const SpawnedNode& node) {
  if (node.pid <= 0) return;
  ::kill(node.pid, SIGTERM);
  int status = 0;
  ::waitpid(node.pid, &status, 0);
}

void kill_node_group(const SpawnedNode& node) {
  if (node.pid <= 0) return;
  ::kill(node.pid, SIGKILL);
  int status = 0;
  ::waitpid(node.pid, &status, 0);
}

}  // namespace wrs::deploy

#endif  // __linux__
