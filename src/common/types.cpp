#include "common/types.h"

#include <numeric>

namespace wrs {

std::vector<ProcessId> all_servers(std::uint32_t n) {
  return server_range(0, n);
}

std::vector<ProcessId> server_range(ProcessId base, std::uint32_t n) {
  std::vector<ProcessId> out(n);
  std::iota(out.begin(), out.end(), base);
  return out;
}

std::string process_name(ProcessId id) {
  if (id == kNoProcess) return "none";
  if (is_server(id)) return std::string("s").append(std::to_string(id));
  return std::string("c").append(std::to_string(id - kClientIdBase));
}

}  // namespace wrs
