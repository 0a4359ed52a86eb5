#include "harness.h"

#include <sys/stat.h>

#include <cerrno>
#include <queue>
#include <unordered_map>

namespace perfbench {

namespace {
const std::int64_t g_process_start = wall_ns();
}  // namespace

std::int64_t process_start_ns() { return g_process_start; }

double reference_ms() {
  const std::int64_t t0 = wall_ns();
  std::map<std::uint64_t, std::string> m;
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  std::uint64_t sink = 0;
  for (int i = 0; i < 50000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x % 40000].assign(48 + (x >> 40) % 32, 'a');
    heap.push(x);
    if (heap.size() > 20000) {
      sink += heap.top();
      heap.pop();
    }
    auto it = m.find((x >> 20) % 40000);
    if (it != m.end()) sink += it->second.size();
  }
  volatile std::uint64_t keep = sink + m.size();
  (void)keep;
  return static_cast<double>(wall_ns() - t0) / 1e6;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::lock_guard lock(mu_);
  // Children per parent, then self = duration - union of the children's
  // intervals clipped to the parent.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::int64_t covered = 0;
    auto it = children.find(i + 1);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    std::string name(s.name);
    LayerTime& lt = out[name.substr(0, name.find('.'))];
    ++lt.spans;
    lt.total_ms += static_cast<double>(s.end - s.start) / 1e6;
    lt.self_ms += static_cast<double>(s.end - s.start - covered) / 1e6;
  }
  return out;
}

void finish_trace(const Tracer& tracer, const Args& args,
                  double overhead_pct) {
  if (!tracer.enabled()) return;
  // mkdir -p of the (relative) trace directory.
  std::string dir;
  for (std::size_t pos = 0; pos != std::string::npos;) {
    pos = args.trace_dir.find('/', pos + 1);
    dir = args.trace_dir.substr(0, pos);
    if (!dir.empty() && mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::cout << "[trace] cannot create " << dir << "\n";
      return;
    }
  }
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  const bool ok = tracer.write_jsonl(path);
  std::cout << "\n[trace] " << tracer.size() << " spans -> " << path
            << (ok ? "" : " (WRITE FAILED)") << "\n";
  std::cout << std::left << std::setw(12) << "layer" << std::right
            << std::setw(10) << "spans" << std::setw(14) << "total_ms"
            << std::setw(14) << "self_ms" << "\n";
  for (const auto& [layer, lt] : tracer.layer_times()) {
    std::cout << std::left << std::setw(12) << layer << std::right
              << std::setw(10) << lt.spans << std::setw(14) << std::fixed
              << std::setprecision(3) << lt.total_ms << std::setw(14)
              << lt.self_ms << "\n";
  }
  std::cout.unsetf(std::ios::fixed);
  std::cout << std::setprecision(6) << "tracing overhead (ops_s, traced vs "
            << "untraced episodes): " << overhead_pct << " %\n";
}

}  // namespace perfbench
