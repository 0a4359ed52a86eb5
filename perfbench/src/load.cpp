#include "load.h"

#include <cstdlib>
#include <set>

#include "net/encode_arena.h"
#include "net/wire_codec.h"
#include "quorum/wmqs.h"
#include "storage/abd_messages.h"

namespace perfbench {

using wrs::OpRecord;
using wrs::RegisterKey;

namespace {
/// Open-loop bound per client: far above what any workload keeps in
/// flight, so shedding means the deployment stalled.
constexpr std::size_t kMaxInFlight = 4096;
}  // namespace

std::string key_name(std::size_t i) {
  std::string key = "k";
  key += std::to_string(i);
  return key;
}

std::size_t History::begin(OpRecord::Kind kind, wrs::ProcessId process,
                           TimeNs start, std::size_t key) {
  std::lock_guard lock(mu_);
  Rec& r = recs_.emplace_back();
  r.start = start;
  r.key = static_cast<std::uint32_t>(key);
  r.process = process;
  r.write = kind == OpRecord::Kind::kWrite;
  return recs_.size() - 1;
}

void History::set_value(Rec& r, const wrs::Value& value) const {
  const std::size_t pad = value.find('x');
  r.padded = value.size() == value_size_ && pad != std::string::npos &&
             value.find_first_not_of('x', pad) == std::string::npos;
  r.value = r.padded ? value.substr(0, pad) : value;
}

void History::end(std::size_t token, TimeNs end, const wrs::Tag& tag,
                  const wrs::Value& value) {
  std::lock_guard lock(mu_);
  Rec& r = recs_.at(token);
  r.end = end;
  r.tag = tag;
  set_value(r, value);
  r.done = true;
}

void History::snapshot(
    wrs::ProcessId process, TimeNs start, TimeNs end,
    const std::vector<std::pair<RegisterKey, wrs::TaggedValue>>& cut) {
  std::lock_guard lock(mu_);
  const std::uint64_t id = ++snaps_;
  for (const auto& [key, reg] : cut) {
    Rec& r = recs_.emplace_back();
    r.start = start;
    r.end = end;
    r.tag = reg.tag;
    r.snap_id = id;
    r.key = static_cast<std::uint32_t>(std::stoul(key.substr(1)));
    r.process = process;
    r.done = true;
    set_value(r, reg.value);
  }
}

bool History::atomic() const {
  std::vector<OpRecord> ops;
  {
    std::lock_guard lock(mu_);
    ops.reserve(recs_.size());
    for (const Rec& r : recs_) {
      if (!r.done) continue;
      OpRecord& op = ops.emplace_back();
      op.kind = r.write ? OpRecord::Kind::kWrite : OpRecord::Kind::kRead;
      op.process = r.process;
      op.key = key_name(r.key);
      op.start = r.start;
      op.end = r.end;
      op.tag = r.tag;
      op.value = r.value;
      if (r.padded) op.value.resize(value_size_, 'x');
      op.snap_id = r.snap_id;
    }
  }
  auto violation = wrs::check_atomicity(ops);
  if (violation) std::cout << "[atomicity] " << *violation << "\n";
  return !violation.has_value();
}

LoadGen::LoadGen(wrs::Cluster& cluster, LoadParams params,
                 std::shared_ptr<History> history, Tracer& tracer)
    : cluster_(cluster),
      env_(cluster.env()),
      params_(std::move(params)),
      history_(std::move(history)),
      tracer_(tracer) {
  for (std::size_t k : params_.clients) client_state(k);
}

LoadGen::Client& LoadGen::client_state(std::size_t index) {
  for (auto& c : clients_) {
    if (c->index == index) return *c;
  }
  auto c = std::make_unique<Client>();
  c->index = index;
  wrs::ClientHandle h = cluster_.client(index);
  c->pid = h.id();
  c->router = &h.router();
  c->rng = wrs::Rng(params_.seed * 0x9E3779B97F4A7C15ull + index + 1);
  clients_.push_back(std::move(c));
  return *clients_.back();
}

void LoadGen::preload(std::size_t window, TimeNs deadline) {
  // Puts go out in a bounded window rather than as one write_batch of
  // every key, which on the socket transport overruns its pending-frame
  // bound and drops frames without telling the client.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto put_next = std::make_shared<std::function<void(Client&)>>();
  *put_next = [this, next, weak = std::weak_ptr(put_next)](Client& c) {
    std::size_t i = next->fetch_add(1);
    if (i >= params_.num_keys) return;
    ++attempted_;
    ++in_flight_;
    RegisterKey key = key_name(i);
    wrs::Value value = "p#" + std::to_string(i);
    value.resize(std::max(value.size(), params_.value_size), 'x');
    std::size_t tok =
        history_->begin(OpRecord::Kind::kWrite, c.pid, env_.now(), i);
    c.router->write(key, value,
                    [this, &c, tok, value, weak](const wrs::Tag& tag) {
                      history_->end(tok, env_.now(), tag, value);
                      ++completed_;
                      if (auto fn = weak.lock()) (*fn)(c);
                      --in_flight_;
                    });
  };
  const std::size_t per =
      std::max<std::size_t>(1, window / std::max<std::size_t>(1, clients_.size()));
  for (std::size_t k = 0; k < params_.clients.size(); ++k) {
    Client* c = &client_state(params_.clients[k]);
    env_.schedule(c->pid, 0, [put_next, c, per] {
      for (std::size_t i = 0; i < per; ++i) (*put_next)(*c);
    });
  }
  wait_until(cluster_,
             [&] { return next->load() >= params_.num_keys && in_flight() == 0; },
             deadline);
  // Keys never written count as failed attempts.
  std::size_t written = std::min(next->load(), params_.num_keys);
  attempted_ += params_.num_keys - written;
}

void LoadGen::start(TimeNs until) {
  for (std::size_t k : params_.clients) {
    Client* c = &client_state(k);
    c->until = until;
    env_.schedule(c->pid, 0, [this, c] {
      c->next_arrival = env_.now();
      schedule_arrival(*c);
    });
  }
}

void LoadGen::start_snapshots(std::size_t client, TimeNs period,
                              TimeNs until) {
  Client* c = &client_state(client);
  c->until = until;
  env_.schedule(c->pid, 0, [this, c, period] { snapshot_tick(*c, period); });
}

void LoadGen::snapshot_tick(Client& c, TimeNs period) {
  if (!may_issue(c)) return;
  issue_snapshot(c);
  env_.schedule(c.pid, period,
                [this, cp = &c, period] { snapshot_tick(*cp, period); });
}

bool LoadGen::may_issue(const Client& c) const {
  return env_.now() < c.until;
}

void LoadGen::schedule_arrival(Client& c) {
  const auto period = static_cast<TimeNs>(1e9 / params_.rate_per_client);
  c.next_arrival += period;
  if (c.next_arrival >= c.until) return;
  TimeNs now = env_.now();
  TimeNs delay = c.next_arrival > now ? c.next_arrival - now : 0;
  env_.schedule(c.pid, delay, [this, cp = &c] {
    if (cp->in_flight >= kMaxInFlight) {
      ++attempted_;  // shed: attempted, never completed
    } else {
      issue(*cp, cp->next_arrival);
    }
    schedule_arrival(*cp);
  });
}

void LoadGen::issue(Client& c, TimeNs intended) {
  const bool is_read = c.rng.uniform() < params_.read_ratio;
  const std::size_t ki = c.rng.below(params_.num_keys);
  RegisterKey key = key_name(ki);
  const std::uint64_t op = ++op_seq_;
  ++attempted_;
  ++in_flight_;
  ++c.in_flight;
  const std::uint64_t span = tracer_.open("shard.issue", tracer_.root(), op);
  const std::int64_t t0 = span ? wall_ns() : 0;
  const TimeNs now = env_.now();
  if (is_read) {
    std::size_t tok = history_->begin(OpRecord::Kind::kRead, c.pid, now, ki);
    c.router->read(key, [this, &c, intended, tok](const wrs::TaggedValue& tv) {
      history_->end(tok, env_.now(), tv.tag, tv.value);
      on_done(c, intended);
    });
  } else {
    // Append style: chained operator+ trips gcc's -Wrestrict false
    // positive (PR105329).
    wrs::Value v = "c";
    v += std::to_string(c.index);
    v += '#';
    v += std::to_string(++c.issued);
    v.resize(std::max(v.size(), params_.value_size), 'x');
    std::size_t tok = history_->begin(OpRecord::Kind::kWrite, c.pid, now, ki);
    c.router->write(key, v, [this, &c, intended, tok, v](const wrs::Tag& tag) {
      history_->end(tok, env_.now(), tag, v);
      on_done(c, intended);
    });
  }
  if (span != 0) {
    const std::int64_t t1 = wall_ns();
    tracer_.close(span);
    std::lock_guard lock(mu_);
    issue_ns_.push_back(static_cast<double>(t1 - t0));
  }
}

void LoadGen::on_done(Client& c, TimeNs start) {
  {
    std::lock_guard lock(mu_);
    ops_.push_back(OpSample{start, env_.now()});
  }
  ++completed_;
  --c.in_flight;
  if (params_.snapshot_every > 0 &&
      ++c.since_snapshot >= params_.snapshot_every && may_issue(c)) {
    c.since_snapshot = 0;
    issue_snapshot(c);
  }
  // Last, so drain() never sees a transient zero between an op and the
  // snapshot it triggers.
  --in_flight_;
}

void LoadGen::issue_snapshot(Client& c) {
  const std::size_t want = std::min(params_.snapshot_keys, params_.num_keys);
  std::set<std::size_t> picked;
  while (picked.size() < want) picked.insert(c.rng.below(params_.num_keys));
  std::vector<RegisterKey> keys;
  keys.reserve(want);
  for (std::size_t i : picked) keys.push_back(key_name(i));

  const std::uint64_t op = ++op_seq_;
  ++attempted_;
  ++in_flight_;
  const TimeNs start = env_.now();
  Scoped span(tracer_, "shard.snapshot", tracer_.root(), op);
  c.router->snapshot(std::move(keys), [this, &c, start](
                                          const wrs::ShardRouter::SnapshotResult& r) {
    const TimeNs end = env_.now();
    history_->snapshot(c.pid, start, end, r.cut);
    {
      std::lock_guard lock(mu_);
      cuts_.push_back(CutSample{start, end, r.rounds, r.used_fallback});
    }
    ++completed_;
    --in_flight_;
  });
}

bool LoadGen::drain(TimeNs deadline) {
  return wait_until(cluster_, [this] { return in_flight() == 0; }, deadline);
}

std::vector<OpSample> LoadGen::ops() const {
  std::lock_guard lock(mu_);
  return {ops_.begin(), ops_.end()};
}

std::vector<CutSample> LoadGen::cuts() const {
  std::lock_guard lock(mu_);
  return {cuts_.begin(), cuts_.end()};
}

std::vector<double> LoadGen::issue_ns() const {
  std::lock_guard lock(mu_);
  return issue_ns_;
}

void LoadGen::clear_samples() {
  std::lock_guard lock(mu_);
  ops_.clear();
  cuts_.clear();
  issue_ns_.clear();
}

bool wait_until(wrs::Cluster& cluster, const std::function<bool()>& pred,
                TimeNs deadline) {
  while (!pred()) {
    if (cluster.now() >= deadline) return false;
    cluster.run_for(wrs::ms(5));
  }
  return true;
}

double recovery_s(std::vector<OpSample> ops, TimeNs from, TimeNs limit,
                  double baseline_ns) {
  std::sort(ops.begin(), ops.end(),
            [](const OpSample& a, const OpSample& b) { return a.end < b.end; });
  const TimeNs window = wrs::seconds(1);
  std::size_t lo = 0;
  TimeNs last_eval = -1;
  std::vector<double> buf;
  for (std::size_t hi = 0; hi < ops.size(); ++hi) {
    const TimeNs t = ops[hi].end;
    if (t < from + window || t > limit) continue;
    // Evaluate at most once per simulated millisecond.
    if (last_eval >= 0 && t - last_eval < wrs::ms(1)) continue;
    last_eval = t;
    while (ops[lo].end <= t - window) ++lo;
    buf.clear();
    for (std::size_t i = lo; i <= hi; ++i) {
      buf.push_back(static_cast<double>(ops[i].end - ops[i].start));
    }
    if (median(buf) <= 1.5 * baseline_ns) {
      return static_cast<double>(t - from) / 1e9;
    }
  }
  return static_cast<double>(limit - from) / 1e9;
}

std::vector<double> latencies(const std::vector<OpSample>& ops, TimeNs from,
                              TimeNs to) {
  std::vector<double> out;
  for (const OpSample& s : ops) {
    if (s.start >= from && s.start < to) {
      out.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return out;
}

void run_in(wrs::Cluster& cluster, wrs::ProcessId pid,
            const std::function<void()>& fn) {
  auto done = cluster.make_await<bool>();
  cluster.post(pid, [&fn, done] {
    fn();
    done.fulfill(true);
  });
  if (!done.try_get(wrs::seconds(30)).has_value()) {
    // `fn` refers to the caller's frame: end the run rather than return.
    std::cerr << "perfbench: " << wrs::process_name(pid)
              << " did not run a posted task within 30 s\n";
    std::_Exit(1);
  }
}

Metrics median_over(const std::vector<Metrics>& runs) {
  std::map<std::string, std::vector<double>> all;
  for (const Metrics& m : runs) {
    for (const auto& [k, v] : m) all[k].push_back(v);
  }
  Metrics out;
  for (auto& [k, v] : all) out[k] = median(std::move(v));
  return out;
}

void latency_metrics(const std::vector<OpSample>& ops,
                     const std::vector<CutSample>& cuts, const Phase& ph,
                     Metrics& m) {
  // Outside the window: before it and after it, pooled.
  auto outside = [&](double p) {
    std::vector<double> v = latencies(ops, ph.start, ph.w0);
    std::vector<double> after = latencies(ops, ph.w1, ph.end);
    v.insert(v.end(), after.begin(), after.end());
    return percentile(std::move(v), p);
  };
  m["op_p50_ms"] = outside(50) / 1e6;
  m["op_p99_ms"] = outside(99) / 1e6;
  m["degraded_p99_ms"] = percentile(latencies(ops, ph.w0, ph.w1), 99) / 1e6;
  const double baseline = median(latencies(ops, ph.start, ph.w0));
  m["recovery_s"] = recovery_s(ops, ph.w0, ph.end, baseline);
  std::vector<double> cut_ns;
  for (const CutSample& c : cuts) {
    cut_ns.push_back(static_cast<double>(c.end - c.start));
  }
  m["snap_p50_ms"] = percentile(cut_ns, 50) / 1e6;
  m["snap_p99_ms"] = percentile(cut_ns, 99) / 1e6;
  double rounds = 0, fallbacks = 0;
  for (const CutSample& c : cuts) {
    rounds += c.rounds;
    fallbacks += c.fallback ? 1 : 0;
  }
  const double n = std::max<double>(1, static_cast<double>(cuts.size()));
  m["shard.snap_rounds_per_cut"] = rounds / n;
  m["shard.snap_fallback_ratio"] = fallbacks / n;
}

CodecCost codec_cost(const wrs::Counters& traffic, std::size_t value_size,
                     std::uint32_t n, Tracer& tracer) {
  Scoped span(tracer, "net.codec");
  auto changes = std::make_shared<const wrs::ChangeSet>(
      wrs::ChangeSet::initial(wrs::WeightMap::uniform(n)));
  wrs::Value value(value_size, 'v');
  wrs::TaggedValue reg{wrs::Tag{42, wrs::client_id(1)}, value};
  const wrs::ReadReq r(7, "k1234", 1, 1);
  const wrs::ReadAck ra(7, reg, changes, 1);
  const wrs::WriteReq w(7, reg, "k1234", 2, 1);
  const wrs::WriteAck wa(7, changes, 2);
  const std::pair<const wrs::Message*, double> kinds[] = {
      {&r, static_cast<double>(traffic.get("msg.R"))},
      {&ra, static_cast<double>(traffic.get("msg.R_A"))},
      {&w, static_cast<double>(traffic.get("msg.W"))},
      {&wa, static_cast<double>(traffic.get("msg.W_A"))}};
  double total = 0;
  for (const auto& k : kinds) total += k.second;

  // 1000 frames in the workload's proportions, interleaved.
  std::vector<const wrs::Message*> mix;
  std::vector<double> credit(4, 0);
  for (int i = 0; i < 1000 && total > 0; ++i) {
    std::size_t best = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      credit[k] += kinds[k].second / total;
      if (credit[k] > credit[best]) best = k;
    }
    credit[best] -= 1;
    mix.push_back(kinds[best].first);
  }
  if (mix.empty()) return {};

  wrs::net::EncodeArena arena;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const wrs::Message* m : mix) {
    frames.push_back(wrs::net::WireCodec::encode_frame(1, 2, *m));
  }
  std::vector<double> enc, dec;
  std::size_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    std::int64_t t0 = wall_ns();
    for (const wrs::Message* m : mix) {
      sink += wrs::net::WireCodec::encode_frame_arena(arena, 1, 2, *m).size();
    }
    std::int64_t t1 = wall_ns();
    for (const auto& f : frames) {
      auto d = wrs::net::WireCodec::decode_frame(f.data() + 4, f.size() - 4);
      sink += d.has_value() ? 1 : 0;
    }
    std::int64_t t2 = wall_ns();
    enc.push_back(static_cast<double>(t1 - t0) / static_cast<double>(mix.size()));
    dec.push_back(static_cast<double>(t2 - t1) / static_cast<double>(mix.size()));
  }
  if (sink == 0) std::cout << "[codec] nothing encoded\n";
  return CodecCost{median(enc), median(dec)};
}

double is_quorum_ns(const wrs::WeightMap& weights, Tracer& tracer) {
  Scoped span(tracer, "quorum.is_quorum");
  wrs::Wmqs q(weights);
  const std::vector<wrs::ProcessId> servers = weights.servers();
  std::vector<std::vector<wrs::ProcessId>> subsets;
  for (std::uint32_t mask = 1; mask < (1u << servers.size()); ++mask) {
    std::vector<wrs::ProcessId> s;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (mask & (1u << i)) s.push_back(servers[i]);
    }
    subsets.push_back(std::move(s));
  }
  std::vector<double> per_call;
  std::size_t yes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const int loops = 2000;
    std::int64_t t0 = wall_ns();
    for (int l = 0; l < loops; ++l) {
      for (const auto& s : subsets) yes += q.is_quorum(s) ? 1 : 0;
    }
    std::int64_t t1 = wall_ns();
    per_call.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(loops * subsets.size()));
  }
  if (yes == 0) std::cout << "[quorum] no subset is a quorum\n";
  return median(per_call);
}

}  // namespace perfbench
