// Shared helpers for the experiment harnesses in bench/.
//
// Each binary prints its experiments as tables on stdout, checks its own
// results through gate(), and with `--json <path>` appends them as JSON
// lines. Simulator runs are seeded and deterministic.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "common/metrics.h"
#include "core/config.h"
#include "runtime/sim_env.h"
#include "storage/dynamic_node.h"
#include "workload/wan_profiles.h"
#include "workload/workload.h"

namespace wrs::bench {

inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n==== " << id << ": " << title << " ====\n\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

#ifndef WRS_GIT_SHA
#define WRS_GIT_SHA "unknown"
#endif

/// Machine-readable experiment output: rows of (name, value) fields per
/// experiment, written as JSON so the perf trajectory can be tracked
/// across PRs:
///
///   {"experiment": ..., "git_sha": "...", "seed": ..., "rows": [{...}]}
///
/// `git_sha` is baked in at configure time and `seed` is set by the
/// harness (null when a run is unseeded), so every recorded BENCH_*.json
/// line is reproducible: check out the SHA, rerun with the seed.
class JsonReport {
 public:
  explicit JsonReport(std::string experiment)
      : experiment_(std::move(experiment)) {}

  /// Records the master seed the experiment ran under.
  JsonReport& seed(std::uint64_t s) {
    seed_ = std::to_string(s);
    return *this;
  }

  /// Opens a fresh row; subsequent field() calls fill it.
  JsonReport& row() {
    rows_.emplace_back();
    return *this;
  }

  /// Opens a row describing one shard of a sharded run (shard < 0 opens
  /// the aggregate row, tagged "all") — keeps per-shard and aggregate
  /// rows of the same experiment distinguishable to consumers.
  JsonReport& shard_row(std::int64_t shard) {
    row();
    if (shard < 0) {
      field("shard", std::string("all"));
    } else {
      field("shard", static_cast<double>(shard));
    }
    return *this;
  }

  /// Emits every counter of `c` as "<prefix><name>" fields on the open
  /// row (e.g. the per-shard msgs/bytes counters next to the aggregate).
  JsonReport& counters(const Counters& c, const std::string& prefix = "") {
    for (const auto& [name, value] : c.map()) {
      field(prefix + name, static_cast<double>(value));
    }
    return *this;
  }

  JsonReport& field(const std::string& name, double value) {
    std::ostringstream os;
    if (std::isfinite(value)) {
      os << value;
    } else {
      os << "null";  // JSON has no NaN/inf literals
    }
    rows_.back().emplace_back(name, os.str());
    return *this;
  }
  JsonReport& field(const std::string& name, const std::string& value) {
    std::string quoted = "\"";
    quoted += escape(value);
    quoted += '"';
    rows_.back().emplace_back(name, std::move(quoted));
    return *this;
  }

  /// Value of a numeric field on the most recently opened row (0 when
  /// absent) — lets a sweep echo a row field into its console table.
  double last_field(const std::string& name) const {
    if (rows_.empty()) return 0;
    for (const auto& [n, v] : rows_.back()) {
      if (n == name) return std::strtod(v.c_str(), nullptr);
    }
    return 0;
  }

  /// Appends this experiment's object to `path` (one JSON object per
  /// line, so several experiments in one binary can share a file).
  /// Returns false — and says so — when the file cannot be written, so
  /// a perf-tracking pipeline never silently records nothing.
  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::app);
    out << str() << "\n";
    out.flush();
    if (!out) {
      std::cerr << "[json] ERROR: cannot write " << experiment_ << " to "
                << path << "\n";
      return false;
    }
    std::cout << "[json] " << experiment_ << " -> " << path << "\n";
    return true;
  }

  std::string str() const {
    std::ostringstream os;
    os << "{\"experiment\":\"" << escape(experiment_) << "\",\"git_sha\":\""
       << escape(WRS_GIT_SHA) << "\",\"seed\":"
       << (seed_.empty() ? "null" : seed_) << ",\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << (r ? ",{" : "{");
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        os << (f ? "," : "") << "\"" << escape(rows_[r][f].first)
           << "\":" << rows_[r][f].second;
      }
      // Derived field: every row carrying both a message count and a
      // completed-op count also reports msgs/op, the batching/overhead
      // metric — readers no longer divide by hand.
      if (!has_field(rows_[r], "msgs_per_op")) {
        double msgs = 0, ops = 0;
        if (numeric_field(rows_[r], "msgs", &msgs) &&
            numeric_field(rows_[r], "ops_completed", &ops) && ops > 0) {
          os << (rows_[r].empty() ? "" : ",") << "\"msgs_per_op\":"
             << msgs / ops;
        }
      }
      os << "}";
    }
    os << "]}";
    return os.str();
  }

 private:
  using Row = std::vector<std::pair<std::string, std::string>>;

  static bool has_field(const Row& row, const std::string& name) {
    for (const auto& [n, _] : row) {
      if (n == name) return true;
    }
    return false;
  }

  /// Reads field `name` of `row` as a number; false when absent or
  /// non-numeric (string fields are stored quoted).
  static bool numeric_field(const Row& row, const std::string& name,
                            double* out) {
    for (const auto& [n, v] : row) {
      if (n != name) continue;
      if (v.empty() || v.front() == '"' || v == "null") return false;
      *out = std::strtod(v.c_str(), nullptr);
      return true;
    }
    return false;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        out.push_back('\\');
        out.push_back(ch);
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
        out += buf;
      } else {
        out.push_back(ch);
      }
    }
    return out;
  }

  std::string experiment_;
  std::string seed_;  // empty = unseeded (emitted as null)
  std::vector<Row> rows_;
};

/// One table of results. Each cell is set once and renders twice: as a
/// console column under its header, and as a JSON field named after the
/// header ("read p50 (ms)" -> "read_p50_ms", "msgs/transfer" ->
/// "msgs_per_transfer"). Every row also records `msgs`, the messages its
/// run sent, as its last column.
class Report {
 public:
  explicit Report(std::string experiment, std::string caption = "")
      : experiment_(std::move(experiment)), caption_(std::move(caption)) {}

  Report& row(std::int64_t msgs) {
    rows_.push_back({{}, msgs});
    return *this;
  }
  /// Numeric cell, shown with `precision` decimals.
  Report& num(const std::string& header, double value, int precision = 2) {
    rows_.back().cells.push_back(
        {header, Table::fmt(value, precision), value});
    return *this;
  }
  /// Text cell: labels, rationals, "25/25".
  Report& text(const std::string& header, std::string value) {
    rows_.back().cells.push_back({header, std::move(value), std::nullopt});
    return *this;
  }

  std::int64_t msgs() const {
    std::int64_t total = 0;
    for (const Row& r : rows_) total += r.msgs;
    return total;
  }

  void print() const {
    if (rows_.empty()) return;
    if (!caption_.empty()) std::cout << caption_ << "\n";
    std::vector<std::string> headers;
    for (const Cell& c : rows_.front().cells) headers.push_back(c.header);
    headers.push_back("msgs");
    Table table(std::move(headers));
    for (const Row& r : rows_) {
      std::vector<std::string> shown;
      for (const Cell& c : r.cells) shown.push_back(c.shown);
      shown.push_back(std::to_string(r.msgs));
      table.add_row(std::move(shown));
    }
    table.print();
  }

  JsonReport json(std::optional<std::uint64_t> seed) const {
    JsonReport out(experiment_);
    if (seed) out.seed(*seed);
    for (const Row& r : rows_) {
      out.row();
      for (const Cell& c : r.cells) {
        if (c.value) {
          out.field(key(c.header), *c.value);
        } else {
          out.field(key(c.header), c.shown);
        }
      }
      out.field("msgs", static_cast<double>(r.msgs));
    }
    return out;
  }

 private:
  struct Cell {
    std::string header;
    std::string shown;
    std::optional<double> value;  // absent for text cells
  };
  struct Row {
    std::vector<Cell> cells;
    std::int64_t msgs;
  };

  static std::string key(const std::string& header) {
    std::string out;
    auto separate = [&out] {
      if (!out.empty() && out.back() != '_') out.push_back('_');
    };
    for (char ch : header) {
      if (std::isalnum(static_cast<unsigned char>(ch))) {
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch))));
      } else if (ch == '/') {
        separate();
        out += "per_";
      } else if (ch == '%') {
        separate();
        out += "pct_";
      } else {
        separate();
      }
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    return out;
  }

  std::string experiment_;
  std::string caption_;
  std::vector<Row> rows_;
};

/// `--json <path>` from a bench binary's argv; empty when absent. A
/// dangling `--json` with no path is a usage error, not a silent no-op.
inline std::string json_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    if (i + 1 >= argc) {
      std::cerr << "usage: " << argv[0] << " [--json <path>]\n";
      std::exit(2);
    }
    return argv[i + 1];
  }
  return {};
}

/// One pass/fail check a bench enforces on its own measurements: prints
/// the value next to the bound it must meet and returns whether it held,
/// so a binary ANDs its gates into its exit status. `op` is one of
/// ">=", ">", "<=", "<", "==". A missing value (the run that produces it
/// was not part of this invocation) fails the gate.
inline bool gate(const std::string& what, std::optional<double> value,
                 const std::string& op, double bound) {
  bool pass = false;
  if (value) {
    const double v = *value;
    if (op == ">=") {
      pass = v >= bound;
    } else if (op == ">") {
      pass = v > bound;
    } else if (op == "<=") {
      pass = v <= bound;
    } else if (op == "<") {
      pass = v < bound;
    } else if (op == "==") {
      pass = v == bound;
    } else {
      std::cerr << "gate: unknown comparison '" << op << "'\n";
      std::abort();
    }
  }
  std::cout << "[gate] " << (pass ? "PASS " : "FAIL ") << what << ": ";
  if (value) {
    std::cout << *value;
  } else {
    std::cout << "missing";
  }
  std::cout << " (want " << op << " " << bound << ")\n";
  return pass;
}

}  // namespace wrs::bench
