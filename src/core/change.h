// The `change` data structure of Section III.
//
// A change <p_i, lc_i, s, delta> records that the weight of server `s`
// changed by `delta` as the outcome of a reassignment request issued by
// process `p_i` whose local counter was `lc_i`. The triple
// (issuer, counter, target) identifies a change; a transfer creates two
// changes sharing (issuer, counter): one negative for the source and one
// positive for the destination.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "common/rational.h"
#include "common/types.h"

namespace wrs {

struct ChangeId {
  ProcessId issuer = kNoProcess;
  std::uint64_t counter = 0;
  ProcessId target = kNoProcess;

  friend auto operator<=>(const ChangeId&, const ChangeId&) = default;
};

struct Change {
  ChangeId id;
  Weight delta;

  Change() = default;
  Change(ProcessId issuer, std::uint64_t counter, ProcessId target,
         Weight delta_)
      : id{issuer, counter, target}, delta(std::move(delta_)) {}

  ProcessId issuer() const { return id.issuer; }
  std::uint64_t counter() const { return id.counter; }
  ProcessId target() const { return id.target; }

  bool is_null() const { return delta.is_zero(); }

  std::string str() const {
    return std::string("<")
        .append(process_name(id.issuer))
        .append(",")
        .append(std::to_string(id.counter))
        .append(",")
        .append(process_name(id.target))
        .append(",")
        .append(delta.str())
        .append(">");
  }

  friend bool operator==(const Change& a, const Change& b) {
    return a.id == b.id && a.delta == b.delta;
  }
};

/// Counter value used by the implicit initial changes <s, 1, s, w_s> that
/// define the initial weights (the paper's C_{s,0}); local counters of
/// processes therefore start at kFirstCounter.
inline constexpr std::uint64_t kInitialChangeCounter = 1;
inline constexpr std::uint64_t kFirstCounter = 2;

}  // namespace wrs
