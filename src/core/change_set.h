// Grow-only set of changes (a join-semilattice under union).
//
// Every server and client holds one; Algorithm 3's read/write-back and
// Algorithm 4's reliable broadcast only ever *add* changes, so local sets
// grow monotonically and the union of any two valid sets is valid. The
// weight of a server s derived from a set C is the sum of the deltas of
// the changes in C created for s (Section III, W_{s,t}).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/change.h"
#include "quorum/weight_map.h"

namespace wrs {

class ChangeSet {
 public:
  ChangeSet() = default;

  /// The paper's initial set: one change <s, 1, s, w_s> per server.
  static ChangeSet initial(const WeightMap& initial_weights);

  /// Adds a change; returns true iff it was not already present.
  /// Re-adding the identical change is a no-op; re-adding the same id with
  /// a different delta indicates a protocol bug and throws.
  bool add(const Change& change);

  bool contains(const ChangeId& id) const { return map_.count(id) != 0; }
  std::optional<Change> find(const ChangeId& id) const;

  /// Union-merge; returns the number of changes newly added.
  std::size_t join(const ChangeSet& other);

  /// All changes created for `target` (the paper's get_changes(s)),
  /// packaged as a ChangeSet for RC_Ack replies.
  ChangeSet subset_for(ProcessId target) const;

  /// Number of changes with the given (issuer, counter) pair — 2 once both
  /// halves of a transfer are stored.
  std::size_t count_pair(ProcessId issuer, std::uint64_t counter) const;

  /// Changes in `other` that are missing here (other \ this).
  std::vector<Change> missing_from(const ChangeSet& other) const;

  /// W_{s}: sum of deltas of the changes created for `target`.
  Weight weight_of(ProcessId target) const;

  /// Derives the full weight map over `servers`.
  WeightMap to_weight_map(const std::vector<ProcessId>& servers) const;

  /// Sum of every delta in the set; constant under pairwise reassignment.
  Weight total() const;

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  std::vector<Change> all() const;

  /// Calls fn(id, delta) for every change in ascending ChangeId order,
  /// without copying the set (the wire encoder walks it this way).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [id, delta] : map_) fn(id, delta);
  }

  /// True iff every change in `this` is also in `other`.
  bool subset_of(const ChangeSet& other) const;

  std::string str() const;

  friend bool operator==(const ChangeSet& a, const ChangeSet& b) {
    return a.map_ == b.map_;
  }

 private:
  std::map<ChangeId, Weight> map_;
};

}  // namespace wrs
