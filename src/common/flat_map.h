// Sorted-vector associative container for small hot-path maps.
//
// For a handful to a few hundred small entries (per-key FIFOs, fences,
// the simulator's process table), std::map's per-node allocation and
// pointer chasing dominate: every insert is a heap alloc, every lookup
// walks red-black tree nodes scattered across the heap. A sorted vector
// keeps entries contiguous (binary-search lookups touch one or two
// cache lines), inserts of increasing keys degenerate to push_back, and
// capacity is retained across erase so steady state does not allocate.
// An insert or erase in the middle shifts every later entry, so large
// values that leave out of key order (AbdClient's in-flight ops) belong
// in a node map instead.
//
// API is the subset of std::map the storage layer uses; iteration order
// is key order, matching std::map, so switching containers cannot
// perturb any iteration-order-dependent schedule (the determinism
// guard in tests/test_sim_env.cpp pins this).
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace wrs {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return v_.begin(); }
  iterator end() { return v_.end(); }
  const_iterator begin() const { return v_.begin(); }
  const_iterator end() const { return v_.end(); }

  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }

  iterator find(const K& key) {
    auto it = lower(key);
    return it != v_.end() && it->first == key ? it : v_.end();
  }
  const_iterator find(const K& key) const {
    auto it = lower(key);
    return it != v_.end() && it->first == key ? it : v_.end();
  }

  std::size_t count(const K& key) const {
    return find(key) != v_.end() ? 1 : 0;
  }

  V& at(const K& key) {
    auto it = find(key);
    if (it == v_.end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }
  const V& at(const K& key) const {
    auto it = find(key);
    if (it == v_.end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }

  V& operator[](const K& key) {
    auto it = lower(key);
    if (it == v_.end() || it->first != key) {
      it = v_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple());
    }
    return it->second;
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    auto it = lower(key);
    if (it != v_.end() && it->first == key) return {it, false};
    it = v_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                    std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  iterator erase(iterator it) { return v_.erase(it); }

  std::size_t erase(const K& key) {
    auto it = find(key);
    if (it == v_.end()) return 0;
    v_.erase(it);
    return 1;
  }

 private:
  iterator lower(const K& key) {
    return std::lower_bound(
        v_.begin(), v_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator lower(const K& key) const {
    return std::lower_bound(
        v_.begin(), v_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> v_;
};

}  // namespace wrs
