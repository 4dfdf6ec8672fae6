// IdleTable: directional contact pairs to cached "nothing to send"
// verdicts (see World::try_start).
//
// The memo is consulted up to twice per active contact per step, so it
// lives in a FlatTable (src/util/flat_table.hpp) keyed by the packed
// (from, to) pair: one hash and a short probe per lookup, and no
// allocation except when the table grows.
//
// Serialization iterates in ascending (from, to) key order, reproducing
// the std::map byte stream exactly — the archive format is unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/types.hpp"
#include "src/util/flat_table.hpp"

namespace dtn {

/// Cached "nothing to send" verdict of `try_start(from, to)`. Valid
/// while neither endpoint's priority-input fingerprint (cache stamp +
/// buffer revision) changes and the refresh quantum has not elapsed;
/// every event that could create a sendable candidate — an insert, a
/// drop, a copy-count change, an estimator or dropped-list update —
/// moves one of the four counters. Entries die with their link.
struct IdleMemo {
  SimTime at = 0.0;
  std::uint64_t from_stamp = 0;
  std::uint64_t from_rev = 0;
  std::uint64_t to_stamp = 0;
  std::uint64_t to_rev = 0;
};

class IdleTable {
 public:
  std::size_t size() const { return table_.size(); }
  void clear() { table_.clear(); }
  void reserve(std::size_t n) { table_.reserve(n); }

  const IdleMemo* find(NodeId from, NodeId to) const {
    return table_.find(pack(from, to));
  }
  void insert_or_assign(NodeId from, NodeId to, const IdleMemo& m) {
    table_[pack(from, to)] = m;
  }
  void erase(NodeId from, NodeId to) { table_.erase(pack(from, to)); }

  /// Visits every entry in ascending packed-key — i.e. lexicographic
  /// (from, to) — order. Serialization-only; O(n log n).
  template <typename Fn>
  void for_each_sorted(Fn&& fn) const {
    sort_scratch_.clear();
    table_.for_each([this](std::uint64_t key, const IdleMemo& m) {
      sort_scratch_.emplace_back(key, &m);
    });
    std::sort(sort_scratch_.begin(), sort_scratch_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, m] : sort_scratch_) {
      fn(static_cast<NodeId>(key >> 32),
         static_cast<NodeId>(key & 0xFFFFFFFFu), *m);
    }
  }

 private:
  // Both NodeIds are below kNoNode, so a packed pair never reaches the
  // table's reserved marker keys.
  static std::uint64_t pack(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) |
           static_cast<std::uint64_t>(to);
  }

  FlatTable<IdleMemo> table_;
  mutable std::vector<std::pair<std::uint64_t, const IdleMemo*>>
      sort_scratch_;
};

}  // namespace dtn
