// Spatial hash grid for O(n) radius-limited neighbor queries.
//
// The contact detector rebuilds the grid each movement step and enumerates
// all node pairs within transmission range without the O(n^2) scan. Two
// layouts share one query interface (DESIGN.md §14.3):
//
//   * dense (the default): a directory with one entry per fine cell of
//     size `cell` over the bounding box of occupied cells, column-major
//     (x-major, y-minor). A rebuild is a counting sort of node ids into
//     slots — O(n + cells), no comparison sort — that leaves each cell's
//     nodes ascending.
//   * flat (fallback): a global (cell, node)-sorted slot array with a
//     binary-searched sparse directory, used when the bounding box holds
//     more than max(16 n, 65,536) cells (positions spread far apart).
//
// A rebuild also gathers the positions into slot order. Pair enumeration
// is one walk over the slots in order, for both layouts: each node is
// paired with the rest of its cell and with its cell's forward half
// stencil, (x, y+1) and (x+1, y-1..y+1), so every pair is measured once
// and every read is at or just ahead of the walk. In the dense layout
// those cells are two slot ranges: (x, y+1) follows the cell itself, and
// the three cells of column x+1 are adjacent. A counting sort on i then
// restores (i, j) order, so the output is the same whatever the layout.
//
// Every buffer is reused, so a steady-state rebuild and pair pass perform
// no heap allocation. Each cell coordinate must fit in 32 bits; rebuild
// rejects a position outside that range with PreconditionError.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/geo/vec2.hpp"

namespace dtn {

class SpatialGrid {
 public:
  /// One candidate pair (i < j) with its squared distance.
  struct PairHit {
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    double d2 = 0.0;
  };

  /// `cell` should be >= the query radius for best performance.
  explicit SpatialGrid(double cell);

  /// Changes the cell size; re-buckets any current content.
  void set_cell(double cell);
  double cell() const { return cell_; }

  /// Replaces the content with `positions`; index i is the node id.
  /// Throws PreconditionError, naming the node, when a position's cell
  /// coordinate does not fit in 32 bits.
  void rebuild(const std::vector<Vec2>& positions);

  /// Calls fn(i, j) once per unordered pair with distance(pi,pj) <= radius,
  /// i < j, in deterministic (i, j) order.
  void for_each_pair_within(double radius,
                            const std::function<void(std::size_t,
                                                     std::size_t)>& fn) const;

  /// As above, but also hands fn the squared distance of the pair —
  /// callers that classify pairs by distance avoid recomputing it.
  void for_each_pair_within(
      double radius,
      const std::function<void(std::size_t, std::size_t, double)>& fn) const;

  /// Appends every pair (i, j) with i in [begin, end), j > i (over the
  /// whole grid) and distance(pi, pj) <= radius to `out`, sorted by
  /// (i, j); each d2 is distance2(pi, pj) bit for bit. [begin, end)
  /// filters the full walk, so concatenating the outputs of an ascending
  /// partition reproduces the full-range output exactly. Uses the grid's
  /// scratch: calls on one grid must not overlap.
  void collect_pairs_within(double radius, std::size_t begin, std::size_t end,
                            std::vector<PairHit>& out) const;

  /// Ids of nodes within `radius` of `p` (excluding `exclude` if given).
  std::vector<std::size_t> query(Vec2 p, double radius,
                                 std::size_t exclude = SIZE_MAX) const;

  std::size_t size() const { return slots_.size(); }

  /// True while the last rebuild used the dense layout.
  bool dense() const { return dense_; }

  /// Pre-sizes the per-node buffers for an `n`-node fleet.
  void reserve_nodes(std::size_t n);

 private:
  using CellKey = std::int64_t;
  /// Dense-directory budget: cells allowed per node, and a floor so that
  /// small fleets in large areas keep the dense layout.
  static constexpr std::int64_t kDenseCellsPerNode = 16;
  static constexpr std::int64_t kMinDenseCells = 65536;

  static CellKey key(std::int64_t cx, std::int64_t cy) {
    // Pack two 32-bit cell coordinates (rebuild enforces the range; a
    // stencil neighbor one past it wraps harmlessly, as its nodes lie
    // far beyond any query radius).
    const auto ux = static_cast<std::uint64_t>(cx);
    const auto uy = static_cast<std::uint64_t>(cy);
    return static_cast<CellKey>((ux << 32) ^ (uy & 0xFFFFFFFFULL));
  }
  static std::int64_t unpack_cx(CellKey k) {
    return static_cast<std::int32_t>(
        static_cast<std::uint64_t>(k) >> 32);
  }
  static std::int64_t unpack_cy(CellKey k) {
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(k & 0xFFFFFFFFLL));
  }
  /// Dense-directory index of fine cell (cx, cy), which must be in the box.
  std::size_t dense_index(std::int64_t cx, std::int64_t cy) const {
    return static_cast<std::size_t>((cx - min_cx_) * rows_ + (cy - min_cy_));
  }
  /// Slots [lo, hi).
  struct SlotRange {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };
  void rebuild_flat();
  /// Index into cell_keys_ for `k`, or npos (flat layout).
  std::size_t find_cell(CellKey k) const;
  /// Slot range of fine cell (cx, cy), empty when absent. Dispatches on
  /// the active layout.
  SlotRange cell_span(std::int64_t cx, std::int64_t cy) const;

  double cell_;
  std::vector<CellKey> node_cell_;  ///< per-node fine cell key
  std::vector<std::uint32_t> slots_;  ///< node ids in (cell, node) order
  std::vector<Vec2> slot_pos_;        ///< slot_pos_[s] = position of slots_[s]
  /// Cell c holds slots [cell_start_[c], cell_start_[c + 1]). Dense: c is
  /// the box index, size cells + 1. Flat: c indexes cell_keys_.
  std::vector<std::uint32_t> cell_start_;
  // --- dense layout: the box of occupied fine cells ---
  std::vector<std::uint32_t> slot_row_;  ///< box row of each slot's cell
  bool dense_ = false;
  std::int64_t min_cx_ = 0;
  std::int64_t min_cy_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t rows_ = 0;
  // --- flat layout ---
  std::vector<CellKey> cell_keys_;  ///< distinct cells, ascending
  // --- pair-pass scratch ---
  mutable std::vector<PairHit> walk_;             ///< hits in walk order
  mutable std::vector<std::uint32_t> run_start_;  ///< counting-sort cursors
  mutable std::vector<PairHit> pair_scratch_;     ///< for_each_pair_within
};

}  // namespace dtn
