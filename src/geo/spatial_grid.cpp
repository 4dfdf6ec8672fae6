#include "src/geo/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/util/error.hpp"

namespace dtn {

namespace {

/// True when a floored cell coordinate fits in 32 bits, so the integer
/// cast is defined and the key packing is lossless. NaN never fits.
bool fits_cell(double f) { return f >= -2147483648.0 && f <= 2147483647.0; }

}  // namespace

SpatialGrid::SpatialGrid(double cell) : cell_(cell) {
  DTN_REQUIRE(cell > 0.0, "SpatialGrid: cell size must be positive");
}

void SpatialGrid::set_cell(double cell) {
  DTN_REQUIRE(cell > 0.0, "SpatialGrid: cell size must be positive");
  if (cell == cell_) return;
  cell_ = cell;
  // The content is held in slot order: scatter it back to node order.
  std::vector<Vec2> positions(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    positions[slots_[s]] = slot_pos_[s];
  }
  rebuild(positions);
}

void SpatialGrid::reserve_nodes(std::size_t n) {
  slots_.reserve(n);
  slot_pos_.reserve(n);
  slot_row_.reserve(n);
  node_cell_.reserve(n);
  run_start_.reserve(n + 1);
}

void SpatialGrid::rebuild(const std::vector<Vec2>& positions) {
  const std::size_t n = positions.size();
  slots_.resize(n);
  node_cell_.resize(n);
  // Pass 1: fine cell per node + bounding box of occupied cells.
  std::int64_t min_cx = 0, max_cx = -1, min_cy = 0, max_cy = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const double fx = std::floor(positions[i].x / cell_);
    const double fy = std::floor(positions[i].y / cell_);
    if (!fits_cell(fx) || !fits_cell(fy)) {
      rebuild({});  // leave a consistent, empty grid behind
      DTN_REQUIRE(false, "SpatialGrid: node " + std::to_string(i) +
                             " lies outside the 32-bit cell range");
    }
    const auto cx = static_cast<std::int64_t>(fx);
    const auto cy = static_cast<std::int64_t>(fy);
    node_cell_[i] = key(cx, cy);
    if (i == 0) {
      min_cx = max_cx = cx;
      min_cy = max_cy = cy;
    } else {
      min_cx = std::min(min_cx, cx);
      max_cx = std::max(max_cx, cx);
      min_cy = std::min(min_cy, cy);
      max_cy = std::max(max_cy, cy);
    }
  }
  const std::int64_t cols = max_cx - min_cx + 1;
  const std::int64_t rows = max_cy - min_cy + 1;
  const std::int64_t budget = std::max(
      kDenseCellsPerNode * static_cast<std::int64_t>(n), kMinDenseCells);
  // rows * cols <= budget, without overflow (cols >= 1 when n > 0).
  dense_ = n > 0 && rows <= budget / cols;
  if (dense_) {
    min_cx_ = min_cx;
    min_cy_ = min_cy;
    cols_ = cols;
    rows_ = rows;
    const auto cells = static_cast<std::size_t>(cols * rows);
    // Counting sort into slots. The per-cell counts become inclusive
    // prefix sums (each cell's end) and serve as the fill cursors:
    // scattering the nodes in reverse order moves every entry down to its
    // cell's start and leaves each cell's nodes ascending.
    cell_start_.assign(cells + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const CellKey k = node_cell_[i];
      ++cell_start_[dense_index(unpack_cx(k), unpack_cy(k))];
    }
    for (std::size_t c = 1; c < cells; ++c) {
      cell_start_[c] += cell_start_[c - 1];
    }
    cell_start_[cells] = static_cast<std::uint32_t>(n);
    slot_row_.resize(n);
    for (std::size_t i = n; i-- > 0;) {
      const CellKey k = node_cell_[i];
      const std::uint32_t s =
          --cell_start_[dense_index(unpack_cx(k), unpack_cy(k))];
      slots_[s] = static_cast<std::uint32_t>(i);
      slot_row_[s] = static_cast<std::uint32_t>(unpack_cy(k) - min_cy);
    }
    cell_keys_.clear();
  } else {
    rebuild_flat();
  }
  // Gather the positions into slot order, so the pair walk reads each
  // cell's nodes, and its neighbor cells', from contiguous memory.
  slot_pos_.resize(n);
  for (std::size_t s = 0; s < n; ++s) slot_pos_[s] = positions[slots_[s]];
}

void SpatialGrid::rebuild_flat() {
  std::iota(slots_.begin(), slots_.end(), 0u);
  std::sort(slots_.begin(), slots_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (node_cell_[a] != node_cell_[b]) {
                return node_cell_[a] < node_cell_[b];
              }
              return a < b;
            });
  cell_keys_.clear();
  cell_start_.clear();
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const CellKey k = node_cell_[slots_[s]];
    if (cell_keys_.empty() || cell_keys_.back() != k) {
      cell_keys_.push_back(k);
      cell_start_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  cell_start_.push_back(static_cast<std::uint32_t>(slots_.size()));
}

std::size_t SpatialGrid::find_cell(CellKey k) const {
  const auto it = std::lower_bound(cell_keys_.begin(), cell_keys_.end(), k);
  if (it == cell_keys_.end() || *it != k) return SIZE_MAX;
  return static_cast<std::size_t>(it - cell_keys_.begin());
}

SpatialGrid::SlotRange SpatialGrid::cell_span(std::int64_t cx,
                                              std::int64_t cy) const {
  std::size_t c = SIZE_MAX;
  if (dense_) {
    if (cx >= min_cx_ && cx < min_cx_ + cols_ && cy >= min_cy_ &&
        cy < min_cy_ + rows_) {
      c = dense_index(cx, cy);
    }
  } else {
    c = find_cell(key(cx, cy));
  }
  if (c == SIZE_MAX) return {};
  return {cell_start_[c], cell_start_[c + 1]};
}

void SpatialGrid::for_each_pair_within(
    double radius,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  for_each_pair_within(
      radius, [&fn](std::size_t i, std::size_t j, double /*d2*/) { fn(i, j); });
}

void SpatialGrid::for_each_pair_within(
    double radius,
    const std::function<void(std::size_t, std::size_t, double)>& fn) const {
  pair_scratch_.clear();
  collect_pairs_within(radius, 0, size(), pair_scratch_);
  for (const PairHit& h : pair_scratch_) fn(h.i, h.j, h.d2);
}

void SpatialGrid::collect_pairs_within(double radius, std::size_t begin,
                                       std::size_t end,
                                       std::vector<PairHit>& out) const {
  DTN_REQUIRE(radius <= cell_ + 1e-9,
              "SpatialGrid: query radius exceeds cell size");
  end = std::min(end, slots_.size());
  if (begin >= end) return;
  const double r2 = radius * radius;
  // Measures slot a against slots [lo, hi). A pair is emitted as (min id,
  // max id): IEEE subtraction is sign-symmetric, so d2 has the same bits
  // whichever end is the reference point.
  walk_.clear();
  const auto pair_slot = [&](std::uint32_t a, std::uint32_t lo,
                             std::uint32_t hi) {
    const Vec2 p = slot_pos_[a];
    const std::uint32_t ia = slots_[a];
    for (std::uint32_t b = lo; b < hi; ++b) {
      const double d2 = distance2(p, slot_pos_[b]);
      if (d2 <= r2) {
        const std::uint32_t ib = slots_[b];
        const std::uint32_t i = std::min(ia, ib);
        if (i >= begin && i < end) walk_.push_back({i, std::max(ia, ib), d2});
      }
    }
  };
  // Each node is paired with the rest of its own cell and with its
  // cell's forward half stencil, (x, y+1) and (x+1, y-1..y+1); the
  // backward half is some other cell's forward half, so each pair within
  // reach is measured exactly once.
  if (dense_) {
    // Column-major: (x, y+1) is the next directory entry, so the rest of
    // the node's cell and (x, y+1) form one slot range, and the cells
    // (x+1, y-1..y+1) are adjacent entries one column on. Both ranges are
    // clipped to the box; slot_row_ gives y, so empty cells cost nothing.
    const auto rows = static_cast<std::size_t>(rows_);
    const auto cols = static_cast<std::size_t>(cols_);
    for (std::size_t x = 0; x < cols; ++x) {
      const std::size_t base = x * rows;
      const std::uint32_t column_end = cell_start_[base + rows];
      for (std::uint32_t a = cell_start_[base]; a < column_end; ++a) {
        const std::size_t y = slot_row_[a];
        const std::size_t c = base + y;
        const std::size_t below = y > 0 ? 1 : 0;
        const std::size_t above = y + 1 < rows ? 1 : 0;
        pair_slot(a, a + 1, cell_start_[c + 1 + above]);
        if (x + 1 < cols) {
          pair_slot(a, cell_start_[c + rows - below],
                    cell_start_[c + rows + 1 + above]);
        }
      }
    }
  } else {
    for (std::size_t k = 0; k < cell_keys_.size(); ++k) {
      const std::int64_t cx = unpack_cx(cell_keys_[k]);
      const std::int64_t cy = unpack_cy(cell_keys_[k]);
      const SlotRange forward[4] = {cell_span(cx, cy + 1),
                                    cell_span(cx + 1, cy - 1),
                                    cell_span(cx + 1, cy),
                                    cell_span(cx + 1, cy + 1)};
      const std::uint32_t hi = cell_start_[k + 1];
      for (std::uint32_t a = cell_start_[k]; a < hi; ++a) {
        pair_slot(a, a + 1, hi);
        for (const SlotRange& r : forward) pair_slot(a, r.lo, r.hi);
      }
    }
  }
  // A counting sort on i, then an insertion sort on j within each i's run
  // (a handful of pairs), restores (i, j) order with no comparison sort.
  run_start_.assign(end - begin + 1, 0);
  for (const PairHit& h : walk_) ++run_start_[h.i - begin + 1];
  for (std::size_t k = 1; k < run_start_.size(); ++k) {
    run_start_[k] += run_start_[k - 1];
  }
  const std::size_t first = out.size();
  out.resize(first + walk_.size());
  PairHit* const sorted = out.data() + first;
  for (const PairHit& h : walk_) sorted[run_start_[h.i - begin]++] = h;
  for (std::size_t k = 1; k < walk_.size(); ++k) {
    const PairHit h = sorted[k];
    std::size_t m = k;
    for (; m > 0 && sorted[m - 1].i == h.i && sorted[m - 1].j > h.j; --m) {
      sorted[m] = sorted[m - 1];
    }
    sorted[m] = h;
  }
}

std::vector<std::size_t> SpatialGrid::query(Vec2 p, double radius,
                                            std::size_t exclude) const {
  const double fx = std::floor(p.x / cell_);
  const double fy = std::floor(p.y / cell_);
  DTN_REQUIRE(fits_cell(fx) && fits_cell(fy),
              "SpatialGrid: query point outside the 32-bit cell range");
  const double r2 = radius * radius;
  std::vector<std::size_t> out;
  const auto cx = static_cast<std::int64_t>(fx);
  const auto cy = static_cast<std::int64_t>(fy);
  const auto reach = static_cast<std::int64_t>(std::ceil(radius / cell_));
  for (std::int64_t dx = -reach; dx <= reach; ++dx) {
    for (std::int64_t dy = -reach; dy <= reach; ++dy) {
      const SlotRange r = cell_span(cx + dx, cy + dy);
      for (std::uint32_t s = r.lo; s < r.hi; ++s) {
        const std::size_t j = slots_[s];
        if (j == exclude) continue;
        if (distance2(p, slot_pos_[s]) <= r2) out.push_back(j);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dtn
