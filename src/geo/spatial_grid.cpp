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
  rebuild_index();
}

void SpatialGrid::rebuild(const std::vector<Vec2>& positions) {
  positions_ = positions;  // vector assign: reuses capacity, no realloc
  rebuild_index();
}

void SpatialGrid::reserve_nodes(std::size_t n) {
  positions_.reserve(n);
  slots_.reserve(n);
  node_cell_.reserve(n);
}

void SpatialGrid::rebuild_index() {
  const std::size_t n = positions_.size();
  slots_.resize(n);
  node_cell_.resize(n);
  // Pass 1: fine cell per node + bounding box of occupied cells.
  std::int64_t min_cx = 0, max_cx = -1, min_cy = 0, max_cy = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const double fx = std::floor(positions_[i].x / cell_);
    const double fy = std::floor(positions_[i].y / cell_);
    if (!fits_cell(fx) || !fits_cell(fy)) {
      positions_.clear();  // leave a consistent, empty grid behind
      rebuild_index();
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
  if (!dense_) {
    rebuild_flat();
    return;
  }
  min_cx_ = min_cx;
  min_cy_ = min_cy;
  cols_ = cols;
  rows_ = rows;
  const auto cells = static_cast<std::size_t>(cols * rows);
  // Counting sort into slots. The per-cell counts become inclusive prefix
  // sums (each cell's end) and serve as the fill cursors: scattering the
  // nodes in reverse order moves every entry down to its cell's start and
  // leaves each cell's nodes ascending.
  cell_start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const CellKey k = node_cell_[i];
    ++cell_start_[dense_index(unpack_cx(k), unpack_cy(k))];
  }
  for (std::size_t c = 1; c < cells; ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  cell_start_[cells] = static_cast<std::uint32_t>(n);
  for (std::size_t i = n; i-- > 0;) {
    const CellKey k = node_cell_[i];
    slots_[--cell_start_[dense_index(unpack_cx(k), unpack_cy(k))]] =
        static_cast<std::uint32_t>(i);
  }
  cell_keys_.clear();
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

void SpatialGrid::cell_span(std::int64_t cx, std::int64_t cy,
                            std::uint32_t* lo, std::uint32_t* hi) const {
  *lo = *hi = 0;
  std::size_t c = SIZE_MAX;
  if (dense_) {
    if (cx >= min_cx_ && cx < min_cx_ + cols_ && cy >= min_cy_ &&
        cy < min_cy_ + rows_) {
      c = dense_index(cx, cy);
    }
  } else {
    c = find_cell(key(cx, cy));
  }
  if (c == SIZE_MAX) return;
  *lo = cell_start_[c];
  *hi = cell_start_[c + 1];
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
  collect_pairs_within(radius, 0, positions_.size(), pair_scratch_);
  for (const PairHit& h : pair_scratch_) fn(h.i, h.j, h.d2);
}

void SpatialGrid::collect_pairs_within(double radius, std::size_t begin,
                                       std::size_t end,
                                       std::vector<PairHit>& out) const {
  DTN_REQUIRE(radius <= cell_ + 1e-9,
              "SpatialGrid: query radius exceeds cell size");
  const double r2 = radius * radius;
  const std::size_t first = out.size();
  // Collect candidate pairs, then sort so the emitted order does not
  // depend on bucket layout (determinism across layouts and libstdc++s).
  for (std::size_t i = begin; i < end && i < positions_.size(); ++i) {
    const Vec2 p = positions_[i];
    const CellKey k = node_cell_[i];
    const std::int64_t cx = unpack_cx(k);
    const std::int64_t cy = unpack_cy(k);
    const auto scan = [&](std::uint32_t lo, std::uint32_t hi) {
      for (std::uint32_t s = lo; s < hi; ++s) {
        const std::size_t j = slots_[s];
        if (j <= i) continue;
        const double d2 = distance2(p, positions_[j]);
        if (d2 <= r2) {
          out.push_back(PairHit{static_cast<std::uint32_t>(i),
                                static_cast<std::uint32_t>(j), d2});
        }
      }
    };
    if (dense_) {
      // The cells (x, cy-1..cy+1) of one stencil column are adjacent in
      // the column-major directory: one slot range per column, clipped to
      // the box (the node's own cell is always inside it).
      const std::int64_t x0 = std::max(cx - 1, min_cx_);
      const std::int64_t x1 = std::min(cx + 1, min_cx_ + cols_ - 1);
      const std::int64_t y0 = std::max(cy - 1, min_cy_);
      const std::int64_t y1 = std::min(cy + 1, min_cy_ + rows_ - 1);
      for (std::int64_t x = x0; x <= x1; ++x) {
        scan(cell_start_[dense_index(x, y0)],
             cell_start_[dense_index(x, y1) + 1]);
      }
      continue;
    }
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        std::uint32_t lo = 0, hi = 0;
        cell_span(cx + dx, cy + dy, &lo, &hi);
        scan(lo, hi);
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const PairHit& a, const PairHit& b) {
              if (a.i != b.i) return a.i < b.i;
              return a.j < b.j;
            });
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
      std::uint32_t lo = 0, hi = 0;
      cell_span(cx + dx, cy + dy, &lo, &hi);
      for (std::uint32_t s = lo; s < hi; ++s) {
        const std::size_t j = slots_[s];
        if (j == exclude) continue;
        if (distance2(p, positions_[j]) <= r2) out.push_back(j);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dtn
