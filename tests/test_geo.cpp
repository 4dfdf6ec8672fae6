// Unit tests for geometry: Vec2, Rect, SpatialGrid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/geo/rect.hpp"
#include "src/geo/spatial_grid.hpp"
#include "src/geo/vec2.hpp"
#include "src/util/rng.hpp"

namespace dtn {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2}, b{3, 5};
  EXPECT_EQ(a + b, (Vec2{4, 7}));
  EXPECT_EQ(b - a, (Vec2{2, 3}));
  EXPECT_EQ(a * 2.0, (Vec2{2, 4}));
  EXPECT_EQ(2.0 * a, (Vec2{2, 4}));
  EXPECT_DOUBLE_EQ(dot(a, b), 13.0);
}

TEST(Vec2, NormAndDistance) {
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm(), 5.0);
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm2(), 25.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance2({0, 0}, {3, 4}), 25.0);
}

TEST(Vec2, NormalizedHandlesZero) {
  EXPECT_EQ((Vec2{0, 0}).normalized(), (Vec2{0, 0}));
  const Vec2 u = (Vec2{10, 0}).normalized();
  EXPECT_DOUBLE_EQ(u.x, 1.0);
  EXPECT_DOUBLE_EQ(u.y, 0.0);
}

TEST(Vec2, Lerp) {
  EXPECT_EQ(lerp({0, 0}, {10, 20}, 0.5), (Vec2{5, 10}));
  EXPECT_EQ(lerp({0, 0}, {10, 20}, 0.0), (Vec2{0, 0}));
  EXPECT_EQ(lerp({0, 0}, {10, 20}, 1.0), (Vec2{10, 20}));
}

TEST(Rect, BasicsAndContains) {
  const Rect r = Rect::sized(100, 50);
  EXPECT_DOUBLE_EQ(r.width(), 100.0);
  EXPECT_DOUBLE_EQ(r.height(), 50.0);
  EXPECT_DOUBLE_EQ(r.area(), 5000.0);
  EXPECT_EQ(r.center(), (Vec2{50, 25}));
  EXPECT_TRUE(r.contains({0, 0}));
  EXPECT_TRUE(r.contains({100, 50}));
  EXPECT_FALSE(r.contains({100.1, 0}));
  EXPECT_FALSE(r.contains({0, -0.1}));
}

TEST(Rect, InvertedCornersThrow) {
  EXPECT_THROW(Rect({1, 1}, {0, 0}), PreconditionError);
}

TEST(Rect, ClampPullsInside) {
  const Rect r = Rect::sized(10, 10);
  EXPECT_EQ(r.clamp({-5, 5}), (Vec2{0, 5}));
  EXPECT_EQ(r.clamp({15, 20}), (Vec2{10, 10}));
  EXPECT_EQ(r.clamp({3, 4}), (Vec2{3, 4}));
}

TEST(Rect, ReflectFoldsBack) {
  const Rect r = Rect::sized(10, 10);
  EXPECT_EQ(r.reflect({-2, 5}), (Vec2{2, 5}));
  EXPECT_EQ(r.reflect({12, 5}), (Vec2{8, 5}));
  EXPECT_EQ(r.reflect({5, -3}), (Vec2{5, 3}));
  const Vec2 in = r.reflect({23, -17});  // large overstep still lands inside
  EXPECT_TRUE(r.contains(in));
}

TEST(Rect, SampleUniformInside) {
  const Rect r({10, 20}, {30, 60});
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(r.contains(r.sample(rng)));
  }
}

TEST(SpatialGrid, RejectsBadCell) {
  EXPECT_THROW(SpatialGrid(0.0), PreconditionError);
}

TEST(SpatialGrid, PairsMatchBruteForce) {
  Rng rng(10);
  std::vector<Vec2> pos;
  for (int i = 0; i < 200; ++i) pos.push_back({rng.uniform(0, 1000), rng.uniform(0, 700)});
  const double radius = 50.0;
  SpatialGrid grid(radius);
  grid.rebuild(pos);

  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j) {
    from_grid.emplace(i, j);
  });

  std::set<std::pair<std::size_t, std::size_t>> brute;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (distance(pos[i], pos[j]) <= radius) brute.emplace(i, j);
    }
  }
  EXPECT_EQ(from_grid, brute);
}

TEST(SpatialGrid, PairOrderIsDeterministicAndSorted) {
  Rng rng(11);
  std::vector<Vec2> pos;
  for (int i = 0; i < 100; ++i) pos.push_back({rng.uniform(0, 300), rng.uniform(0, 300)});
  SpatialGrid grid(60.0);
  grid.rebuild(pos);
  std::vector<std::pair<std::size_t, std::size_t>> order;
  grid.for_each_pair_within(60.0, [&](std::size_t i, std::size_t j) {
    EXPECT_LT(i, j);
    order.emplace_back(i, j);
  });
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SpatialGrid, RadiusLargerThanCellThrows) {
  SpatialGrid grid(10.0);
  grid.rebuild({{0, 0}});
  EXPECT_THROW(grid.for_each_pair_within(20.0, [](std::size_t, std::size_t) {}),
               PreconditionError);
}

TEST(SpatialGrid, QueryFindsNeighborsAcrossCells) {
  SpatialGrid grid(10.0);
  grid.rebuild({{0, 0}, {9, 0}, {25, 0}, {5, 5}});
  const auto near = grid.query({1, 0}, 12.0);
  EXPECT_EQ(near, (std::vector<std::size_t>{0, 1, 3}));
  const auto excl = grid.query({1, 0}, 12.0, /*exclude=*/0);
  EXPECT_EQ(excl, (std::vector<std::size_t>{1, 3}));
}

TEST(SpatialGrid, NegativeCoordinatesWork) {
  SpatialGrid grid(50.0);
  grid.rebuild({{-100, -100}, {-60, -100}, {100, 100}});
  int pairs = 0;
  grid.for_each_pair_within(50.0, [&](std::size_t i, std::size_t j) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(j, 1u);
    ++pairs;
  });
  EXPECT_EQ(pairs, 1);
}

// Brute-force oracle over all unordered pairs within `radius`.
std::set<std::pair<std::size_t, std::size_t>> brute_pairs(
    const std::vector<Vec2>& pos, double radius) {
  std::set<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (distance2(pos[i], pos[j]) <= radius * radius) out.emplace(i, j);
    }
  }
  return out;
}

TEST(SpatialGrid, RadiusExactlyCellSizeOnBoundaryLattice) {
  // Nodes sit exactly on cell boundaries (multiples of the cell size) and
  // the query radius equals the cell size exactly, so many pair distances
  // are exactly == radius. floor() cell assignment plus the 3x3 reach must
  // still find every boundary pair the brute force does.
  const double cell = 25.0;
  std::vector<Vec2> pos;
  for (int x = -2; x <= 2; ++x) {
    for (int y = -2; y <= 2; ++y) pos.push_back({x * cell, y * cell});
  }
  SpatialGrid grid(cell);
  grid.rebuild(pos);
  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  grid.for_each_pair_within(cell, [&](std::size_t i, std::size_t j) {
    from_grid.emplace(i, j);
  });
  EXPECT_EQ(from_grid, brute_pairs(pos, cell));
  // Each interior node has exactly 4 axis-neighbors at distance == cell.
  EXPECT_EQ(from_grid.size(), 40u);  // 2 * 4 * 5 horizontal+vertical edges
}

TEST(SpatialGrid, NegativeCoordinatesMatchBruteForce) {
  // Random cloud spanning all four quadrants: the (cx<<32)^cy key packing
  // must keep negative cell indices distinct from positive ones.
  Rng rng(12);
  std::vector<Vec2> pos;
  for (int i = 0; i < 150; ++i) {
    pos.push_back({rng.uniform(-500, 500), rng.uniform(-500, 500)});
  }
  const double radius = 60.0;
  SpatialGrid grid(radius);
  grid.rebuild(pos);
  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j) {
    from_grid.emplace(i, j);
  });
  EXPECT_EQ(from_grid, brute_pairs(pos, radius));
}

// The pair walk may measure a pair from either end; the d2 it reports
// must still be distance2(pos[i], pos[j]) bit for bit.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(SpatialGrid, DistanceReportingOverloadMatchesBruteForce) {
  // A random cloud, the same cloud with every tenth node doubled by a
  // later id at its exact position, and the smallest fleets: none, one
  // node, two in range, two coincident and two out of range.
  Rng rng(13);
  std::vector<Vec2> cloud;
  for (int i = 0; i < 120; ++i) {
    cloud.push_back({rng.uniform(-200, 400), rng.uniform(-300, 100)});
  }
  std::vector<Vec2> doubled = cloud;
  for (std::size_t i = 0; i < cloud.size(); i += 10) doubled.push_back(cloud[i]);
  const std::vector<std::vector<Vec2>> fleets = {
      cloud,  doubled, {}, {{3, 4}}, {{0, 0}, {30, 20}}, {{7, 7}, {7, 7}},
      {{0, 0}, {100, 0}}};
  const double radius = 45.0;
  for (const std::vector<Vec2>& pos : fleets) {
    SpatialGrid grid(radius);
    grid.rebuild(pos);
    std::set<std::pair<std::size_t, std::size_t>> from_grid;
    grid.for_each_pair_within(
        radius, [&](std::size_t i, std::size_t j, double d2) {
          EXPECT_TRUE(same_bits(d2, distance2(pos[i], pos[j])))
              << "pair (" << i << ", " << j << ")";
          EXPECT_LE(d2, radius * radius);
          from_grid.emplace(i, j);
        });
    EXPECT_EQ(from_grid, brute_pairs(pos, radius)) << pos.size() << " nodes";
  }
}

TEST(SpatialGrid, RebuildReusesCapacityAcrossFrames) {
  // Steady-state rebuilds must tolerate fleets growing and shrinking and
  // nodes exactly sharing a position (same cell slot, distinct nodes).
  SpatialGrid grid(10.0);
  grid.rebuild({{0, 0}, {0, 0}, {3, 4}});
  int pairs = 0;
  grid.for_each_pair_within(10.0, [&](std::size_t, std::size_t) { ++pairs; });
  EXPECT_EQ(pairs, 3);
  grid.rebuild({{0, 0}});  // shrink
  pairs = 0;
  grid.for_each_pair_within(10.0, [&](std::size_t, std::size_t) { ++pairs; });
  EXPECT_EQ(pairs, 0);
  grid.rebuild({{0, 0}, {5, 0}, {100, 0}, {105, 0}});  // grow again
  std::set<std::pair<std::size_t, std::size_t>> got;
  grid.for_each_pair_within(10.0, [&](std::size_t i, std::size_t j) {
    got.emplace(i, j);
  });
  EXPECT_EQ(got, (std::set<std::pair<std::size_t, std::size_t>>{{0, 1},
                                                                {2, 3}}));
}

TEST(SpatialGrid, RejectsPositionsOutsideTheKeyRange) {
  // A cell coordinate must fit in 32 bits: trace files can carry any
  // finite double, and casting one out of range would be undefined.
  SpatialGrid grid(1.0);
  try {
    grid.rebuild({{0, 0}, {1e300, 0}});
    ADD_FAILURE() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(grid.size(), 0u);  // a failed rebuild leaves an empty grid
  EXPECT_THROW(grid.rebuild({{0, -1e300}}), PreconditionError);
  EXPECT_THROW(grid.rebuild({{0, 0}, {NAN, 0}}), PreconditionError);
  EXPECT_THROW(grid.rebuild({{2147483648.0, 0}}), PreconditionError);
  EXPECT_THROW(grid.query({1e300, 0}, 1.0), PreconditionError);
  // The extreme accepted cells, -2^31 and 2^31 - 1, still enumerate like
  // brute force.
  const std::vector<Vec2> pos = {{0, 0},
                                 {2147483647.25, 5.0},
                                 {2147483647.75, 5.5},
                                 {-2147483647.75, 5.2},
                                 {-2147483647.5, 4.8}};
  grid.rebuild(pos);
  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  grid.for_each_pair_within(1.0, [&](std::size_t i, std::size_t j) {
    from_grid.emplace(i, j);
  });
  EXPECT_EQ(from_grid, brute_pairs(pos, 1.0));
  EXPECT_EQ(from_grid.size(), 2u);
}

// --- dense layout and flat fallback (DESIGN.md §14.3) ---------------------

TEST(SpatialGridDense, CompactCloudsUseTheDenseLayout) {
  Rng rng(14);
  std::vector<Vec2> pos;
  for (int i = 0; i < 50; ++i) {
    pos.push_back({rng.uniform(0, 2000), rng.uniform(0, 2000)});
  }
  SpatialGrid grid(100.0);
  grid.rebuild(pos);
  EXPECT_TRUE(grid.dense());
  grid.rebuild({});  // empty fleet degrades gracefully
  EXPECT_FALSE(grid.dense());
  int pairs = 0;
  grid.for_each_pair_within(100.0, [&](std::size_t, std::size_t) { ++pairs; });
  EXPECT_EQ(pairs, 0);
}

TEST(SpatialGridDense, FlatFallbackBeyondDenseBudgetMatchesBruteForce) {
  // Two clusters ~2e8 cells apart: a dense directory over the bounding
  // box would need far more than its cell budget, so the rebuild must
  // fall back to the flat layout — and still enumerate the same pairs.
  std::vector<Vec2> pos = {{0, 0},         {0.5, 0.3},       {1.2, 0.0},
                           {2.0e8, 5.0},   {2.0e8 + 0.8, 5.2}};
  SpatialGrid grid(1.0);
  grid.rebuild(pos);
  EXPECT_FALSE(grid.dense());
  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  grid.for_each_pair_within(1.0, [&](std::size_t i, std::size_t j) {
    from_grid.emplace(i, j);
  });
  EXPECT_EQ(from_grid, brute_pairs(pos, 1.0));
}

TEST(SpatialGridDense, BoundaryLatticeAcrossColumnSeams) {
  // Nodes on exact fine-cell corners spanning many directory columns,
  // across the negative seam at cell index 0 and up to the box's top and
  // bottom rows, where each stencil column is clipped: the column slot
  // ranges must agree with brute force on every exactly-at-radius pair.
  const double cell = 10.0;
  std::vector<Vec2> pos;
  for (int x = -10; x <= 10; ++x) {
    for (int y = 6; y <= 10; ++y) pos.push_back({x * cell, y * cell});
  }
  SpatialGrid grid(cell);
  grid.rebuild(pos);
  EXPECT_TRUE(grid.dense());
  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  grid.for_each_pair_within(cell, [&](std::size_t i, std::size_t j) {
    from_grid.emplace(i, j);
    order.emplace_back(i, j);
  });
  EXPECT_EQ(from_grid, brute_pairs(pos, cell));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SpatialGridDense, NegativeQuadrantsMatchBruteForce) {
  Rng rng(15);
  std::vector<Vec2> pos;
  for (int i = 0; i < 180; ++i) {
    pos.push_back({rng.uniform(-900, 100), rng.uniform(-100, 900)});
  }
  const double radius = 40.0;
  SpatialGrid grid(radius);
  grid.rebuild(pos);
  EXPECT_TRUE(grid.dense());
  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j) {
    from_grid.emplace(i, j);
  });
  EXPECT_EQ(from_grid, brute_pairs(pos, radius));
}

TEST(SpatialGridDense, SkewedDenseClusterMatchesBruteForce) {
  // Pathological occupancy for a bucketed index: 300 nodes piled into a
  // couple of fine cells (some sharing exact positions) plus a sparse
  // fringe across the rest of the box.
  Rng rng(16);
  std::vector<Vec2> pos;
  for (int i = 0; i < 300; ++i) {
    pos.push_back({rng.uniform(0, 30), rng.uniform(0, 30)});
  }
  for (int i = 0; i < 40; ++i) {
    pos.push_back({rng.uniform(-2000, 2000), rng.uniform(-2000, 2000)});
  }
  pos.push_back(pos[0]);  // exact duplicate position
  const double radius = 25.0;
  SpatialGrid grid(radius);
  grid.rebuild(pos);
  EXPECT_TRUE(grid.dense());
  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  grid.for_each_pair_within(radius, [&](std::size_t i, std::size_t j) {
    from_grid.emplace(i, j);
    order.emplace_back(i, j);
  });
  EXPECT_EQ(from_grid, brute_pairs(pos, radius));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SpatialGridDense, QueryReachesAcrossRings) {
  // query() may use radii above the cell size (multi-ring reach); every
  // ring cell must resolve through the directory, including cells past
  // the box edge.
  const double cell = 10.0;
  std::vector<Vec2> pos;
  for (int x = 0; x <= 20; ++x) pos.push_back({x * cell, 0.0});
  SpatialGrid grid(cell);
  grid.rebuild(pos);
  ASSERT_TRUE(grid.dense());
  const auto near = grid.query({100.0, 0.0}, 35.0, /*exclude=*/10);
  EXPECT_EQ(near, (std::vector<std::size_t>{7, 8, 9, 11, 12, 13}));
}

TEST(SpatialGridDense, ShardedCollectConcatenationMatchesFullRange) {
  Rng rng(17);
  std::vector<Vec2> pos;
  for (int i = 0; i < 250; ++i) {
    pos.push_back({rng.uniform(-400, 400), rng.uniform(-400, 400)});
  }
  const double radius = 55.0;
  SpatialGrid grid(radius);
  grid.rebuild(pos);
  std::vector<SpatialGrid::PairHit> full;
  grid.collect_pairs_within(radius, 0, pos.size(), full);
  std::vector<SpatialGrid::PairHit> sharded;
  for (std::size_t lo = 0; lo < pos.size(); lo += 61) {
    grid.collect_pairs_within(radius, lo, std::min(lo + 61, pos.size()),
                              sharded);
  }
  ASSERT_EQ(sharded.size(), full.size());
  for (std::size_t k = 0; k < full.size(); ++k) {
    EXPECT_EQ(sharded[k].i, full[k].i);
    EXPECT_EQ(sharded[k].j, full[k].j);
    EXPECT_DOUBLE_EQ(sharded[k].d2, full[k].d2);
  }
}

TEST(SpatialGridDense, ReserveThenRebuildKeepsResults) {
  SpatialGrid grid(20.0);
  grid.reserve_nodes(64);
  std::vector<Vec2> pos = {{0, 0}, {10, 0}, {0, 15}, {300, 300}};
  grid.rebuild(pos);
  std::set<std::pair<std::size_t, std::size_t>> got;
  grid.for_each_pair_within(20.0, [&](std::size_t i, std::size_t j) {
    got.emplace(i, j);
  });
  EXPECT_EQ(got, brute_pairs(pos, 20.0));
}

// Every pair the grid reports, in emission order, with its d2.
std::vector<std::tuple<std::size_t, std::size_t, double>> grid_hits(
    const SpatialGrid& grid, double radius) {
  std::vector<std::tuple<std::size_t, std::size_t, double>> out;
  grid.for_each_pair_within(
      radius, [&](std::size_t i, std::size_t j, double d2) {
        out.emplace_back(i, j, d2);
      });
  return out;
}

TEST(SpatialGridDense, BudgetBoundarySelectsTheLayout) {
  // 4,200 nodes budget max(16 * 4200, 65536) = 67,200 = 280 x 240 cells.
  // Corner sentinels make the box exactly that; one more node in a 281st
  // column (budget 67,216, box 67,440) tips the rebuild into the flat
  // layout. The shared nodes' pairs must come out identically.
  const double cell = 10.0;
  const std::size_t n = 4200;
  Rng rng(18);
  std::vector<Vec2> pos = {{0.5, 0.5}, {279 * cell + 0.5, 239 * cell + 0.5}};
  while (pos.size() < n) {
    pos.push_back({rng.uniform(0, 280 * cell), rng.uniform(0, 240 * cell)});
  }
  SpatialGrid grid(cell);
  grid.rebuild(pos);
  EXPECT_TRUE(grid.dense());
  const auto dense_hits = grid_hits(grid, cell);
  std::set<std::pair<std::size_t, std::size_t>> dense_pairs;
  for (const auto& [i, j, d2] : dense_hits) {
    EXPECT_EQ(d2, distance2(pos[i], pos[j]));
    dense_pairs.emplace(i, j);
  }
  EXPECT_EQ(dense_pairs, brute_pairs(pos, cell));

  pos.push_back({280 * cell + 0.5, 120 * cell});
  grid.rebuild(pos);
  EXPECT_FALSE(grid.dense());
  const auto flat_hits = grid_hits(grid, cell);
  std::set<std::pair<std::size_t, std::size_t>> flat_pairs;
  std::vector<std::tuple<std::size_t, std::size_t, double>> shared;
  for (const auto& hit : flat_hits) {
    flat_pairs.emplace(std::get<0>(hit), std::get<1>(hit));
    if (std::get<1>(hit) < n) shared.push_back(hit);
  }
  EXPECT_EQ(flat_pairs, brute_pairs(pos, cell));
  EXPECT_EQ(shared, dense_hits);
}

TEST(SpatialGridDense, TableIIDensityAtScaleMatchesBruteForce) {
  // Table II density (100 nodes in 4500 x 3400 m) for 3,000 nodes, with
  // the contact tracker's cell: 100 m range plus 64 m kinetic slack.
  const std::size_t n = 3000;
  const double scale = std::sqrt(static_cast<double>(n) / 100.0);
  const double cell = 164.0;
  Rng rng(19);
  std::vector<Vec2> pos;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(0, 4500 * scale), rng.uniform(0, 3400 * scale)});
  }
  SpatialGrid grid(cell);
  grid.rebuild(pos);
  EXPECT_TRUE(grid.dense());
  std::set<std::pair<std::size_t, std::size_t>> from_grid;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  grid.for_each_pair_within(
      cell, [&](std::size_t i, std::size_t j, double d2) {
        EXPECT_TRUE(same_bits(d2, distance2(pos[i], pos[j])))
            << "pair (" << i << ", " << j << ")";
        from_grid.emplace(i, j);
        order.emplace_back(i, j);
      });
  EXPECT_EQ(from_grid, brute_pairs(pos, cell));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  // About 0.55 neighbors per node at this density: ~800 pairs.
  EXPECT_GT(from_grid.size(), n / 5);
}

}  // namespace
}  // namespace dtn
