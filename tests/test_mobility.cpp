// Unit tests for mobility models: containment, speed bounds, determinism,
// trace replay semantics, taxi-fleet aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/mobility/random_direction.hpp"
#include "src/mobility/random_walk.hpp"
#include "src/mobility/random_waypoint.hpp"
#include "src/mobility/stationary.hpp"
#include "src/mobility/taxi_fleet.hpp"
#include "src/mobility/trace_replay.hpp"
#include "src/snapshot/archive.hpp"

namespace dtn {
namespace {

template <typename Model>
void expect_contained(Model& m, const Rect& area, int steps, double dt) {
  for (int i = 0; i < steps; ++i) {
    m.advance(dt);
    const Vec2 p = m.position();
    EXPECT_TRUE(area.contains(p)) << "escaped to (" << p.x << "," << p.y
                                  << ") at step " << i;
  }
}

TEST(Stationary, NeverMoves) {
  StationaryModel m({3, 4});
  m.advance(100.0);
  EXPECT_EQ(m.position(), (Vec2{3, 4}));
  m.move_to({5, 6});
  EXPECT_EQ(m.position(), (Vec2{5, 6}));
}

TEST(RandomWaypoint, StaysInsideArea) {
  RandomWaypointConfig cfg;
  cfg.area = Rect::sized(100, 80);
  cfg.v_min = cfg.v_max = 5.0;
  RandomWaypointModel m(cfg, Rng(1));
  expect_contained(m, cfg.area, 2000, 1.0);
}

TEST(RandomWaypoint, SpeedBoundedByConfig) {
  RandomWaypointConfig cfg;
  cfg.area = Rect::sized(1000, 1000);
  cfg.v_min = 2.0;
  cfg.v_max = 4.0;
  RandomWaypointModel m(cfg, Rng(2));
  Vec2 prev = m.position();
  for (int i = 0; i < 500; ++i) {
    m.advance(1.0);
    const double moved = distance(prev, m.position());
    EXPECT_LE(moved, 4.0 + 1e-9);  // cannot exceed v_max * dt
    prev = m.position();
  }
}

TEST(RandomWaypoint, PausesAtWaypoints) {
  RandomWaypointConfig cfg;
  cfg.area = Rect::sized(50, 50);  // short trips
  cfg.v_min = cfg.v_max = 10.0;
  cfg.pause_min = cfg.pause_max = 5.0;
  RandomWaypointModel m(cfg, Rng(3));
  // With pauses, across many steps there must be steps with zero movement.
  int zero_steps = 0;
  Vec2 prev = m.position();
  for (int i = 0; i < 500; ++i) {
    m.advance(1.0);
    if (distance(prev, m.position()) < 1e-12) ++zero_steps;
    prev = m.position();
  }
  EXPECT_GT(zero_steps, 10);
}

TEST(RandomWaypoint, DeterministicGivenSeed) {
  RandomWaypointConfig cfg;
  RandomWaypointModel a(cfg, Rng(7)), b(cfg, Rng(7));
  for (int i = 0; i < 100; ++i) {
    a.advance(1.0);
    b.advance(1.0);
    EXPECT_EQ(a.position(), b.position());
  }
  // A model on a config shared with other models (as build_world builds
  // them) behaves like one on its own copy: same trace, same state bytes.
  RandomWaypointConfig paused;
  paused.area = Rect::sized(300.0, 200.0);
  paused.v_min = 1.0;
  paused.v_max = 5.0;
  paused.pause_min = 2.0;
  paused.pause_max = 30.0;
  const auto shared = std::make_shared<const RandomWaypointConfig>(paused);
  RandomWaypointModel sibling(shared, Rng(8));
  RandomWaypointModel on_shared(shared, Rng(9));
  RandomWaypointModel on_copy(paused, Rng(9));
  int paused_steps = 0;
  for (int i = 0; i < 10000; ++i) {
    const Vec2 before = on_copy.position();
    sibling.advance(1.0);
    on_shared.advance(1.0);
    on_copy.advance(1.0);
    ASSERT_EQ(on_shared.position(), on_copy.position()) << "step " << i;
    if (on_copy.position() == before) ++paused_steps;
  }
  EXPECT_GT(paused_steps, 1000);  // the pauses were exercised
  snapshot::ArchiveWriter from_shared;
  on_shared.save_state(from_shared);
  snapshot::ArchiveWriter from_copy;
  on_copy.save_state(from_copy);
  EXPECT_EQ(from_shared.bytes(), from_copy.bytes());
}

TEST(RandomWaypoint, RejectsBadConfig) {
  RandomWaypointConfig cfg;
  cfg.v_min = 0.0;
  EXPECT_THROW(RandomWaypointModel(cfg, Rng(1)), PreconditionError);
  RandomWaypointConfig cfg2;
  cfg2.pause_min = 5.0;
  cfg2.pause_max = 1.0;
  EXPECT_THROW(RandomWaypointModel(cfg2, Rng(1)), PreconditionError);
}

TEST(RandomWalk, StaysInsideAreaViaReflection) {
  RandomWalkConfig cfg;
  cfg.area = Rect::sized(60, 40);
  cfg.v_min = cfg.v_max = 3.0;
  cfg.epoch = 20.0;
  RandomWalkModel m(cfg, Rng(4));
  expect_contained(m, cfg.area, 3000, 1.0);
}

TEST(RandomWalk, AdvanceRejectsNegativeDt) {
  RandomWalkModel m(RandomWalkConfig{}, Rng(5));
  EXPECT_THROW(m.advance(-1.0), PreconditionError);
}

TEST(RandomDirection, StaysInsideArea) {
  RandomDirectionConfig cfg;
  cfg.area = Rect::sized(70, 90);
  cfg.v_min = cfg.v_max = 4.0;
  RandomDirectionModel m(cfg, Rng(6));
  expect_contained(m, cfg.area, 3000, 1.0);
}

TEST(RandomDirection, ReachesBordersRegularly) {
  // Random-direction legs end at borders; over time positions should hit
  // near-border strips often.
  RandomDirectionConfig cfg;
  cfg.area = Rect::sized(100, 100);
  cfg.v_min = cfg.v_max = 10.0;
  RandomDirectionModel m(cfg, Rng(7));
  int near_border = 0;
  for (int i = 0; i < 2000; ++i) {
    m.advance(1.0);
    const Vec2 p = m.position();
    const double d = std::min(std::min(p.x, 100 - p.x),
                              std::min(p.y, 100 - p.y));
    if (d < 5.0) ++near_border;
  }
  EXPECT_GT(near_border, 50);
}

TEST(TraceReplay, InterpolatesLinearly) {
  NodeTrace t;
  t.times = {0.0, 10.0, 20.0};
  t.points = {{0, 0}, {10, 0}, {10, 20}};
  TraceReplayModel m(t);
  EXPECT_EQ(m.position(), (Vec2{0, 0}));
  m.advance(5.0);
  EXPECT_EQ(m.position(), (Vec2{5, 0}));
  m.advance(10.0);  // now t=15
  EXPECT_EQ(m.position(), (Vec2{10, 10}));
  m.advance(100.0);  // beyond the trace: clamp at the last point
  EXPECT_EQ(m.position(), (Vec2{10, 20}));
}

TEST(TraceReplay, EmptyTraceThrows) {
  EXPECT_THROW(TraceReplayModel(NodeTrace{}), PreconditionError);
}

TEST(TraceSet, ParsesAndValidates) {
  const auto set = TraceSet::parse(R"(
    # time id x y
    0.0  0  10 20
    5.0  0  15 20
    0.0  1  0  0
  )");
  EXPECT_EQ(set.node_count(), 2u);
  EXPECT_EQ(set.nodes.at(0).times.size(), 2u);
  EXPECT_EQ(set.nodes.at(0).at(2.5), (Vec2{12.5, 20}));
}

TEST(TraceSet, RejectsMalformedAndUnsorted) {
  EXPECT_THROW(TraceSet::parse("bogus line\n"), PreconditionError);
  EXPECT_THROW(TraceSet::parse("5 0 1 1\n0 0 2 2\n"), PreconditionError);
}

TEST(TaxiFleet, StaysInsideArea) {
  TaxiFleetConfig cfg;
  TaxiFleetModel m(cfg, Rng(8));
  expect_contained(m, cfg.area, 3000, 1.0);
}

TEST(TaxiFleet, HomeSelectionRespectsExplicitIndex) {
  TaxiFleetConfig cfg;
  cfg.hotspots = TaxiFleetConfig::default_hotspots(cfg.area);
  TaxiFleetModel m(cfg, Rng(9), /*home=*/2);
  EXPECT_EQ(m.home(), 2u);
  EXPECT_THROW(TaxiFleetModel(cfg, Rng(9), 99), PreconditionError);
}

TEST(TaxiFleet, AggregatesAroundHotspots) {
  // Time-averaged positions must concentrate near hotspots: measure the
  // fraction of samples within 600 m of any hotspot and compare with the
  // area fraction those disks cover (aggregation = strong enrichment).
  TaxiFleetConfig cfg;
  cfg.hotspots = TaxiFleetConfig::default_hotspots(cfg.area);
  const double r = 600.0;
  int inside = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    TaxiFleetModel m(cfg, Rng(100 + seed));
    for (int i = 0; i < 2000; ++i) {
      m.advance(10.0);
      ++total;
      for (const auto& h : cfg.hotspots) {
        if (distance(m.position(), h.center) < r) {
          ++inside;
          break;
        }
      }
    }
  }
  const double frac = static_cast<double>(inside) / total;
  const double disk_area_frac =
      (static_cast<double>(cfg.hotspots.size()) * 3.14159 * r * r) /
      cfg.area.area();
  EXPECT_GT(frac, 1.5 * disk_area_frac);  // enriched near hotspots
}

TEST(TaxiFleet, RejectsBadConfig) {
  TaxiFleetConfig cfg;
  cfg.cruise_prob = 1.5;
  EXPECT_THROW(TaxiFleetModel(cfg, Rng(1)), PreconditionError);
  TaxiFleetConfig cfg2;
  cfg2.pause_alpha = 0.0;
  EXPECT_THROW(TaxiFleetModel(cfg2, Rng(1)), PreconditionError);
}

}  // namespace
}  // namespace dtn
