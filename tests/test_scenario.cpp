// Tests for scenario configuration, settings round-trip, and factories.
#include <gtest/gtest.h>

#include "src/config/scenario.hpp"
#include "src/util/error.hpp"
#include "src/util/units.hpp"

namespace dtn {
namespace {

TEST(Scenario, PaperRwpMatchesTableII) {
  const Scenario sc = Scenario::random_waypoint_paper();
  EXPECT_EQ(sc.n_nodes, 100u);
  EXPECT_DOUBLE_EQ(sc.world.duration, 18000.0);
  EXPECT_DOUBLE_EQ(sc.world.range, 100.0);
  EXPECT_DOUBLE_EQ(sc.world.bandwidth, units::kbps(250));
  EXPECT_EQ(sc.buffer_capacity, units::megabytes(2.5));
  EXPECT_EQ(sc.traffic.size, units::megabytes(0.5));
  EXPECT_DOUBLE_EQ(sc.traffic.ttl, units::minutes(300));
  EXPECT_EQ(sc.traffic.initial_copies, 32);
  EXPECT_DOUBLE_EQ(sc.traffic.interval_min, 25.0);
  EXPECT_DOUBLE_EQ(sc.traffic.interval_max, 35.0);
  EXPECT_DOUBLE_EQ(sc.rwp.area.width(), 4500.0);
  EXPECT_DOUBLE_EQ(sc.rwp.area.height(), 3400.0);
  EXPECT_DOUBLE_EQ(sc.rwp.v_min, 2.0);
  EXPECT_EQ(sc.mobility, "random-waypoint");
  EXPECT_EQ(sc.router, "spray-and-wait");
}

TEST(Scenario, PaperTaxiMatchesTableIII) {
  const Scenario sc = Scenario::taxi_paper();
  EXPECT_EQ(sc.n_nodes, 200u);
  EXPECT_EQ(sc.mobility, "taxi-fleet");
  EXPECT_EQ(sc.buffer_capacity, units::megabytes(2.5));
  EXPECT_EQ(sc.traffic.initial_copies, 32);
}

TEST(Scenario, SettingsRoundTrip) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.policy = "ttl-ratio";
  sc.seed = 77;
  sc.traffic.initial_copies = 48;
  const Scenario back = Scenario::from_settings(sc.to_settings());
  EXPECT_EQ(back.policy, "ttl-ratio");
  EXPECT_EQ(back.seed, 77u);
  EXPECT_EQ(back.traffic.initial_copies, 48);
  EXPECT_EQ(back.n_nodes, sc.n_nodes);
  EXPECT_DOUBLE_EQ(back.world.duration, sc.world.duration);
  EXPECT_DOUBLE_EQ(back.rwp.area.width(), 4500.0);
}

TEST(Scenario, MechanicsKnobsRoundTrip) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.sdsrp_anchor_last_spray = false;
  sc.sdsrp_reject_newcomer = false;
  sc.precheck_admission = false;
  sc.presplit_admission_view = true;
  sc.world.ack_gossip = true;
  sc.estimator.imt_mode = sdsrp::ImtEstimatorMode::kCensoredMle;
  sc.traffic.size_max = 900'000;
  const Scenario back = Scenario::from_settings(sc.to_settings());
  EXPECT_FALSE(back.sdsrp_anchor_last_spray);
  EXPECT_FALSE(back.sdsrp_reject_newcomer);
  EXPECT_FALSE(back.precheck_admission);
  EXPECT_TRUE(back.presplit_admission_view);
  EXPECT_TRUE(back.world.ack_gossip);
  EXPECT_EQ(back.estimator.imt_mode, sdsrp::ImtEstimatorMode::kCensoredMle);
  EXPECT_EQ(back.traffic.size_max, 900'000);
}

TEST(Scenario, BadImtModeRejected) {
  Settings s;
  s.set("Estimator.imtMode", "psychic");
  EXPECT_THROW(Scenario::from_settings(s), PreconditionError);
}

TEST(Scenario, FromSettingsUsesDefaultsForMissingKeys) {
  const Scenario sc = Scenario::from_settings(Settings::parse("World.nodes = 42\n"));
  EXPECT_EQ(sc.n_nodes, 42u);
  EXPECT_EQ(sc.router, "spray-and-wait");  // default preserved
}

TEST(Factory, AllRouterNamesConstruct) {
  for (const char* name :
       {"spray-and-wait", "spray-and-wait-source", "epidemic",
        "direct-delivery", "first-contact", "spray-and-focus", "prophet"}) {
    Scenario sc = Scenario::random_waypoint_paper();
    sc.router = name;
    EXPECT_NE(make_router(sc), nullptr) << name;
  }
}

TEST(Factory, UnknownRouterThrows) {
  Scenario sc;
  sc.router = "carrier-pigeon";
  EXPECT_THROW(make_router(sc), PreconditionError);
}

TEST(Factory, AllPolicyNamesConstruct) {
  for (const char* name :
       {"fifo", "drop-tail", "drop-largest", "lifo", "random", "ttl-ratio",
        "copies-ratio", "mofo", "sdsrp", "sdsrp-oracle", "gbsd",
        "gbsd-delay"}) {
    Scenario sc = Scenario::random_waypoint_paper();
    sc.policy = name;
    EXPECT_NE(make_policy(sc, 1), nullptr) << name;
  }
}

TEST(Factory, UnknownPolicyThrows) {
  Scenario sc;
  sc.policy = "oracle-of-delphi";
  EXPECT_THROW(make_policy(sc, 1), PreconditionError);
}

TEST(Factory, AllMobilityNamesConstruct) {
  for (const char* name : {"random-waypoint", "random-walk",
                           "random-direction", "taxi-fleet",
                           "manhattan-grid"}) {
    Scenario sc = Scenario::random_waypoint_paper();
    sc.mobility = name;
    EXPECT_NE(make_mobility(sc, Rng(1), 0), nullptr) << name;
  }
  Scenario sc;
  sc.mobility = "teleport";
  EXPECT_THROW(make_mobility(sc, Rng(1), 0), PreconditionError);
}

TEST(Factory, BuildWorldWiresEverything) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 10;
  sc.world.duration = 100.0;
  auto world = build_world(sc);
  ASSERT_NE(world, nullptr);
  EXPECT_EQ(world->node_count(), 10u);
  EXPECT_STREQ(world->router().name(), "spray-and-wait-binary");
  EXPECT_STREQ(world->policy().name(), "sdsrp");
  world->run();  // must not throw
  EXPECT_GT(world->stats().created, 0u);
}

TEST(Factory, BuildWorldIsDeterministic) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 20;
  sc.world.duration = 2000.0;
  auto w1 = build_world(sc);
  auto w2 = build_world(sc);
  w1->run();
  w2->run();
  EXPECT_EQ(w1->digest(), w2->digest());
}

TEST(Factory, DifferentSeedsDiverge) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 20;
  sc.world.duration = 3000.0;
  auto w1 = build_world(sc);
  sc.seed = 2;
  auto w2 = build_world(sc);
  w1->run();
  w2->run();
  // The digest covers the whole state: seeds that move anything differ.
  EXPECT_NE(w1->digest(), w2->digest());
}

TEST(Factory, RequiresTwoNodes) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 1;
  EXPECT_THROW(build_world(sc), PreconditionError);
}

}  // namespace
}  // namespace dtn
