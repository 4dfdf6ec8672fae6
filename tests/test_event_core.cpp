// Event-driven simulation core (DESIGN.md §9): the expiry/ETA heap step
// loop with kinetic contact skipping. The paper scenarios' digest
// trajectories are pinned, under the step oracle, in
// test_golden_digests; this suite covers the edge cases those runs would
// only hit by accident (teleports, expiry while pinned, abort
// tombstones), with the oracle attached, and the settings key of the
// removed scan-based step loop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/buffer/fifo.hpp"
#include "src/config/scenario.hpp"
#include "src/core/world.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"
#include "src/util/error.hpp"
#include "tests/support/step_oracle.hpp"

namespace dtn {
namespace {

// --- scripted-topology edge cases ---

Message msg(MessageId id, NodeId src, NodeId dst, int copies = 4,
            double created = 0.0, double ttl = 500.0,
            std::int64_t size = 100) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.size = size;
  m.created = created;
  m.ttl = ttl;
  m.copies = copies;
  m.initial_copies = copies;
  m.received = created;
  return m;
}

std::unique_ptr<World> stationary_world(const WorldConfig& cfg,
                                        const std::vector<Vec2>& positions) {
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  for (const Vec2& p : positions) {
    w->add_node(std::make_unique<StationaryModel>(p), 10000);
  }
  return w;
}

TEST(EventCoreKinetics, TeleportDefeatsContactSkipping) {
  // A stationary fleet reports max_speed() == 0, so the tracker banks a
  // large motion budget — but a scripted teleport must still register:
  // skip decisions charge the *observed* displacement, not the bound.
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 1000.0;
  cfg.range = 10.0;
  cfg.bandwidth = 100.0;
  auto w = stationary_world(cfg, {{0, 0}, {500, 0}});
  StepOracle oracle;
  w->add_observer(&oracle);
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  w->run_until(50.0);  // long skip streak while out of range
  EXPECT_EQ(w->stats().delivered, 0u);
  auto& mob = dynamic_cast<StationaryModel&>(w->node(1).mobility());
  mob.move_to({5, 0});  // teleport into range
  w->run_until(55.0);
  EXPECT_EQ(w->stats().delivered, 1u);
  EXPECT_TRUE(w->contacts().in_contact(0, 1));
  mob.move_to({500, 0});  // and back out: the link must drop
  w->run_until(60.0);
  EXPECT_FALSE(w->contacts().in_contact(0, 1));
  EXPECT_EQ(oracle.violations(), 0u) << oracle.report();
}

TEST(EventCoreKinetics, SkippingActuallyEngagesOnPaperScenario) {
  // Not a correctness property, a regression guard for the optimization:
  // at 2 m/s in a 4500x3400 m world most steps cannot change any contact,
  // so the tracker must be skipping a substantial share of grid passes.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.duration = 600.0;
  auto w = build_world(sc);
  w->run();
  const auto& t = w->contacts();
  EXPECT_EQ(t.update_count(), 600u);
  EXPECT_LT(t.full_pass_count(), t.update_count() / 2);
}

TEST(EventCoreHeaps, ExpiryWhilePinnedWaitsForTransferEnd) {
  // A message expiring mid-transfer is pinned: the expiry heap defers it
  // until the transfer ends, and the in-flight-death path in
  // handle_completion accounts it exactly once.
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 100.0;
  cfg.range = 10.0;
  cfg.bandwidth = 10.0;  // 100-byte message -> 10 s transfer
  auto w = stationary_world(cfg, {{0, 0}, {5, 0}});
  StepOracle oracle;
  w->add_observer(&oracle);
  // Expires at t = 5, mid-flight of the transfer starting at t = 1.
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1, 4, 0.0, /*ttl=*/5.0)));
  w->run_until(8.0);
  EXPECT_TRUE(w->node(0).is_pinned(1)) << "copy purged mid-flight";
  EXPECT_EQ(w->stats().ttl_expired, 0u);
  w->run_until(20.0);
  EXPECT_EQ(w->stats().ttl_expired, 1u);
  EXPECT_EQ(w->stats().delivered, 0u);
  EXPECT_FALSE(w->node(0).buffer().has(1));
  EXPECT_EQ(w->stats().transfers_started,
            w->stats().transfers_completed + w->stats().transfers_aborted);
  EXPECT_EQ(oracle.violations(), 0u) << oracle.report();
}

TEST(EventCoreHeaps, AbortTombstonesDoNotCompleteLater) {
  // Start a transfer, break the link mid-flight (teleport), then restore
  // it. The aborted transfer's ETA entry must be discarded as a
  // tombstone, and the retry must succeed with consistent accounting.
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 200.0;
  cfg.range = 10.0;
  cfg.bandwidth = 10.0;
  auto w = stationary_world(cfg, {{0, 0}, {5, 0}});
  StepOracle oracle;
  w->add_observer(&oracle);
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  w->run_until(5.0);
  ASSERT_EQ(w->transfers_in_flight().size(), 1u);
  auto& mob = dynamic_cast<StationaryModel&>(w->node(1).mobility());
  mob.move_to({500, 0});  // link down: abort
  w->run_until(8.0);
  EXPECT_EQ(w->transfers_in_flight().size(), 0u);
  EXPECT_EQ(w->stats().transfers_aborted, 1u);
  mob.move_to({5, 0});  // link back up: retry from scratch
  w->run_until(25.0);
  EXPECT_EQ(w->stats().delivered, 1u);
  EXPECT_EQ(w->stats().transfers_started,
            w->stats().transfers_completed + w->stats().transfers_aborted);
  EXPECT_EQ(oracle.violations(), 0u) << oracle.report();
}

TEST(EventCoreConfig, LegacyStepKeyReadsFalseOrAbsentOnly) {
  // The scan-based step loop is gone, but its key stays in the settings
  // text as `false`: checkpoint fixtures embed that text, and scenario
  // fingerprints and manifests hash it.
  Settings s = Scenario::random_waypoint_paper().to_settings();
  EXPECT_EQ(s.get_string("World.legacyStep"), "false");
  EXPECT_EQ(Scenario::from_settings(s).to_settings().to_text(), s.to_text());

  Settings absent;
  absent.set("World.nodes", "24");
  EXPECT_EQ(Scenario::from_settings(absent).n_nodes, 24u);

  s.set("World.legacyStep", "true");
  try {
    (void)Scenario::from_settings(s);
    ADD_FAILURE() << "World.legacyStep = true was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("World.legacyStep"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dtn
