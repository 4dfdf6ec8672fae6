// Kernel integration tests using scripted (stationary) topologies where
// every transfer is predictable.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/buffer/fifo.hpp"
#include "src/buffer/sdsrp_policy.hpp"
#include "src/config/scenario.hpp"
#include "src/core/world.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"

namespace dtn {
namespace {

// World with 100 B/s links and 100-byte messages: a transfer takes 1 s.
WorldConfig fast_cfg() {
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 1000.0;
  cfg.range = 10.0;
  cfg.bandwidth = 100.0;
  return cfg;
}

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

std::unique_ptr<World> make_world(const WorldConfig& cfg,
                                  const std::vector<Vec2>& positions,
                                  std::int64_t buffer_cap = 10000) {
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  for (const Vec2& p : positions) {
    w->add_node(std::make_unique<StationaryModel>(p), buffer_cap);
  }
  return w;
}

TEST(World, DirectDeliveryBetweenNeighbors) {
  auto w = make_world(fast_cfg(), {{0, 0}, {5, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  w->run_until(5.0);
  EXPECT_EQ(w->stats().delivered, 1u);
  EXPECT_EQ(w->stats().delivery_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(w->stats().avg_hopcount(), 1.0);
  EXPECT_TRUE(w->node(1).has_delivered(1));
}

TEST(World, NoDeliveryOutOfRange) {
  auto w = make_world(fast_cfg(), {{0, 0}, {50, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  w->run_until(20.0);
  EXPECT_EQ(w->stats().delivered, 0u);
}

TEST(World, SprayThenWaitTwoHops) {
  // Chain 0 - 1 - 2 where 0 and 2 are out of range of each other.
  // Node 0 sprays to node 1; node 1 delivers to node 2.
  auto w = make_world(fast_cfg(), {{0, 0}, {8, 0}, {16, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 2, /*copies=*/4)));
  w->run_until(10.0);
  EXPECT_EQ(w->stats().delivered, 1u);
  EXPECT_DOUBLE_EQ(w->stats().avg_hopcount(), 2.0);
  // Binary split: node 0 kept 2 copies, node 1 got 2.
  ASSERT_NE(w->node(0).buffer().find(1), nullptr);
  EXPECT_EQ(w->node(0).buffer().find(1)->copies, 2);
  ASSERT_NE(w->node(1).buffer().find(1), nullptr);
  EXPECT_EQ(w->node(1).buffer().find(1)->copies, 2);
}

TEST(World, DeliveredOnlyCountedOnce) {
  // Both 0 and 1 hold the message for 2; each will meet 2 and try to
  // deliver, but stats must count a single delivery.
  auto w = make_world(fast_cfg(), {{0, 0}, {8, 0}, {8, 8}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 2, 8)));
  w->run_until(30.0);
  EXPECT_EQ(w->stats().delivered, 1u);
}

TEST(World, TtlExpiryPurgesCopies) {
  auto w = make_world(fast_cfg(), {{0, 0}, {500, 0}});  // out of range
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1, 4, 0.0, /*ttl=*/10.0)));
  w->run_until(15.0);
  EXPECT_FALSE(w->node(0).buffer().has(1));
  EXPECT_EQ(w->stats().ttl_expired, 1u);
  EXPECT_EQ(w->stats().delivered, 0u);
}

TEST(World, TransferTakesBandwidthTime) {
  WorldConfig cfg = fast_cfg();
  cfg.bandwidth = 10.0;  // 100-byte message -> 10 s
  auto w = make_world(cfg, {{0, 0}, {5, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  w->run_until(5.0);
  EXPECT_EQ(w->stats().delivered, 0u);  // still in flight
  EXPECT_EQ(w->transfers_in_flight().size(), 1u);
  w->run_until(12.0);
  EXPECT_EQ(w->stats().delivered, 1u);
}

TEST(World, RadioIsSerialOneTransferAtATime) {
  // Node 0 within range of both 1 and 2; two wait-phase messages, one per
  // destination. With 10 s per transfer only one can be in flight at once.
  WorldConfig cfg = fast_cfg();
  cfg.bandwidth = 10.0;
  auto w = make_world(cfg, {{0, 0}, {5, 0}, {0, 5}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1, 1)));
  ASSERT_TRUE(w->inject_message(msg(2, 0, 2, 1)));
  w->run_until(5.0);
  EXPECT_EQ(w->transfers_in_flight().size(), 1u);
  w->run_until(25.0);
  EXPECT_EQ(w->stats().delivered, 2u);
}

TEST(World, StatsOverheadRatioDefinition) {
  // Chain spray: one relay transfer + one delivery transfer, 1 delivery.
  auto w = make_world(fast_cfg(), {{0, 0}, {8, 0}, {16, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 2, 4)));
  w->run_until(10.0);
  const SimStats& s = w->stats();
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_GE(s.transfers_completed, 2u);
  EXPECT_DOUBLE_EQ(
      s.overhead_ratio(),
      (static_cast<double>(s.transfers_completed) - 1.0) / 1.0);
}

TEST(World, RegistryTracksHoldersAndSeen) {
  auto w = make_world(fast_cfg(), {{0, 0}, {8, 0}, {16, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 2, 4)));
  EXPECT_DOUBLE_EQ(w->registry().n_holding(1), 1.0);
  EXPECT_DOUBLE_EQ(w->registry().m_seen(1), 0.0);
  w->run_until(10.0);
  // Node 1 received a sprayed copy: m=1 (excl. source), holders {0,1}.
  EXPECT_DOUBLE_EQ(w->registry().m_seen(1), 1.0);
  EXPECT_DOUBLE_EQ(w->registry().n_holding(1), 2.0);
}

TEST(World, IntermeetingEstimatorSeesContacts) {
  auto w = make_world(fast_cfg(), {{0, 0}, {5, 0}});
  w->run_until(5.0);
  // One contact started: last_contact must be recorded for both.
  EXPECT_GT(w->node(0).intermeeting().last_contact(1), 0.0);
  EXPECT_GT(w->node(1).intermeeting().last_contact(0), 0.0);
}

TEST(World, BufferOverflowDropsAndCounts) {
  // Buffer fits two 100-byte messages; inject three at the same source.
  auto w = make_world(fast_cfg(), {{0, 0}, {500, 0}}, /*buffer_cap=*/200);
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  ASSERT_TRUE(w->inject_message(msg(2, 0, 1)));
  ASSERT_TRUE(w->inject_message(msg(3, 0, 1)));  // evicts FIFO-oldest (1)
  EXPECT_EQ(w->stats().drops, 1u);
  EXPECT_FALSE(w->node(0).buffer().has(1));
  EXPECT_TRUE(w->node(0).buffer().has(2));
  EXPECT_TRUE(w->node(0).buffer().has(3));
}

TEST(World, InjectRejectedWhenMessageBiggerThanBuffer) {
  auto w = make_world(fast_cfg(), {{0, 0}, {500, 0}}, /*buffer_cap=*/200);
  EXPECT_FALSE(w->inject_message(msg(1, 0, 1, 4, 0.0, 500.0, /*size=*/300)));
  EXPECT_EQ(w->stats().source_rejected, 1u);
}

TEST(World, TrafficGeneratorProducesMessages) {
  WorldConfig cfg = fast_cfg();
  cfg.duration = 200.0;
  auto w = make_world(cfg, {{0, 0}, {5, 0}});
  MessageGenConfig gen;
  gen.interval_min = 10.0;
  gen.interval_max = 10.0;  // deterministic spacing
  gen.size = 100;
  gen.ttl = 500.0;
  gen.initial_copies = 4;
  w->enable_traffic(gen, 42);
  w->run();
  EXPECT_NEAR(static_cast<double>(w->stats().created), 19.0, 1.0);
  EXPECT_GT(w->stats().delivered, 0u);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    WorldConfig cfg = fast_cfg();
    cfg.duration = 300.0;
    auto w = make_world(cfg, {{0, 0}, {5, 0}, {9, 0}, {300, 300}});
    MessageGenConfig gen;
    gen.size = 100;
    gen.interval_min = 5;
    gen.interval_max = 15;
    gen.ttl = 200;
    w->enable_traffic(gen, 7);
    w->run();
    return std::tuple{w->stats().created, w->stats().delivered,
                      w->stats().transfers_completed, w->stats().drops};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(World, SdsrpDroppedListGossipPropagates) {
  WorldConfig cfg = fast_cfg();
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<SdsrpPolicy>());
  w->add_node(std::make_unique<StationaryModel>(Vec2{0, 0}), 10000);
  w->add_node(std::make_unique<StationaryModel>(Vec2{5, 0}), 10000);
  // Scripted drop on node 0 before any contact processing.
  w->node(0).dropped_list().record_local_drop(77, 0.5);
  w->run_until(3.0);  // contact comes up -> gossip merge
  EXPECT_DOUBLE_EQ(w->node(1).dropped_list().count_drops(77), 1.0);
}

TEST(World, LinkBreakAbortsTransferWithoutCopyTransfer) {
  WorldConfig cfg = fast_cfg();
  cfg.bandwidth = 10.0;  // 10 s per message
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  w->add_node(std::make_unique<StationaryModel>(Vec2{0, 0}), 10000);
  w->add_node(std::make_unique<StationaryModel>(Vec2{5, 0}), 10000);
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  w->run_until(4.0);
  ASSERT_EQ(w->transfers_in_flight().size(), 1u);
  // Receiver walks away mid-transfer.
  auto* m1 = dynamic_cast<StationaryModel*>(&w->node(1).mobility());
  ASSERT_NE(m1, nullptr);
  m1->move_to({500, 0});
  w->run_until(20.0);
  EXPECT_EQ(w->stats().transfers_aborted, 1u);
  EXPECT_EQ(w->stats().delivered, 0u);
  // Sender keeps its copy, unpinned and droppable again.
  EXPECT_TRUE(w->node(0).buffer().has(1));
  EXPECT_FALSE(w->node(0).is_pinned(1));
  EXPECT_FALSE(w->node(0).radio_busy());
  EXPECT_FALSE(w->node(1).radio_busy());
  // The pair can retry when they re-meet.
  m1->move_to({5, 0});
  w->run_until(40.0);
  EXPECT_EQ(w->stats().delivered, 1u);
}

TEST(World, ExpiredMessageDiesInFlight) {
  WorldConfig cfg = fast_cfg();
  cfg.bandwidth = 10.0;  // 10 s transfer
  auto w = make_world(cfg, {{0, 0}, {5, 0}});
  // TTL expires at t=5, mid-transfer.
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1, 1, 0.0, /*ttl=*/5.0)));
  w->run_until(20.0);
  EXPECT_EQ(w->stats().delivered, 0u);
  EXPECT_EQ(w->stats().ttl_expired, 1u);
  EXPECT_FALSE(w->node(0).buffer().has(1));
  EXPECT_FALSE(w->node(1).buffer().has(1));
}

// started == completed + aborted (+ still in flight) must hold at any
// point of any run — trace consumers reconcile transfer streams on it.
// Exercised across all four paper policies on the Table II scenario,
// shrunk but kept hostile (small buffers force drops and rejections,
// slow transfers force link-break aborts).
TEST(World, TransferCounterInvariantAcrossPaperPolicies) {
  for (const char* policy : {"fifo", "ttl-ratio", "copies-ratio", "sdsrp"}) {
    Scenario sc = Scenario::random_waypoint_paper();
    sc.policy = policy;
    sc.world.duration = 2000.0;
    sc.buffer_capacity = 1'000'000;  // 2 messages: constant eviction
    auto w = build_world(sc);
    w->run();
    const SimStats& s = w->stats();
    EXPECT_GT(s.transfers_started, 0u) << policy;
    EXPECT_GT(s.transfers_aborted, 0u) << policy;
    EXPECT_EQ(s.transfers_started,
              s.transfers_completed + s.transfers_aborted +
                  w->transfers_in_flight().size())
        << policy;
  }
}

TEST(World, DuplicateRelayArrivalCountsAsCompletedTransfer) {
  WorldConfig cfg = fast_cfg();
  cfg.bandwidth = 10.0;  // 100-byte message -> 10 s in flight
  // 0 and 1 adjacent; the destination (2) is unreachable, so 0 -> 1 is a
  // relay transfer.
  auto w = make_world(cfg, {{0, 0}, {5, 0}, {1000, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 2, /*copies=*/4)));
  w->run_until(5.0);
  ASSERT_EQ(w->transfers_in_flight().size(), 1u);
  // The receiver obtains a copy through a side channel mid-transfer.
  ASSERT_TRUE(w->node(1).buffer().try_insert(msg(1, 0, 2, /*copies=*/2)));
  w->run_until(12.0);
  const SimStats& s = w->stats();
  EXPECT_EQ(s.transfers_started, 1u);
  EXPECT_EQ(s.transfers_completed, 1u);  // ran to completion — counted
  EXPECT_EQ(s.transfers_aborted, 0u);
  EXPECT_EQ(s.duplicates, 1u);
  // The sender's copy budget stays untouched: no split happened.
  ASSERT_NE(w->node(0).buffer().find(1), nullptr);
  EXPECT_EQ(w->node(0).buffer().find(1)->copies, 4);
}

TEST(World, AdmissionRejectedArrivalCountsAsAborted) {
  WorldConfig cfg = fast_cfg();
  cfg.bandwidth = 10.0;
  auto w = std::make_unique<World>(cfg);
  // No receiver-admission handshake: the transfer starts even though the
  // receiver can never admit the copy.
  SprayAndWaitConfig swc;
  swc.precheck_admission = false;
  w->set_router(std::make_unique<SprayAndWaitRouter>(swc));
  w->set_policy(std::make_unique<FifoPolicy>());
  w->add_node(std::make_unique<StationaryModel>(Vec2{0, 0}), 10000);
  w->add_node(std::make_unique<StationaryModel>(Vec2{5, 0}), 50);  // < 100 B
  w->add_node(std::make_unique<StationaryModel>(Vec2{1000, 0}), 10000);
  ASSERT_TRUE(w->inject_message(msg(1, 0, 2, /*copies=*/4)));
  w->run_until(12.0);
  const SimStats& s = w->stats();
  // The sender retries after the abort, so a second attempt may already
  // be in flight; the ledger must still balance.
  EXPECT_EQ(s.transfers_completed, 0u);
  EXPECT_EQ(s.transfers_aborted, 1u);  // ran but took no effect
  EXPECT_EQ(s.admission_rejected, 1u);
  EXPECT_EQ(s.transfers_started,
            s.transfers_aborted + w->transfers_in_flight().size());
  EXPECT_FALSE(w->node(1).buffer().has(1));
}

TEST(World, InjectRejectionRecordsLocalDropLikeGeneratedTraffic) {
  WorldConfig cfg = fast_cfg();
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<SdsrpPolicy>());
  w->add_node(std::make_unique<StationaryModel>(Vec2{0, 0}), 200);
  w->add_node(std::make_unique<StationaryModel>(Vec2{500, 0}), 200);
  // Too big to ever fit: source-side rejection.
  EXPECT_FALSE(w->inject_message(msg(1, 0, 1, 4, 0.0, 500.0, /*size=*/300)));
  EXPECT_EQ(w->stats().source_rejected, 1u);
  // d̂_1 must reflect the drop exactly as if the generator had made it.
  EXPECT_TRUE(w->node(0).has_dropped(1));
  EXPECT_DOUBLE_EQ(w->node(0).dropped_list().count_drops(1), 1.0);
}

TEST(World, ConfigValidationRejectsBadIntervals) {
  WorldConfig cfg = fast_cfg();
  cfg.occupancy_sample_interval = 0.0;  // would sample every tick forever
  EXPECT_THROW(World w(cfg), PreconditionError);
  cfg.occupancy_sample_interval = -5.0;
  EXPECT_THROW(World w(cfg), PreconditionError);
  cfg = fast_cfg();
  cfg.priority_refresh_s = -1.0;
  EXPECT_THROW(World w(cfg), PreconditionError);
}

TEST(World, RequiresSetupBeforeNodes) {
  World w(fast_cfg());
  EXPECT_THROW(w.add_node(std::make_unique<StationaryModel>(Vec2{0, 0}), 100),
               PreconditionError);
}

TEST(World, StepRequiresTwoNodes) {
  World w(fast_cfg());
  w.set_router(std::make_unique<SprayAndWaitRouter>());
  w.set_policy(std::make_unique<FifoPolicy>());
  w.add_node(std::make_unique<StationaryModel>(Vec2{0, 0}), 100);
  EXPECT_THROW(w.step(), PreconditionError);
}

}  // namespace
}  // namespace dtn
