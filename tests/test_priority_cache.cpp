// PriorityCache unit semantics plus the tentpole equivalence proof: with
// priority_refresh_s = 0 a cached run is decision-identical to an
// uncached one — the World::digest() trajectories coincide step for step
// on the paper scenarios.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/core/priority_cache.hpp"
#include "src/core/world.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {
namespace {

TEST(PriorityCache, StoreLookupWithinRefreshQuantum) {
  PriorityCache c;
  double out = 0.0;
  EXPECT_FALSE(c.lookup(7, 100.0, 30.0, &out));
  c.store(7, 100.0, 3.5);
  ASSERT_TRUE(c.lookup(7, 100.0, 0.0, &out));  // same instant: always valid
  EXPECT_DOUBLE_EQ(out, 3.5);
  EXPECT_TRUE(c.lookup(7, 129.0, 30.0, &out));   // within quantum
  EXPECT_FALSE(c.lookup(7, 131.0, 30.0, &out));  // decayed past quantum
  EXPECT_FALSE(c.lookup(7, 101.0, 0.0, &out));   // zero quantum: any later t
}

TEST(PriorityCache, InvalidateErasesSingleEntry) {
  PriorityCache c;
  c.store(1, 0.0, 1.0);
  c.store(2, 0.0, 2.0);
  EXPECT_EQ(c.stamp(), 0u);  // stores do not move the change counter
  c.invalidate(1);
  EXPECT_EQ(c.stamp(), 1u);
  double out = 0.0;
  EXPECT_FALSE(c.lookup(1, 0.0, 10.0, &out));
  EXPECT_TRUE(c.lookup(2, 0.0, 10.0, &out));
}

TEST(PriorityCache, EpochBumpClearsEverythingAndAdvancesEpoch) {
  PriorityCache c;
  c.store(1, 0.0, 1.0);
  c.rewrite_send_order(0.0, 5) = {1};
  const std::uint64_t before = c.epoch();
  const std::uint64_t stamp_before = c.stamp();
  c.bump_epoch();
  EXPECT_EQ(c.epoch(), before + 1);
  EXPECT_EQ(c.stamp(), stamp_before + 1);
  double out = 0.0;
  EXPECT_FALSE(c.lookup(1, 0.0, 10.0, &out));
  EXPECT_EQ(c.send_order(0.0, 10.0, 5), nullptr);
}

TEST(PriorityCache, SendOrderKeyedOnRevisionAndQuantum) {
  PriorityCache c;
  c.rewrite_send_order(50.0, 9) = {3, 1, 2};
  const auto* order = c.send_order(50.0, 0.0, 9);
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(*order, (std::vector<MessageId>{3, 1, 2}));
  EXPECT_EQ(c.send_order(50.0, 0.0, 10), nullptr);  // membership churned
  EXPECT_EQ(c.send_order(51.0, 0.0, 9), nullptr);   // zero quantum
  EXPECT_NE(c.send_order(79.0, 30.0, 9), nullptr);  // within quantum
  c.invalidate(1);                                  // rank may have moved
  EXPECT_EQ(c.send_order(50.0, 30.0, 9), nullptr);
}

TEST(PriorityCache, DigestHashesEpochButNotMemoEntries) {
  // Two caches in the same semantic state (equal epoch) must hash
  // identically no matter what transient memo they carry — this is what
  // lets cached and uncached runs share one digest trajectory.
  PriorityCache a;
  PriorityCache b;
  a.store(1, 0.0, 1.0);
  a.rewrite_send_order(0.0, 1) = {1};
  auto digest_of = [](const PriorityCache& c) {
    snapshot::ArchiveWriter w(snapshot::ArchiveWriter::Mode::kDigestOnly);
    c.save_state(w);
    return w.digest();
  };
  EXPECT_EQ(digest_of(a), digest_of(b));
  b.bump_epoch();
  EXPECT_NE(digest_of(a), digest_of(b));
}

TEST(PriorityCache, BufferedRoundTripRestoresMemo) {
  PriorityCache a;
  a.store(4, 10.0, 0.25);
  a.store(9, 12.0, 0.75);
  a.rewrite_send_order(12.0, 3) = {9, 4};
  a.bump_epoch();  // kills both; epoch = 1
  a.store(4, 14.0, 0.5);
  a.rewrite_send_order(14.0, 4) = {4};
  snapshot::ArchiveWriter w;
  a.save_state(w);
  PriorityCache b;
  snapshot::ArchiveReader r(w.bytes());
  b.load_state(r);
  EXPECT_EQ(b.epoch(), a.epoch());
  EXPECT_EQ(b.stamp(), a.stamp());
  double out = 0.0;
  ASSERT_TRUE(b.lookup(4, 14.0, 0.0, &out));
  EXPECT_DOUBLE_EQ(out, 0.5);
  const auto* order = b.send_order(14.0, 0.0, 4);
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(*order, (std::vector<MessageId>{4}));
}

TEST(PriorityCache, EntriesStayOrderedThroughStoresAndInvalidations) {
  // Stores out of id order, overwrites and erasures: lookups still find
  // every live entry, and the save is the same as for the same memo
  // built in ascending order.
  PriorityCache a;
  for (MessageId id : {7u, 3u, 11u, 5u, 9u}) a.store(id, 1.0, 0.1 * id);
  a.store(5, 2.0, 0.55);  // overwrite in place
  a.invalidate(11);
  a.invalidate(4);  // absent: only the stamp moves
  EXPECT_EQ(a.entry_count(), 4u);
  double out = 0.0;
  EXPECT_FALSE(a.lookup(11, 2.0, 10.0, &out));
  ASSERT_TRUE(a.lookup(5, 2.0, 0.0, &out));
  EXPECT_DOUBLE_EQ(out, 0.55);

  PriorityCache b;
  b.invalidate(0);
  b.invalidate(0);  // same stamp as a's two invalidations
  b.store(3, 1.0, 0.1 * 3);
  b.store(5, 2.0, 0.55);
  b.store(7, 1.0, 0.1 * 7);
  b.store(9, 1.0, 0.1 * 9);
  snapshot::ArchiveWriter wa;
  a.save_state(wa);
  snapshot::ArchiveWriter wb;
  b.save_state(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

// A hand-built "prio-cache" section: epoch 3, stamp 4, one memo entry
// per id in the given order, no send order.
std::vector<std::uint8_t> memo_section(const std::vector<MessageId>& ids) {
  snapshot::ArchiveWriter w;
  w.begin_section("prio-cache");
  w.u64(3);
  w.u64(4);
  w.u64(ids.size());
  for (MessageId id : ids) {
    w.u64(id);
    w.f64(0.5);
    w.f64(1.0);
  }
  w.boolean(false);
  w.end_section();
  return w.bytes();
}

void load(PriorityCache& c, const std::vector<MessageId>& ids) {
  snapshot::ArchiveReader in(memo_section(ids));
  c.load_state(in);
}

TEST(PriorityCacheState, LoadsAscendingIdsAndResavesTheSameBytes) {
  PriorityCache c;
  load(c, {2, 5, 9});
  EXPECT_EQ(c.entry_count(), 3u);
  double out = 0.0;
  EXPECT_TRUE(c.lookup(5, 1.0, 0.0, &out));
  snapshot::ArchiveWriter resaved;
  c.save_state(resaved);
  EXPECT_EQ(resaved.bytes(), memo_section({2, 5, 9}));
}

TEST(PriorityCacheState, RejectsRepeatedId) {
  // Accepting it would restore a memo that saves back to other bytes.
  PriorityCache c;
  EXPECT_THROW(load(c, {2, 5, 5}), PreconditionError);
}

TEST(PriorityCacheState, RejectsIdsOutOfOrder) {
  PriorityCache c;
  EXPECT_THROW(load(c, {9, 5}), PreconditionError);
}

TEST(PriorityCacheState, RejectsEntryCountBeyondTheStream) {
  // The count sizes the entry vector, so it is checked against the bytes
  // left before anything is reserved.
  snapshot::ArchiveWriter w;
  w.begin_section("prio-cache");
  w.u64(0);
  w.u64(0);
  w.u64(std::uint64_t{1} << 40);
  w.end_section();
  PriorityCache c;
  snapshot::ArchiveReader in(w.bytes());
  EXPECT_THROW(c.load_state(in), PreconditionError);
}

// The equivalence proof. priority_refresh_s = 0 restricts reuse to the
// same instant; since every priority function is pure in (message, node
// state, now), the cached run must make bit-identical decisions — checked
// via the digest trajectory, which hashes the complete dynamic state.
std::vector<std::uint64_t> digest_trajectory(Scenario sc, bool cached) {
  sc.world.priority_cache = cached;
  sc.world.priority_refresh_s = 0.0;
  auto w = build_world(sc);
  std::vector<std::uint64_t> digests;
  for (double t = 300.0; t <= sc.world.duration + 1e-9; t += 300.0) {
    w->run_until(t);
    digests.push_back(w->digest());
  }
  return digests;
}

TEST(PriorityCacheEquivalence, TableIIRwpSdsrpDigestsMatchUncached) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.duration = 1800.0;
  sc.buffer_capacity = 1'250'000;  // tight: exercise the drop path hard
  EXPECT_EQ(digest_trajectory(sc, true), digest_trajectory(sc, false));
}

TEST(PriorityCacheEquivalence, TableIIRwpFifoDigestsMatchUncached) {
  // FIFO has no scalar priorities but does use the send-order snapshot.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.policy = "fifo";
  sc.world.duration = 1800.0;
  EXPECT_EQ(digest_trajectory(sc, true), digest_trajectory(sc, false));
}

TEST(PriorityCacheEquivalence, TableIIRwpKnapsackDigestsMatchUncached) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.policy = "knapsack-sdsrp";
  sc.world.duration = 1500.0;
  EXPECT_EQ(digest_trajectory(sc, true), digest_trajectory(sc, false));
}

TEST(PriorityCacheEquivalence, TaxiSdsrpDigestsMatchUncached) {
  Scenario sc = Scenario::taxi_paper();
  sc.world.duration = 1500.0;
  EXPECT_EQ(digest_trajectory(sc, true), digest_trajectory(sc, false));
}

TEST(PriorityCacheEquivalence, CensoredMleEstimatorStillExact) {
  // λ under the censored-MLE estimator varies continuously with `now` —
  // the hardest case for the refresh-quantum argument; at quantum 0 it
  // must still be exact.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.estimator.imt_mode = sdsrp::ImtEstimatorMode::kCensoredMle;
  sc.world.duration = 1200.0;
  EXPECT_EQ(digest_trajectory(sc, true), digest_trajectory(sc, false));
}

TEST(PriorityCacheEquivalence, DefaultQuantumRunsAndDelivers) {
  // At the default 30 s quantum decisions may drift from the uncached
  // path (that is the documented trade); the run must stay healthy.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.duration = 3000.0;
  auto w = build_world(sc);
  w->run();
  EXPECT_GT(w->stats().delivered, 0u);
  EXPECT_EQ(w->stats().transfers_started,
            w->stats().transfers_completed + w->stats().transfers_aborted +
                w->transfers_in_flight().size());
}

}  // namespace
}  // namespace dtn
