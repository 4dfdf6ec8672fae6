// MessageArena: slab-pooled Message storage (DESIGN.md §14).
//
// The arena's accounting invariants are load-bearing — Buffer spans,
// checkpoint sizing hints and the zero-steady-state-allocation discipline
// all lean on them — so they are fuzzed here against a reference model:
//   * total_allocs == total_frees + live_count at every point;
//   * high_water == live_count + free_count (slots never leak);
//   * live_bytes tracks the byte sum of the live population exactly;
//   * a handle returns the same content until freed, no matter how many
//     other slots churn around it.
// A second group pins the checkpoint interaction: a World whose arena
// free list is fragmented (TTL purges + deliveries punch holes in slab
// order) must save → restore digest-identically and resume to the same
// end digest as the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/core/message_arena.hpp"
#include "src/snapshot/checkpoint.hpp"
#include "src/util/rng.hpp"

namespace dtn {
namespace {

Message make_msg(MessageId id, std::int64_t size, int sprays = 0) {
  Message m;
  m.id = id;
  m.source = 1;
  m.destination = 2;
  m.size = size;
  m.created = 10.0;
  m.ttl = 500.0;
  m.initial_copies = 8;
  m.copies = 4;
  m.hops = 1;
  for (int s = 0; s < sprays; ++s) m.spray_times.push_back(10.0 + s);
  return m;
}

TEST(MessageArena, AllocGetReleaseRoundTrip) {
  MessageArena a;
  const auto h = a.alloc(make_msg(7, 1000, 3));
  ASSERT_NE(h, MessageArena::kNullHandle);
  EXPECT_TRUE(a.is_live(h));
  EXPECT_EQ(a.get(h).id, 7u);
  EXPECT_EQ(a.live_count(), 1u);
  EXPECT_EQ(a.live_bytes(), 1000);

  const Message out = a.release(h);
  EXPECT_EQ(out.id, 7u);
  EXPECT_EQ(out.spray_times.size(), 3u);
  EXPECT_FALSE(a.is_live(h));
  EXPECT_EQ(a.live_count(), 0u);
  EXPECT_EQ(a.live_bytes(), 0);
  EXPECT_EQ(a.free_count(), 1u);
  EXPECT_EQ(a.high_water(), 1u);
}

TEST(MessageArena, FreeListIsLifoAndHandlesStayStable) {
  MessageArena a;
  const auto h0 = a.alloc(make_msg(0, 10));
  const auto h1 = a.alloc(make_msg(1, 10));
  const auto h2 = a.alloc(make_msg(2, 10));
  a.free(h1);
  a.free(h0);
  // LIFO: the most recently freed slot is recycled first.
  EXPECT_EQ(a.alloc(make_msg(3, 10)), h0);
  EXPECT_EQ(a.alloc(make_msg(4, 10)), h1);
  // h2 never moved.
  EXPECT_EQ(a.get(h2).id, 2u);
  EXPECT_EQ(a.high_water(), 3u);
}

TEST(MessageArena, RecycledSlotKeepsSprayCapacity) {
  MessageArena a;
  const auto h = a.alloc(make_msg(1, 10, /*sprays=*/16));
  a.free(h);
  // The incoming message brings no spray storage of its own; the retired
  // tenant's capacity must be inherited so relays stop allocating once
  // the lineage depth has been seen.
  const auto h2 = a.alloc(make_msg(2, 10, /*sprays=*/0));
  ASSERT_EQ(h2, h);
  EXPECT_GE(a.get(h2).spray_times.capacity(), 16u);
  EXPECT_TRUE(a.get(h2).spray_times.empty());
}

TEST(MessageArena, ReservePresizesSlabs) {
  MessageArena a;
  a.reserve(10000);  // 3 slabs of 4096
  EXPECT_GE(a.slab_count(), 3u);
  EXPECT_EQ(a.live_count(), 0u);
  // Reserved slots are not "created": high_water still counts usage.
  for (int i = 0; i < 5000; ++i) a.alloc(make_msg(i, 1));
  EXPECT_EQ(a.high_water(), 5000u);
  EXPECT_EQ(a.live_count(), 5000u);
}

TEST(MessageArena, RecyclingFuzzPreservesAccounting) {
  MessageArena a;
  Rng rng(0xA13EA5EEDull);
  std::unordered_map<MessageArena::Handle, Message> model;
  std::vector<MessageArena::Handle> handles;
  std::int64_t model_bytes = 0;
  MessageId next_id = 0;

  for (int step = 0; step < 20000; ++step) {
    const bool do_alloc =
        handles.empty() || (handles.size() < 600 && rng.uniform01() < 0.55);
    if (do_alloc) {
      const auto size = static_cast<std::int64_t>(rng.uniform_int(1, 4000));
      const int sprays = static_cast<int>(rng.uniform_int(0, 6));
      Message m = make_msg(next_id++, size, sprays);
      const Message copy = m;
      const auto h = a.alloc(std::move(m));
      ASSERT_FALSE(model.count(h)) << "recycled a live handle";
      model.emplace(h, copy);
      handles.push_back(h);
      model_bytes += size;
    } else {
      const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1);
      const auto h = handles[pick];
      handles[pick] = handles.back();
      handles.pop_back();
      const Message& want = model.at(h);
      ASSERT_EQ(a.get(h).id, want.id);
      ASSERT_EQ(a.get(h).size, want.size);
      ASSERT_EQ(a.get(h).spray_times, want.spray_times);
      model_bytes -= want.size;
      if (rng.uniform01() < 0.5) {
        const Message out = a.release(h);
        ASSERT_EQ(out.id, want.id);
        ASSERT_EQ(out.spray_times, want.spray_times);
      } else {
        a.free(h);
      }
      model.erase(h);
    }
    ASSERT_EQ(a.live_count(), model.size());
    ASSERT_EQ(a.live_bytes(), model_bytes);
    ASSERT_EQ(a.total_allocs(), a.total_frees() + a.live_count());
    ASSERT_EQ(a.high_water(), a.live_count() + a.free_count());
  }
  // Survivors still hold their exact content after 20k churn steps.
  for (const auto& [h, want] : model) {
    ASSERT_TRUE(a.is_live(h));
    ASSERT_EQ(a.get(h).id, want.id);
    ASSERT_EQ(a.get(h).spray_times, want.spray_times);
  }
}

// --- checkpoint interaction -----------------------------------------------

Scenario arena_scenario() {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 24;
  sc.world.duration = 3000.0;
  sc.traffic.ttl = 400.0;  // short TTL: purges fragment the free list
  sc.traffic.interval_min = 15.0;
  sc.traffic.interval_max = 25.0;
  sc.policy = "sdsrp";
  sc.seed = 17;
  return sc;
}

TEST(MessageArenaCheckpoint, FragmentedFreeListRoundTripsDigestIdentical) {
  const Scenario sc = arena_scenario();
  auto world = build_world(sc);
  world->run_until(1500.0);
  // The run must actually have fragmented the arena for this to pin
  // anything: holes exist iff slots were freed while later ones live.
  ASSERT_GT(world->arena().free_count(), 0u);
  ASSERT_GT(world->arena().live_count(), 0u);

  const std::string path =
      ::testing::TempDir() + "/arena_fragmented.ckpt";
  snapshot::save_checkpoint(path, sc, *world);
  auto restored = snapshot::restore_checkpoint(path);
  EXPECT_EQ(restored.world->digest(), world->digest())
      << "restore through a fragmented arena drifted";

  world->run();
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), world->digest())
      << "resumed run diverged from the uninterrupted one";
  std::remove(path.c_str());
}

TEST(MessageArenaCheckpoint, RestorePresizesFromSavedHighWater) {
  const Scenario sc = arena_scenario();
  auto world = build_world(sc);
  world->run_until(1500.0);
  const std::size_t high_water = world->arena().high_water();

  const std::string path = ::testing::TempDir() + "/arena_hint.ckpt";
  snapshot::save_checkpoint(path, sc, *world);
  auto restored = snapshot::restore_checkpoint(path);
  // The restored arena covers the saved population without regrowing:
  // prepare_capacity sizes its slabs for the scenario. The v5 hint is only
  // checked against the restored messages, never trusted to size them.
  EXPECT_GE(restored.world->arena().slab_count() * 4096, high_water);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dtn
