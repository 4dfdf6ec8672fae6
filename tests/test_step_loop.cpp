// The serial step loop's own guarantees, beyond what the golden pins
// cover: a mass TTL expiry purges every copy in the step it dies (under
// the step oracle), mid-run checkpoints resume digest-equal, an attached
// observer changes neither the digest trajectory nor the step path, the
// steady-state step loop — SDSRP candidate selection included —
// performs no heap allocation, the first step reserves nothing per
// node, and the inert `Parallel.threads` key still round-trips without
// changing a run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "src/buffer/fifo.hpp"
#include "src/buffer/sdsrp_policy.hpp"
#include "src/config/scenario.hpp"
#include "src/core/world.hpp"
#include "src/mobility/random_walk.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"
#include "src/snapshot/checkpoint.hpp"
#include "src/util/rng.hpp"
#include "tests/support/shared_worlds.hpp"
#include "tests/support/step_oracle.hpp"

// Counts every global allocation so the steady-state tests below can
// assert the step loop performs none once warm. ASan owns operator
// new/delete itself (replacing them trips its alloc-dealloc-mismatch
// check), so the counter — and the tests that need it — is compiled out
// under address sanitizing.
#if defined(__SANITIZE_ADDRESS__)
#define DTN_NO_ALLOC_COUNTER 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DTN_NO_ALLOC_COUNTER 1
#endif
#endif

#ifndef DTN_NO_ALLOC_COUNTER
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // DTN_NO_ALLOC_COUNTER

namespace dtn {
namespace {

std::vector<std::uint64_t> digest_trajectory(const Scenario& sc) {
  auto w = build_world(sc);
  std::vector<std::uint64_t> digests;
  for (double t = 300.0; t <= sc.world.duration + 1e-9; t += 300.0) {
    w->run_until(t);
    digests.push_back(w->digest());
  }
  return digests;
}

TEST(MassExpiry, HeapDrainPurgesEveryCopyInItsStep) {
  // Hundreds of copies dying in one step: the expiry-heap drain must
  // purge every one, and in the step its TTL runs out — the oracle finds
  // any copy that outlives it. tests/golden/trajectories.txt pins this
  // world's digests ("mass-expiry").
  auto w = mass_expiry_world();
  StepOracle oracle;
  w->add_observer(&oracle);
  w->run_until(60.0);
  EXPECT_EQ(w->stats().ttl_expired, 320u);
  EXPECT_EQ(oracle.steps(), 60u);
  EXPECT_EQ(oracle.violations(), 0u) << oracle.report();
}

/// Runs `sc` to its horizon, checkpointing to `path` at half time;
/// returns the uninterrupted end digest.
std::uint64_t run_with_midpoint_checkpoint(const Scenario& sc,
                                           const std::string& path) {
  auto w = build_world(sc);
  w->run_until(sc.world.duration / 2.0);
  snapshot::save_checkpoint(path, sc, *w);
  w->run_until(sc.world.duration);
  return w->digest();
}

TEST(StepLoopCheckpoint, MidRunRestoreIsDigestEqual) {
  Scenario sc = Scenario::taxi_paper();
  sc.policy = "sdsrp";
  sc.world.duration = 900.0;
  const std::string path = ::testing::TempDir() + "step_loop_checkpoint.ckpt";
  const std::uint64_t uninterrupted = run_with_midpoint_checkpoint(sc, path);

  auto restored = snapshot::restore_checkpoint(path);
  restored.world->run_until(sc.world.duration);
  EXPECT_EQ(restored.world->digest(), uninterrupted);
  std::remove(path.c_str());
}

TEST(ThreadsKeyCompat, NonzeroThreadsLoadsAndRunsLikeZero) {
  // `Parallel.threads` selects nothing any more, but scenario files,
  // checkpoints and benchmark fingerprints written with it must keep
  // loading, hashing and running exactly as before.
  Scenario sc = Scenario::random_waypoint_paper();
  EXPECT_EQ(sc.world.threads, 0u);
  sc.policy = "sdsrp";
  sc.world.duration = 900.0;
  sc.world.threads = 8;
  const std::string text = sc.to_settings().to_text();
  EXPECT_NE(text.find("Parallel.threads = 8"), std::string::npos) << text;
  const Scenario back = Scenario::from_settings(Settings::parse(text));
  EXPECT_EQ(back.world.threads, 8u);
  EXPECT_EQ(back.to_settings().to_text(), text);

  Scenario serial = sc;
  serial.world.threads = 0;
  EXPECT_EQ(digest_trajectory(back), digest_trajectory(serial));

  // A checkpoint carrying the key restores digest-equal, into a world
  // built from its embedded scenario and into one built with the key 0.
  const std::string path = ::testing::TempDir() + "threads_key_compat.ckpt";
  const std::uint64_t uninterrupted = run_with_midpoint_checkpoint(back, path);

  auto restored = snapshot::restore_checkpoint(path);
  EXPECT_EQ(restored.scenario.world.threads, 8u);
  restored.world->run_until(back.world.duration);
  EXPECT_EQ(restored.world->digest(), uninterrupted);

  auto zero = build_world(serial);
  {
    snapshot::ArchiveReader in = snapshot::read_archive_file(path);
    snapshot::restore_world_into(in, *zero);
  }
  zero->run_until(back.world.duration);
  EXPECT_EQ(zero->digest(), uninterrupted);
  std::remove(path.c_str());
}

// --- observers ---

// Twelve slow walkers, each in its own 30 m box. Adjacent boxes nearly
// touch, so contact episodes (and the sprayed traffic riding on them)
// punctuate long spans with no contact, no watch pair and no transfer,
// and staggered TTLs expire at exact steps.
std::unique_ptr<World> slow_walker_world() {
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 1200.0;
  cfg.range = 10.0;
  cfg.bandwidth = 10'000.0;
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  for (int i = 0; i < 12; ++i) {
    RandomWalkConfig wc;
    wc.area = Rect({i * 32.0, 0.0}, {i * 32.0 + 30.0, 30.0});
    wc.v_min = wc.v_max = 0.25;
    wc.epoch = 20.0;
    w->add_node(std::make_unique<RandomWalkModel>(wc, Rng(42 + i)), 100000);
  }
  MessageId id = 1;
  for (NodeId n = 0; n + 1 < 12; ++n) {
    Message m;
    m.id = id++;
    m.source = n;
    m.destination = n + 1;
    m.size = 100;
    m.created = 0.0;
    m.ttl = 100.0 + 50.0 * static_cast<double>(n);
    m.copies = 4;
    m.initial_copies = 4;
    m.received = 0.0;
    EXPECT_TRUE(w->inject_message(m));
  }
  return w;
}

TEST(StepLoopObserver, NoOpObserverChangesNeitherDigestsNorStepPath) {
  // Attaching an observer must not move a run onto another code path:
  // with or without one, run_until runs every simulated step through
  // step() (which counts it in the phase profile), and the digest
  // trajectories agree.
  struct NoOpObserver : WorldObserver {};
  NoOpObserver observer;
  auto plain = slow_walker_world();
  auto observed = slow_walker_world();
  observed->add_observer(&observer);
  std::vector<std::uint64_t> plain_digests;
  std::vector<std::uint64_t> observed_digests;
  for (double t = 100.0; t <= 1200.0 + 1e-9; t += 100.0) {
    plain->run_until(t);
    plain_digests.push_back(plain->digest());
    observed->run_until(t);
    observed_digests.push_back(observed->digest());
  }
  EXPECT_EQ(observed_digests, plain_digests);
  EXPECT_EQ(plain->phase_profile().steps, 1200u);
  EXPECT_EQ(observed->phase_profile().steps, 1200u);
}

// --- steady-state allocation ---

TEST(StepLoopScratch, SteadyStateStepLoopDoesNotAllocate) {
#ifdef DTN_NO_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counter disabled under AddressSanitizer";
#else
  // The hot-path scratch (churn buffers, traffic and fault staging, the
  // deferred-expiry list) lives in reused World members; once every
  // buffer has grown to its working size, stepping must not touch the
  // heap. A quiet stationary fleet reaches that steady state
  // immediately: priority caching off keeps the idle memo and per-node
  // memos empty, and the huge occupancy interval keeps the sampler out
  // of the window.
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 1000.0;
  cfg.range = 10.0;
  cfg.bandwidth = 100.0;
  cfg.priority_cache = false;
  cfg.occupancy_sample_interval = 1e9;
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  for (int i = 0; i < 16; ++i) {
    w->add_node(std::make_unique<StationaryModel>(
                    Vec2{static_cast<double>(i) * 500.0, 0.0}),
                10000);
  }
  w->run_until(50.0);  // warm every scratch buffer
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  w->run_until(150.0);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
#endif  // DTN_NO_ALLOC_COUNTER
}

TEST(StepLoopScratch, DenseGridRebuildsDoNotAllocateInSteadyState) {
#ifdef DTN_NO_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counter disabled under AddressSanitizer";
#else
  // The stationary variant above never re-buckets the grid after warmup
  // (the kinetic budget is never spent). This one keeps the fleet moving
  // so full grid passes — the dense counting-sort rebuild included —
  // keep running inside the measured window. Movers are confined to
  // small boxes far apart (no contacts ever form, so no Message churn),
  // and two stationary sentinels pin the corners of the occupied-cell
  // box so the dense directory never has to grow mid-window.
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 1000.0;
  cfg.range = 10.0;
  cfg.bandwidth = 100.0;
  cfg.priority_cache = false;
  cfg.occupancy_sample_interval = 1e9;
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  for (int i = 0; i < 16; ++i) {
    RandomWalkConfig wc;
    wc.area = Rect({i * 600.0, 0.0}, {i * 600.0 + 50.0, 50.0});
    wc.v_min = wc.v_max = 5.0;
    wc.epoch = 7.0;
    w->add_node(std::make_unique<RandomWalkModel>(wc, Rng(1000 + i)), 10000);
  }
  w->add_node(std::make_unique<StationaryModel>(Vec2{-60.0, -60.0}), 10000);
  w->add_node(std::make_unique<StationaryModel>(Vec2{9600.0, 120.0}), 10000);

  w->run_until(200.0);  // warm scratch; movers have bounced off every wall
  ASSERT_TRUE(w->contacts().grid().dense());
  const std::size_t passes_before = w->contacts().full_pass_count();
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  w->run_until(400.0);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  // The window must actually have exercised the rebuild path.
  EXPECT_GT(w->contacts().full_pass_count(), passes_before);
  EXPECT_TRUE(w->contacts().grid().dense());
  EXPECT_TRUE(w->contacts().current().empty());
#endif  // DTN_NO_ALLOC_COUNTER
}

TEST(StepLoopScratch, FirstStepReservesNothingPerNode) {
#ifdef DTN_NO_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counter disabled under AddressSanitizer";
#else
  // The first step sizes what the fleet needs as a whole (grid and
  // contact buffers), never one allocation per node: a buffer's message
  // vector, memo entries or estimator peers grow only when a node uses
  // them. 20,000 stationary nodes 50 m apart, out of
  // each other's 10 m range, with SDSRP traffic.
  constexpr std::size_t kNodes = 20'000;
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 100.0;
  cfg.range = 10.0;
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<SdsrpPolicy>());
  for (std::size_t i = 0; i < kNodes; ++i) {
    w->add_node(std::make_unique<StationaryModel>(
                    Vec2{static_cast<double>(i % 200) * 50.0,
                         static_cast<double>(i / 200) * 50.0}),
                2'000'000);
  }
  MessageGenConfig traffic;
  traffic.interval_min = traffic.interval_max = 1.0;
  w->enable_traffic(traffic, 7);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  w->step();
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_LT(after - before, kNodes / 100);
  EXPECT_EQ(w->stats().created, 1u);
  EXPECT_TRUE(w->contacts().current().empty());
#endif  // DTN_NO_ALLOC_COUNTER
}

/// Spray-and-Wait that counts next_to_send calls and the candidates it
/// returned, so a test can prove its window re-ran candidate selection.
class CountingRouter final : public Router {
 public:
  const char* name() const override { return inner_.name(); }
  std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer,
      const PolicyContext& ctx) const override {
    ++calls_;
    const auto msg = inner_.next_to_send(self, peer, ctx);
    if (msg.has_value()) ++chosen_;
    return msg;
  }
  bool on_sent(Message& copy, bool delivered, SimTime now) const override {
    return inner_.on_sent(copy, delivered, now);
  }
  void write_relay_copy(const Message& sender_copy, SimTime now,
                        Message& relay) const override {
    inner_.write_relay_copy(sender_copy, now, relay);
  }

  std::size_t calls() const { return calls_; }
  std::size_t chosen() const { return chosen_; }

 private:
  SprayAndWaitRouter inner_;
  mutable std::size_t calls_ = 0;
  mutable std::size_t chosen_ = 0;
};

TEST(StepLoopScratch, SdsrpCandidateSelectionDoesNotAllocate) {
#ifdef DTN_NO_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counter disabled under AddressSanitizer";
#else
  // SDSRP's scheduling path: ranking, the send-order snapshot, one relay
  // copy rated per candidate and the receiver's admission dry run. Two
  // stationary nodes hold a standing contact with full buffers. Node 0's
  // copies can spray (4 copies each), but node 1's wait-phase residents
  // out-rank every relay copy, so node 1 refuses them all and the pair
  // idles; node 1 has nothing to spray. Every message is bound for a far
  // third node and outlives the run. With the priority cache on, the
  // idle verdicts are re-checked each time the 15 s quantum expires, and
  // each re-check re-ranks, re-rates and re-plans from scratch storage.
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 1000.0;
  cfg.range = 10.0;
  cfg.bandwidth = 100.0;
  cfg.priority_cache = true;
  cfg.occupancy_sample_interval = 1e9;
  auto w = std::make_unique<World>(cfg);
  auto router = std::make_unique<CountingRouter>();
  const CountingRouter* counting = router.get();
  w->set_router(std::move(router));
  w->set_policy(std::make_unique<SdsrpPolicy>());
  constexpr std::int64_t kCapacity = 1000;
  w->add_node(std::make_unique<StationaryModel>(Vec2{0.0, 0.0}), kCapacity);
  w->add_node(std::make_unique<StationaryModel>(Vec2{5.0, 0.0}), kCapacity);
  w->add_node(std::make_unique<StationaryModel>(Vec2{900.0, 0.0}), kCapacity);
  MessageId next_id = 1;
  for (NodeId src : {NodeId{0}, NodeId{1}}) {
    for (int k = 0; k < 10; ++k) {  // 10 × 100 bytes: each buffer is full
      Message m;
      m.id = next_id++;
      m.source = src;
      m.destination = 2;
      m.size = 100;
      m.ttl = 50'000.0;
      m.copies = m.initial_copies = src == 0 ? 4 : 1;
      ASSERT_TRUE(w->inject_message(m));
    }
  }
  w->run_until(50.0);  // warm: link up, memos and scratch at working size
  ASSERT_EQ(w->contacts().current().size(), 1u);
  const std::size_t calls_before = counting->calls();
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  w->run_until(150.0);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  // The window must really have re-checked the idle pair: a re-check
  // every 16 steps in each direction is 12 calls in 100 s.
  EXPECT_GE(counting->calls() - calls_before, 10u);
  EXPECT_EQ(counting->chosen(), 0u);
  EXPECT_EQ(w->stats().transfers_started, 0u);
#endif  // DTN_NO_ALLOC_COUNTER
}

}  // namespace
}  // namespace dtn
