// Unit tests for contact detection / link churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "src/net/contact_tracker.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace dtn {
namespace {

TEST(ContactTracker, DetectsPairWithinRange) {
  ContactTracker t(10.0);
  const auto churn = t.update({{0, 0}, {5, 0}, {100, 100}});
  ASSERT_EQ(churn.went_up.size(), 1u);
  EXPECT_EQ(churn.went_up[0], (NodePair{0, 1}));
  EXPECT_TRUE(churn.went_down.empty());
  EXPECT_TRUE(t.in_contact(0, 1));
  EXPECT_TRUE(t.in_contact(1, 0));  // symmetric
  EXPECT_FALSE(t.in_contact(0, 2));
}

TEST(ContactTracker, NoChurnWhileStable) {
  ContactTracker t(10.0);
  t.update({{0, 0}, {5, 0}});
  const auto churn = t.update({{0, 0}, {6, 0}});  // still in range
  EXPECT_TRUE(churn.went_up.empty());
  EXPECT_TRUE(churn.went_down.empty());
}

TEST(ContactTracker, DetectsLinkDown) {
  ContactTracker t(10.0);
  t.update({{0, 0}, {5, 0}});
  const auto churn = t.update({{0, 0}, {50, 0}});
  EXPECT_TRUE(churn.went_up.empty());
  ASSERT_EQ(churn.went_down.size(), 1u);
  EXPECT_EQ(churn.went_down[0], (NodePair{0, 1}));
  EXPECT_FALSE(t.in_contact(0, 1));
}

TEST(ContactTracker, RangeBoundaryInclusive) {
  ContactTracker t(10.0);
  const auto churn = t.update({{0, 0}, {10, 0}});
  EXPECT_EQ(churn.went_up.size(), 1u);  // distance == range counts
}

TEST(ContactTracker, MultiplePairsSortedDeterministically) {
  ContactTracker t(10.0);
  const auto churn = t.update({{0, 0}, {5, 0}, {5, 5}, {100, 0}, {104, 0}});
  // pairs: (0,1), (0,2), (1,2), (3,4)
  ASSERT_EQ(churn.went_up.size(), 4u);
  EXPECT_TRUE(std::is_sorted(churn.went_up.begin(), churn.went_up.end()));
  EXPECT_EQ(t.current().size(), 4u);
}

TEST(ContactTracker, FlappingLinkProducesChurnEachTime) {
  ContactTracker t(10.0);
  for (int i = 0; i < 3; ++i) {
    auto up = t.update({{0, 0}, {5, 0}});
    EXPECT_EQ(up.went_up.size(), 1u);
    auto down = t.update({{0, 0}, {50, 0}});
    EXPECT_EQ(down.went_down.size(), 1u);
  }
}

TEST(ContactTracker, MakePairSortedNormalizes) {
  EXPECT_EQ(make_pair_sorted(7, 3), (NodePair{3, 7}));
  EXPECT_EQ(make_pair_sorted(3, 7), (NodePair{3, 7}));
}

TEST(ContactTracker, RejectsBadRange) {
  EXPECT_THROW(ContactTracker(0.0), PreconditionError);
}

std::vector<Vec2> random_cloud(Rng& rng, std::size_t n, double extent) {
  std::vector<Vec2> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
  }
  return pos;
}

TEST(ContactTracker, ChurnDeterministicUnderPermutedNodeOrder) {
  // Relabeling the nodes must relabel the churn, nothing else: same pairs
  // (under the index mapping), and both emissions sorted. Guards against
  // iteration order leaking from hash containers or grid bucket layout.
  Rng rng(21);
  const std::size_t n = 80;
  std::vector<Vec2> pos = random_cloud(rng, n, 400.0);

  // Permutation: perm[i] = new index of original node i (reversal mixes
  // every comparison-based order).
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = n - 1 - i;
  std::vector<Vec2> pos_perm(n);
  for (std::size_t i = 0; i < n; ++i) pos_perm[perm[i]] = pos[i];

  ContactTracker a(50.0);
  ContactTracker b(50.0);
  const ContactChurn& ca = a.update(pos);
  const ContactChurn& cb = b.update(pos_perm);
  EXPECT_TRUE(std::is_sorted(cb.went_up.begin(), cb.went_up.end()));

  std::set<NodePair> mapped;
  for (const NodePair& p : ca.went_up) {
    mapped.insert(make_pair_sorted(perm[p.first], perm[p.second]));
  }
  const std::set<NodePair> got(cb.went_up.begin(), cb.went_up.end());
  EXPECT_EQ(got, mapped);
  EXPECT_EQ(a.current().size(), b.current().size());
}

TEST(ContactTracker, KineticSkippingMatchesDisabledTracker) {
  // Drive a kinetic tracker and a plain one through the same random-walk
  // trajectory; every update must report identical churn and contact
  // sets, while the kinetic one provably skips most grid passes.
  Rng rng(22);
  const std::size_t n = 40;
  const double range = 50.0;
  const double step_dist = 1.5;  // well under range: skipping can engage
  std::vector<Vec2> pos = random_cloud(rng, n, 600.0);

  ContactTracker kinetic(range);
  kinetic.set_motion_bound(step_dist);
  ContactTracker plain(range);  // no motion bound: full pass every step

  for (int step = 0; step < 400; ++step) {
    const ContactChurn& ck = kinetic.update(pos);
    const ContactChurn& cp = plain.update(pos);
    ASSERT_EQ(ck.went_up, cp.went_up) << "step " << step;
    ASSERT_EQ(ck.went_down, cp.went_down) << "step " << step;
    ASSERT_EQ(kinetic.current(), plain.current()) << "step " << step;
    for (Vec2& p : pos) {
      const double ang = rng.uniform(0.0, 6.283185307179586);
      p.x += step_dist * std::cos(ang);
      p.y += step_dist * std::sin(ang);
    }
  }
  EXPECT_EQ(plain.full_pass_count(), plain.update_count());
  EXPECT_LT(kinetic.full_pass_count(), kinetic.update_count() / 2);
}

TEST(ContactTracker, StationaryFleetSkipsEverySubsequentPass) {
  ContactTracker t(10.0);
  t.set_motion_bound(0.0);  // stationary fleet: maximal slack
  const std::vector<Vec2> pos{{0, 0}, {5, 0}, {100, 0}};
  for (int i = 0; i < 50; ++i) t.update(pos);
  EXPECT_EQ(t.update_count(), 50u);
  EXPECT_EQ(t.full_pass_count(), 1u);
  EXPECT_TRUE(t.in_contact(0, 1));
  EXPECT_FALSE(t.in_contact(0, 2));
}

// --- snapshot state ---

using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
struct Watch {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  bool in_contact = false;
};
using WatchPairs = std::vector<Watch>;

// A hand-built "contacts" section for a three-node fleet: the contact
// pairs, then kinetic bookkeeping (slack 10 m, budget 5 m, the nodes'
// last positions — the first `n_positions` of four) and the watch pairs
// with their contact flags.
std::vector<std::uint8_t> contacts_section(const Pairs& contacts,
                                           const WatchPairs& watch,
                                           std::size_t n_positions = 3) {
  snapshot::ArchiveWriter w;
  w.begin_section("contacts");
  w.u64(contacts.size());
  for (const auto& [a, b] : contacts) {
    w.u64(a);
    w.u64(b);
  }
  w.f64(10.0);
  w.f64(5.0);
  w.boolean(true);
  std::vector<Vec2> prev{{0, 0}, {5, 0}, {16, 0}, {40, 0}};
  prev.resize(n_positions);
  w.u64(prev.size());
  for (const Vec2& p : prev) {
    w.f64(p.x);
    w.f64(p.y);
  }
  w.u64(watch.size());
  for (const Watch& wp : watch) {
    w.u32(wp.i);
    w.u32(wp.j);
    w.boolean(wp.in_contact);
  }
  w.end_section();
  return w.bytes();
}

void load(ContactTracker& t, const Pairs& contacts, const WatchPairs& watch) {
  snapshot::ArchiveReader in(contacts_section(contacts, watch));
  t.load_state(in, 3);
}

TEST(ContactTrackerState, LoadsAscendingPairsAndResavesTheSameBytes) {
  const std::vector<std::uint8_t> bytes =
      contacts_section({{0, 1}}, {{0, 1, true}, {0, 2}, {1, 2}});
  ContactTracker t(10.0);
  snapshot::ArchiveReader in(bytes);
  t.load_state(in, 3);
  EXPECT_EQ(t.current(), (std::vector<NodePair>{{0, 1}}));
  snapshot::ArchiveWriter resaved;
  t.save_state(resaved);
  EXPECT_EQ(resaved.bytes(), bytes);
  // The restored budget covers a 1.5 m move, so the update skips the
  // grid and rechecks the restored watch pairs: node 2 enters 1's range.
  const ContactChurn& churn = t.update({{0, 0}, {5, 0}, {14.5, 0}});
  EXPECT_EQ(t.full_pass_count(), 0u);
  EXPECT_EQ(churn.went_up, (std::vector<NodePair>{{1, 2}}));
  EXPECT_TRUE(churn.went_down.empty());
}

TEST(ContactTrackerState, RejectsContactNodeBeyondTheFleet) {
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {{0, 3}}, {}), PreconditionError);
  EXPECT_THROW(load(t, {{0, 4'000'000'000}}, {}), PreconditionError);
}

TEST(ContactTrackerState, RejectsRepeatedContactPair) {
  // Accepting it, the next full pass would report (0, 1) gone down while
  // the nodes sit 5 m apart.
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {{0, 1}, {0, 1}}, {}), PreconditionError);
}

TEST(ContactTrackerState, RejectsContactPairsOutOfOrder) {
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {{1, 2}, {0, 1}}, {}), PreconditionError);
}

TEST(ContactTrackerState, RejectsContactPairNotFirstBelowSecond) {
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {{1, 0}}, {}), PreconditionError);
  EXPECT_THROW(load(t, {{1, 1}}, {}), PreconditionError);
}

TEST(ContactTrackerState, RejectsWatchNodeBeyondTheFleet) {
  // Accepting it, the next update would index positions out of range.
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {}, {{0, 3}}), PreconditionError);
  EXPECT_THROW(load(t, {}, {{0, 4'000'000'000u}}), PreconditionError);
}

TEST(ContactTrackerState, RejectsRepeatedWatchPair) {
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {}, {{0, 2}, {0, 2}}), PreconditionError);
}

TEST(ContactTrackerState, RejectsWatchPairsOutOfOrder) {
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {}, {{1, 2}, {0, 2}}), PreconditionError);
}

TEST(ContactTrackerState, RejectsWatchPairNotFirstBelowSecond) {
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {}, {{2, 1}}), PreconditionError);
  EXPECT_THROW(load(t, {}, {{2, 2}}), PreconditionError);
}

TEST(ContactTrackerState, RejectsPositionArrayThatCannotServeTheNextStep) {
  // The array holds every node's position, or none before the first
  // update. The fault layer reads it by the contacts' node ids before the
  // next move refills it, so a short array is read out of range.
  for (const std::size_t n_positions : {1u, 2u, 4u}) {
    ContactTracker t(10.0);
    snapshot::ArchiveReader in(contacts_section({}, {}, n_positions));
    EXPECT_THROW(t.load_state(in, 3), PreconditionError) << n_positions;
  }
  ContactTracker with_contacts(10.0);
  snapshot::ArchiveReader in(contacts_section({{0, 1}}, {}, 0));
  EXPECT_THROW(with_contacts.load_state(in, 3), PreconditionError);

  // No positions and no contacts is a tracker saved before its first
  // update: it loads, and the next update runs a full pass.
  ContactTracker fresh(10.0);
  snapshot::ArchiveReader empty(contacts_section({}, {}, 0));
  fresh.load_state(empty, 3);
  EXPECT_TRUE(fresh.positions().empty());
  const ContactChurn& churn = fresh.update({{0, 0}, {5, 0}, {14.5, 0}});
  EXPECT_EQ(fresh.full_pass_count(), 1u);
  EXPECT_EQ(churn.went_up, (std::vector<NodePair>{{0, 1}, {1, 2}}));
}

TEST(ContactTrackerState, RejectsWatchFlagDisagreeingWithTheContacts) {
  // Accepting (1, 2) flagged in contact with no contact pairs, the next
  // skip step would report (1, 2) gone down although it never came up.
  ContactTracker t(10.0);
  EXPECT_THROW(load(t, {}, {{1, 2, true}}), PreconditionError);
  // And a contact pair watched as out of contact would come up again.
  EXPECT_THROW(load(t, {{0, 1}}, {{0, 1, false}}), PreconditionError);
}

}  // namespace
}  // namespace dtn
