// Tests for the Fig. 5 dropped-list gossip structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "src/sdsrp/dropped_list.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace dtn::sdsrp {
namespace {

TEST(DroppedList, StartsEmpty) {
  DroppedList d(3);
  EXPECT_EQ(d.owner(), 3u);
  EXPECT_DOUBLE_EQ(d.count_drops(1), 0.0);
  EXPECT_FALSE(d.has_own_drop(1));
  EXPECT_EQ(d.known_records(), 0u);
}

TEST(DroppedList, RecordsOwnDrops) {
  DroppedList d(3);
  d.record_local_drop(10, 5.0);
  d.record_local_drop(11, 6.0);
  EXPECT_TRUE(d.has_own_drop(10));
  EXPECT_TRUE(d.has_own_drop(11));
  EXPECT_FALSE(d.has_own_drop(12));
  EXPECT_DOUBLE_EQ(d.count_drops(10), 1.0);
  EXPECT_EQ(d.known_records(), 1u);
}

TEST(DroppedList, MergeAdoptsOtherRecords) {
  DroppedList a(0), b(1);
  b.record_local_drop(10, 5.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.count_drops(10), 1.0);
  EXPECT_FALSE(a.has_own_drop(10));  // not a's own drop
}

TEST(DroppedList, MergeKeepsNewestRecordPerOwner) {
  DroppedList a(0), b(1), c(2);
  // b drops 10 at t=5; c learns it; then b drops 11 at t=9.
  b.record_local_drop(10, 5.0);
  c.merge_from(b);
  b.record_local_drop(11, 9.0);
  // a first hears the stale record via c, then the fresh one from b.
  a.merge_from(c);
  EXPECT_DOUBLE_EQ(a.count_drops(11), 0.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.count_drops(11), 1.0);
  EXPECT_DOUBLE_EQ(a.count_drops(10), 1.0);
}

TEST(DroppedList, StaleRecordDoesNotOverwriteFresh) {
  DroppedList a(0), b(1), c(2);
  b.record_local_drop(10, 5.0);
  c.merge_from(b);          // c holds b@5
  b.record_local_drop(11, 9.0);
  a.merge_from(b);          // a holds b@9
  a.merge_from(c);          // stale b@5 must not clobber b@9
  EXPECT_DOUBLE_EQ(a.count_drops(11), 1.0);
}

TEST(DroppedList, GossipNeverTouchesOwnRecord) {
  DroppedList a(0), b(1);
  a.record_local_drop(10, 5.0);
  // b fabricates a record claiming to be node 0 (or simply carries an old
  // copy of a's record); a must ignore it.
  b.record_local_drop(99, 50.0);
  DroppedList carrier(2);
  carrier.merge_from(a);  // carrier holds a@5
  a.record_local_drop(12, 7.0);
  a.merge_from(carrier);  // must not roll a's own record back
  EXPECT_TRUE(a.has_own_drop(12));
}

TEST(DroppedList, CountDropsAcrossManyNodes) {
  DroppedList observer(0);
  for (std::size_t node = 1; node <= 5; ++node) {
    DroppedList other(node);
    other.record_local_drop(42, static_cast<double>(node));
    observer.merge_from(other);
  }
  EXPECT_DOUBLE_EQ(observer.count_drops(42), 5.0);
  EXPECT_EQ(observer.known_records(), 5u);
}

TEST(DroppedList, ForgetMessageRemovesEverywhere) {
  DroppedList a(0), b(1);
  a.record_local_drop(7, 1.0);
  b.record_local_drop(7, 2.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.count_drops(7), 2.0);
  a.forget_message(7);
  EXPECT_DOUBLE_EQ(a.count_drops(7), 0.0);
}

TEST(DroppedList, TransitiveGossipPropagates) {
  // a -> b -> c without a ever meeting c.
  DroppedList a(0), b(1), c(2);
  a.record_local_drop(10, 1.0);
  b.merge_from(a);
  c.merge_from(b);
  EXPECT_DOUBLE_EQ(c.count_drops(10), 1.0);
}

TEST(DroppedList, AdoptingNewerRecordMovesCountsToItsIds) {
  DroppedList a(0), b(1);
  b.record_local_drop(10, 1.0);
  b.record_local_drop(20, 2.0);
  a.merge_from(b);  // a holds b@2 {10, 20}
  b.forget_message(10);
  b.record_local_drop(30, 3.0);  // b@3 {20, 30}
  EXPECT_TRUE(a.merge_from(b));
  EXPECT_DOUBLE_EQ(a.count_drops(10), 0.0);
  EXPECT_DOUBLE_EQ(a.count_drops(20), 1.0);
  EXPECT_DOUBLE_EQ(a.count_drops(30), 1.0);
}

TEST(DroppedList, OwnerChangesAfterGossipLeaveCopiesUnchanged) {
  // Records are shared between the lists that heard them: each of b's
  // changes below starts from a record another list holds, and must leave
  // that list's copy as it was.
  DroppedList a(0), b(1), c(2);
  b.record_local_drop(10, 1.0);
  b.record_local_drop(20, 2.0);
  a.merge_from(b);  // a holds b@2 {10, 20}
  snapshot::ArchiveWriter a_before;
  a.save_state(a_before);
  b.record_local_drop(30, 3.0);
  c.merge_from(b);  // c holds b@3 {10, 20, 30}
  snapshot::ArchiveWriter c_before;
  c.save_state(c_before);
  b.forget_message(10);

  EXPECT_DOUBLE_EQ(a.count_drops(30), 0.0);
  EXPECT_DOUBLE_EQ(a.count_drops(10), 1.0);
  snapshot::ArchiveWriter a_after;
  a.save_state(a_after);
  EXPECT_EQ(a_after.bytes(), a_before.bytes());
  EXPECT_DOUBLE_EQ(c.count_drops(10), 1.0);
  snapshot::ArchiveWriter c_after;
  c.save_state(c_after);
  EXPECT_EQ(c_after.bytes(), c_before.bytes());
}

TEST(DroppedList, RecordingSameDropTwiceCountsOnce) {
  DroppedList d(3);
  d.record_local_drop(10, 5.0);
  d.record_local_drop(10, 6.0);
  EXPECT_DOUBLE_EQ(d.count_drops(10), 1.0);
  EXPECT_TRUE(d.has_own_drop(10));
}

// --- snapshot state ---

TEST(DroppedListState, SaveIsCanonicalAndRoundTrips) {
  // The same drops recorded in two id orders save the same bytes.
  DroppedList a(0), ascending(0), b(1), c(2);
  a.record_local_drop(30, 1.0);
  a.record_local_drop(10, 2.0);
  a.record_local_drop(20, 3.0);
  ascending.record_local_drop(10, 1.0);
  ascending.record_local_drop(20, 2.0);
  ascending.record_local_drop(30, 3.0);
  b.record_local_drop(10, 4.0);
  c.record_local_drop(20, 5.0);
  for (DroppedList* d : {&a, &ascending}) {
    d->merge_from(c);
    d->merge_from(b);
  }
  snapshot::ArchiveWriter saved;
  a.save_state(saved);
  snapshot::ArchiveWriter saved_ascending;
  ascending.save_state(saved_ascending);
  EXPECT_EQ(saved.bytes(), saved_ascending.bytes());

  DroppedList restored(0);
  snapshot::ArchiveReader in(saved.bytes());
  restored.load_state(in);
  EXPECT_EQ(restored.known_records(), 3u);
  EXPECT_DOUBLE_EQ(restored.count_drops(10), 2.0);
  EXPECT_DOUBLE_EQ(restored.count_drops(20), 2.0);
  EXPECT_DOUBLE_EQ(restored.count_drops(30), 1.0);
  EXPECT_TRUE(restored.has_own_drop(20));
  snapshot::ArchiveWriter resaved;
  restored.save_state(resaved);
  EXPECT_EQ(resaved.bytes(), saved.bytes());
}

using Records = std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>;

// A hand-built "dropped-list" section for owner 0 holding `records`
// (owner node, message ids) in the given order, each stamped at t = 1.
std::vector<std::uint8_t> section_of(const Records& records) {
  snapshot::ArchiveWriter w;
  w.begin_section("dropped-list");
  w.u64(0);
  w.u64(records.size());
  for (const auto& [node, ids] : records) {
    w.u64(node);
    w.f64(1.0);
    w.u64(ids.size());
    for (std::uint64_t id : ids) w.u64(id);
  }
  w.end_section();
  return w.bytes();
}

void load(DroppedList& d, const Records& records) {
  snapshot::ArchiveReader in(section_of(records));
  d.load_state(in);
}

TEST(DroppedListState, LoadsAscendingOwnersAndIds) {
  DroppedList d(0);
  load(d, {{1, {5, 7}}, {4, {5}}});
  EXPECT_EQ(d.known_records(), 2u);
  EXPECT_DOUBLE_EQ(d.count_drops(5), 2.0);
  EXPECT_DOUBLE_EQ(d.count_drops(7), 1.0);
}

TEST(DroppedListState, RejectsRepeatedOwner) {
  // Accepting it would index both copies into d̂ but keep only one record.
  DroppedList d(0);
  EXPECT_THROW(load(d, {{1, {5}}, {1, {5}}}), PreconditionError);
}

TEST(DroppedListState, RejectsOwnersOutOfOrder) {
  DroppedList d(0);
  EXPECT_THROW(load(d, {{2, {5}}, {1, {5}}}), PreconditionError);
}

TEST(DroppedListState, RejectsRepeatedId) {
  DroppedList d(0);
  EXPECT_THROW(load(d, {{1, {5, 5}}}), PreconditionError);
}

TEST(DroppedListState, RejectsDescendingIds) {
  DroppedList d(0);
  EXPECT_THROW(load(d, {{1, {7, 5}}}), PreconditionError);
}

TEST(DroppedListState, RejectsIdsTheIndexReserves) {
  // The d̂ index keeps the two largest ids as slot markers.
  DroppedList d(0);
  EXPECT_THROW(load(d, {{1, {5, ~std::uint64_t{0}}}}), PreconditionError);
}

// --- seeded model check of the d̂ index ---

// How many of the records `d` knows contain each id below `id_bound`,
// counted from the records themselves: read back from d's own save, not
// from its index.
std::vector<int> brute_force_counts(const DroppedList& d,
                                    std::uint64_t id_bound) {
  snapshot::ArchiveWriter w;
  d.save_state(w);
  snapshot::ArchiveReader in(w.bytes());
  in.begin_section("dropped-list");
  in.u64();  // owner
  std::vector<int> counts(id_bound, 0);
  const std::uint64_t n_records = in.u64();
  for (std::uint64_t i = 0; i < n_records; ++i) {
    in.u64();  // record owner
    in.f64();  // record time
    const std::uint64_t n_ids = in.u64();
    for (std::uint64_t j = 0; j < n_ids; ++j) ++counts.at(in.u64());
  }
  in.end_section();
  return counts;
}

TEST(DroppedListModel, CountIndexMatchesRecordsUnderRandomOps) {
  // Random local drops, gossip merges, forgets and save/load round trips
  // across 8 lists. After every operation each list's count_drops must
  // equal the brute-force count of its known records, for every id ever
  // dropped — ids whose count fell back to 0 included. Checking every
  // list, not only the one operated on, also catches a change leaking
  // into a record another list shares.
  constexpr std::size_t kLists = 8;
  for (const std::uint64_t seed : {5ull, 23ull}) {
    std::vector<DroppedList> lists;
    for (std::size_t i = 0; i < kLists; ++i) lists.emplace_back(i);
    std::set<std::uint64_t> seen;
    Rng rng(seed);
    const auto pick = [&rng](const auto& container) {
      auto it = container.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(container.size()) - 1));
      return *it;
    };
    double now = 0.0;
    std::uint64_t next_id = 1;
    for (int op = 0; op < 2000; ++op) {
      now += rng.uniform(0.5, 5.0);
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kLists) - 1));
      const double roll = rng.uniform01();
      if (roll < 0.45) {  // local drop: mostly fresh ids, some seen ones
        const std::uint64_t msg =
            seen.empty() || rng.bernoulli(0.6) ? next_id++ : pick(seen);
        lists[i].record_local_drop(msg, now);
        seen.insert(msg);
      } else if (roll < 0.85) {  // gossip from another list
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kLists) - 1));
        if (j != i) lists[i].merge_from(lists[j]);
      } else if (roll < 0.93) {
        if (!seen.empty()) lists[i].forget_message(pick(seen));
      } else {  // save/load, into the same list or a fresh one
        snapshot::ArchiveWriter w;
        lists[i].save_state(w);
        snapshot::ArchiveReader in(w.bytes());
        if (rng.bernoulli(0.5)) {
          lists[i].load_state(in);
        } else {
          DroppedList fresh(i);
          fresh.load_state(in);
          lists[i] = std::move(fresh);
        }
      }
      for (std::size_t k = 0; k < kLists; ++k) {
        const std::vector<int> truth = brute_force_counts(lists[k], next_id);
        for (std::uint64_t msg : seen) {
          ASSERT_DOUBLE_EQ(lists[k].count_drops(msg), truth[msg])
              << "seed " << seed << ", op " << op << ", list " << k
              << ", message " << msg;
        }
      }
    }
    // Enough distinct ids that every index outgrew its first 16 slots
    // several times over (it doubles at 70% load).
    EXPECT_GE(seen.size(), 300u);
  }
}

}  // namespace
}  // namespace dtn::sdsrp
