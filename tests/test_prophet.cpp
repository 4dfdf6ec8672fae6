// Unit tests for the PRoPHET router: table dynamics (encounter, aging,
// transitivity) and forwarding decisions.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/buffer/fifo.hpp"
#include "src/core/node.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/prophet.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {
namespace {

Message msg(MessageId id, NodeId src, NodeId dst) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.size = 100;
  m.created = 0.0;
  m.ttl = 10000.0;
  return m;
}

class ProphetTest : public ::testing::Test {
 protected:
  ProphetTest() : policy_(std::make_unique<FifoPolicy>()) {}

  Node make_node(NodeId id) {
    return Node(id, std::make_unique<StationaryModel>(Vec2{0, 0}), 100000,
                &router_, policy_.get());
  }

  PolicyContext ctx(const Node& n, SimTime now) {
    PolicyContext c;
    c.now = now;
    c.n_nodes = 10;
    c.node = &n;
    return c;
  }

  ProphetRouter router_;
  std::unique_ptr<FifoPolicy> policy_;
};

TEST_F(ProphetTest, EncounterRaisesPredictability) {
  Node a = make_node(0), b = make_node(1);
  EXPECT_DOUBLE_EQ(router_.predictability(0, 1, 0.0), 0.0);
  router_.on_link_up(a, b, 10.0);
  EXPECT_DOUBLE_EQ(router_.predictability(0, 1, 10.0), 0.75);
  EXPECT_DOUBLE_EQ(router_.predictability(1, 0, 10.0), 0.75);
  // A second encounter raises it further: P += (1-P)·P_init.
  router_.on_link_up(a, b, 20.0);
  EXPECT_GT(router_.predictability(0, 1, 20.0), 0.75);
  EXPECT_LT(router_.predictability(0, 1, 20.0), 1.0);
}

TEST_F(ProphetTest, PredictabilityAgesOverTime) {
  Node a = make_node(0), b = make_node(1);
  router_.on_link_up(a, b, 0.0);
  const double fresh = router_.predictability(0, 1, 0.0);
  const double later = router_.predictability(0, 1, 3000.0);
  EXPECT_LT(later, fresh);
  EXPECT_GT(later, 0.0);
  // γ^(3000/30) = 0.98^100.
  EXPECT_NEAR(later, fresh * std::pow(0.98, 100.0), 1e-9);
}

TEST_F(ProphetTest, TransitivityPropagates) {
  Node a = make_node(0), b = make_node(1), c = make_node(2);
  // b meets c, then a meets b: a should gain predictability for c.
  router_.on_link_up(b, c, 0.0);
  router_.on_link_up(a, b, 1.0);
  const double p_ac = router_.predictability(0, 2, 1.0);
  EXPECT_GT(p_ac, 0.0);
  // P(a,c) = P(a,b)·P(b,c)·β with fresh values 0.75·~0.75·0.25.
  EXPECT_NEAR(p_ac, 0.75 * router_.predictability(1, 2, 1.0) * 0.25, 1e-6);
  // And direct contact dominates the transitive estimate.
  EXPECT_GT(router_.predictability(1, 2, 1.0), p_ac);
}

TEST_F(ProphetTest, ForwardsOnlyTowardBetterRelay) {
  Node a = make_node(0), b = make_node(1), dest = make_node(5);
  a.buffer().try_insert(msg(1, 0, 5));

  // Neither has met node 5: no replication.
  router_.on_link_up(a, b, 0.0);
  EXPECT_FALSE(router_.next_to_send(a, b, ctx(a, 0.0)).has_value());

  // b meets the destination: now b is the better relay.
  router_.on_link_up(b, dest, 5.0);
  const auto next = router_.next_to_send(a, b, ctx(a, 6.0));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);

  // The reverse direction must not pull the message back.
  b.buffer().try_insert(msg(1, 0, 5));
  a.buffer().take(1);
  EXPECT_FALSE(router_.next_to_send(b, a, ctx(b, 7.0)).has_value());
}

TEST_F(ProphetTest, DeliverableAlwaysSent) {
  Node a = make_node(0), dest = make_node(5);
  a.buffer().try_insert(msg(1, 0, 5));
  const auto next = router_.next_to_send(a, dest, ctx(a, 0.0));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);
}

TEST_F(ProphetTest, RelayCopySemantics) {
  Message copy = msg(1, 0, 5);
  copy.hops = 2;
  const Message relay = router_.make_relay_copy(copy, 9.0);
  EXPECT_EQ(relay.hops, 3);
  EXPECT_DOUBLE_EQ(relay.received, 9.0);
  EXPECT_TRUE(router_.on_sent(copy, false, 9.0));  // sender keeps a copy
  EXPECT_EQ(copy.forwards, 1);
}

// --- snapshot state ---

using Table = std::vector<std::pair<std::uint32_t, double>>;
using Tables = std::vector<std::pair<std::uint32_t, Table>>;

// A hand-built "prophet" section: each owner's table of (destination,
// predictability) entries, aged to 100 s.
std::vector<std::uint8_t> prophet_section(const Tables& tables) {
  snapshot::ArchiveWriter w;
  w.begin_section("prophet");
  w.u64(tables.size());
  for (const auto& [owner, table] : tables) {
    w.u32(owner);
    w.begin_section("prophet-table");
    w.u64(table.size());
    for (const auto& [dest, p] : table) {
      w.u32(dest);
      w.f64(p);
    }
    w.f64(100.0);
    w.end_section();
  }
  w.end_section();
  return w.bytes();
}

void load(ProphetRouter& router, const Tables& tables) {
  snapshot::ArchiveReader in(prophet_section(tables));
  router.load_state(in);
}

TEST(ProphetState, LoadsAscendingTablesAndResavesTheSameBytes) {
  const std::vector<std::uint8_t> bytes =
      prophet_section({{0, {{1, 0.5}, {3, 0.25}}}, {2, {{0, 0.75}}}});
  ProphetRouter router;
  snapshot::ArchiveReader in(bytes);
  router.load_state(in);
  EXPECT_DOUBLE_EQ(router.predictability(0, 3, 100.0), 0.25);
  EXPECT_DOUBLE_EQ(router.predictability(2, 0, 100.0), 0.75);
  snapshot::ArchiveWriter resaved;
  router.save_state(resaved);
  EXPECT_EQ(resaved.bytes(), bytes);
}

TEST(ProphetState, RejectsRepeatedOwner) {
  // Accepting it, the second table replaced the first and the restored
  // router re-saved one owner where it loaded two.
  ProphetRouter router;
  EXPECT_THROW(load(router, {{1, {{0, 0.5}}}, {1, {{2, 0.5}}}}),
               PreconditionError);
}

TEST(ProphetState, RejectsOwnersOutOfOrder) {
  ProphetRouter router;
  EXPECT_THROW(load(router, {{2, {{0, 0.5}}}, {1, {{0, 0.5}}}}),
               PreconditionError);
}

TEST(ProphetState, RejectsRepeatedDestination) {
  // Accepting it, the second entry overwrote the first.
  ProphetRouter router;
  EXPECT_THROW(load(router, {{0, {{1, 0.5}, {1, 0.25}}}}), PreconditionError);
}

TEST(ProphetState, RejectsDestinationsOutOfOrder) {
  ProphetRouter router;
  EXPECT_THROW(load(router, {{0, {{3, 0.5}, {1, 0.25}}}}), PreconditionError);
}

TEST(ProphetState, RejectsCountsPastTheBytesLeft) {
  for (const bool owners : {true, false}) {
    std::vector<std::uint8_t> bytes = prophet_section({{0, {{1, 0.5}}}});
    // The owner count follows the section's begin (a tag, a length and
    // "prophet"); the table's entry count follows its owner and its
    // section's begin ("prophet-table").
    const std::size_t at = owners ? 9 + 7 : 9 + 7 + 9 + 5 + 9 + 13;
    ASSERT_EQ(bytes.at(at), 0x03);
    ASSERT_EQ(bytes.at(at + 1), 1);
    bytes[at + 8] = 0x01;  // 2^56 + 1 entries
    ProphetRouter router;
    snapshot::ArchiveReader in(bytes);
    // Rejected by the count itself, not at the first element past the end.
    try {
      router.load_state(in);
      ADD_FAILURE() << "loaded; owners " << owners;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("count past end"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dtn
