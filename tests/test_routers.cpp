// Router unit tests: Spray-and-Wait split arithmetic and candidate
// selection, plus the baseline routers' custody semantics.
#include <gtest/gtest.h>

#include <memory>

#include "src/buffer/fifo.hpp"
#include "src/core/node.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/direct_delivery.hpp"
#include "src/routing/epidemic.hpp"
#include "src/routing/first_contact.hpp"
#include "src/routing/spray_and_focus.hpp"
#include "src/routing/spray_and_wait.hpp"

namespace dtn {
namespace {

Message msg(MessageId id, NodeId src, NodeId dst, int copies,
            double created = 0.0, double ttl = 1000.0) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.size = 100;
  m.created = created;
  m.ttl = ttl;
  m.copies = copies;
  m.initial_copies = copies;
  m.received = created;
  return m;
}

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() : policy_(std::make_unique<FifoPolicy>()) {}

  Node make_node(NodeId id, const Router* r, std::int64_t cap = 100000) {
    return Node(id, std::make_unique<StationaryModel>(Vec2{0, 0}), cap,
                r, policy_.get());
  }

  PolicyContext ctx(const Node& n, SimTime now = 10.0) {
    PolicyContext c;
    c.now = now;
    c.n_nodes = 10;
    c.node = &n;
    return c;
  }

  std::unique_ptr<FifoPolicy> policy_;
};

// --- Spray and Wait ---

TEST_F(RouterTest, SnwBinarySplitArithmetic) {
  SprayAndWaitRouter r;
  Message copy = msg(1, 0, 5, 32);
  const Message relay = r.make_relay_copy(copy, 7.0);
  EXPECT_EQ(relay.copies, 16);
  EXPECT_EQ(relay.hops, 1);
  EXPECT_DOUBLE_EQ(relay.received, 7.0);
  ASSERT_EQ(relay.spray_times.size(), 1u);
  EXPECT_DOUBLE_EQ(relay.spray_times[0], 7.0);

  EXPECT_TRUE(r.on_sent(copy, /*delivered=*/false, 7.0));
  EXPECT_EQ(copy.copies, 16);
  ASSERT_EQ(copy.spray_times.size(), 1u);
}

TEST_F(RouterTest, SnwBinarySplitOddCopies) {
  SprayAndWaitRouter r;
  Message copy = msg(1, 0, 5, 5);
  const Message relay = r.make_relay_copy(copy, 1.0);
  EXPECT_EQ(relay.copies, 2);  // floor(5/2)
  r.on_sent(copy, false, 1.0);
  EXPECT_EQ(copy.copies, 3);  // ceil(5/2)
}

TEST_F(RouterTest, SnwSourceSprayHandsSingleCopies) {
  SprayAndWaitRouter r(SprayAndWaitConfig{/*binary=*/false});
  Message copy = msg(1, 0, 5, 8);
  const Message relay = r.make_relay_copy(copy, 1.0);
  EXPECT_EQ(relay.copies, 1);
  r.on_sent(copy, false, 1.0);
  EXPECT_EQ(copy.copies, 7);
}

TEST_F(RouterTest, SnwDeliveredKeepsCopyUnchanged) {
  SprayAndWaitRouter r;
  Message copy = msg(1, 0, 5, 8);
  EXPECT_TRUE(r.on_sent(copy, /*delivered=*/true, 1.0));
  EXPECT_EQ(copy.copies, 8);
  EXPECT_TRUE(copy.spray_times.empty());
}

TEST_F(RouterTest, SnwPrefersDeliverableOverSpray) {
  SprayAndWaitRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  a.buffer().try_insert(msg(1, 0, 5, 8));   // sprayable
  a.buffer().try_insert(msg(2, 0, 1, 1));   // deliverable to b, wait phase
  const auto next = r.next_to_send(a, b, ctx(a));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 2u);
}

TEST_F(RouterTest, SnwWaitPhaseDoesNotSpray) {
  SprayAndWaitRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  a.buffer().try_insert(msg(1, 0, 5, 1));  // single copy, dst != b
  EXPECT_FALSE(r.next_to_send(a, b, ctx(a)).has_value());
}

TEST_F(RouterTest, SnwSkipsPeerThatHasTheMessage) {
  SprayAndWaitRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  a.buffer().try_insert(msg(1, 0, 5, 8));
  b.buffer().try_insert(msg(1, 0, 5, 4));
  EXPECT_FALSE(r.next_to_send(a, b, ctx(a)).has_value());
}

TEST_F(RouterTest, SnwSkipsExpiredMessages) {
  SprayAndWaitRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  a.buffer().try_insert(msg(1, 0, 5, 8, 0.0, 5.0));  // expired at t=10
  EXPECT_FALSE(r.next_to_send(a, b, ctx(a, 10.0)).has_value());
}

TEST_F(RouterTest, SnwSkipsDeliveredAtPeer) {
  SprayAndWaitRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  a.buffer().try_insert(msg(1, 0, 1, 1));  // deliverable to b
  b.mark_delivered(1);
  EXPECT_FALSE(r.next_to_send(a, b, ctx(a)).has_value());
}

TEST_F(RouterTest, SnwSourceModeOnlySourceSprays) {
  SprayAndWaitRouter r(SprayAndWaitConfig{/*binary=*/false});
  Node relay_holder = make_node(2, &r);
  Node peer = make_node(3, &r);
  relay_holder.buffer().try_insert(msg(1, /*src=*/0, /*dst=*/5, 4));
  // Node 2 is not the source: in source-spray mode it must stay quiet.
  EXPECT_FALSE(r.next_to_send(relay_holder, peer, ctx(relay_holder))
                   .has_value());
}

TEST_F(RouterTest, SnwRespectsPeerAdmission) {
  SprayAndWaitRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r, /*cap=*/100000);
  Node tiny = make_node(2, &r, /*cap=*/50);  // smaller than the message
  a.buffer().try_insert(msg(1, 0, 5, 8));
  EXPECT_TRUE(r.next_to_send(a, b, ctx(a)).has_value());
  EXPECT_FALSE(r.next_to_send(a, tiny, ctx(a)).has_value());
}

// --- Epidemic ---

TEST_F(RouterTest, EpidemicReplicatesEverythingPeerLacks) {
  EpidemicRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  a.buffer().try_insert(msg(1, 0, 5, 1));
  a.buffer().try_insert(msg(2, 0, 6, 1));
  b.buffer().try_insert(msg(1, 0, 5, 1));
  const auto next = r.next_to_send(a, b, ctx(a));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 2u);  // only the one b lacks
  Message copy = msg(3, 0, 6, 1);
  EXPECT_TRUE(r.on_sent(copy, false, 1.0));  // flooding keeps the copy
}

// --- Direct delivery ---

TEST_F(RouterTest, DirectDeliveryOnlySendsToDestination) {
  DirectDeliveryRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  Node dst = make_node(5, &r);
  a.buffer().try_insert(msg(1, 0, 5, 1));
  EXPECT_FALSE(r.next_to_send(a, b, ctx(a)).has_value());
  const auto next = r.next_to_send(a, dst, ctx(a));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);
  Message copy = msg(1, 0, 5, 1);
  EXPECT_FALSE(r.on_sent(copy, true, 1.0));  // slot freed after delivery
}

// --- First contact ---

TEST_F(RouterTest, FirstContactTransfersCustody) {
  FirstContactRouter r;
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  a.buffer().try_insert(msg(1, 0, 5, 1));
  const auto next = r.next_to_send(a, b, ctx(a));
  ASSERT_TRUE(next.has_value());
  Message copy = msg(1, 0, 5, 1);
  EXPECT_FALSE(r.on_sent(copy, false, 1.0));  // custody moves
  const Message relay = r.make_relay_copy(copy, 1.0);
  EXPECT_EQ(relay.hops, 1);
}

// --- Spray and Focus ---

TEST_F(RouterTest, SprayAndFocusSpraysLikeBinarySnw) {
  SprayAndFocusRouter r;
  Message copy = msg(1, 0, 5, 8);
  const Message relay = r.make_relay_copy(copy, 2.0);
  EXPECT_EQ(relay.copies, 4);
  EXPECT_TRUE(r.on_sent(copy, false, 2.0));
  EXPECT_EQ(copy.copies, 4);
}

TEST_F(RouterTest, SprayAndFocusMovesCustodyTowardFresherContact) {
  SprayAndFocusRouter r(SprayAndFocusConfig{/*focus_threshold=*/10.0});
  Node a = make_node(0, &r);
  Node b = make_node(1, &r);
  a.buffer().try_insert(msg(1, 0, /*dst=*/5, 1));  // wait/focus phase

  // Neither node ever met node 5: no focus forwarding.
  EXPECT_FALSE(r.next_to_send(a, b, ctx(a, 100.0)).has_value());

  // Peer b met the destination recently: custody should move.
  b.intermeeting().on_contact_start(5, 95.0);
  const auto next = r.next_to_send(a, b, ctx(a, 100.0));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);
  Message copy = *a.buffer().find(1);
  EXPECT_FALSE(r.on_sent(copy, false, 100.0));  // focus = move
}

}  // namespace
}  // namespace dtn
