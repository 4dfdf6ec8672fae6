// Tests for Node admission control — the paper's Algorithm 1 drop logic.
#include <gtest/gtest.h>

#include <memory>

#include "src/buffer/fifo.hpp"
#include "src/buffer/simple_policies.hpp"
#include "src/core/node.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"

namespace dtn {
namespace {

Message msg(MessageId id, std::int64_t size, SimTime created = 0.0,
            double ttl = 1000.0, int copies = 4) {
  Message m;
  m.id = id;
  m.source = 0;
  m.destination = 9;
  m.size = size;
  m.created = created;
  m.ttl = ttl;
  m.initial_copies = copies;
  m.copies = copies;
  m.received = created;
  return m;
}

class NodeAdmissionTest : public ::testing::Test {
 protected:
  NodeAdmissionTest()
      : router_(std::make_unique<SprayAndWaitRouter>()),
        fifo_(std::make_unique<FifoPolicy>()),
        ttl_(std::make_unique<TtlRatioPolicy>()) {}

  Node make_node(const BufferPolicy* policy, std::int64_t capacity) {
    return Node(0, std::make_unique<StationaryModel>(Vec2{0, 0}), capacity,
                router_.get(), policy);
  }

  PolicyContext ctx(const Node& n, SimTime now) {
    PolicyContext c;
    c.now = now;
    c.n_nodes = 10;
    c.node = &n;
    return c;
  }

  std::unique_ptr<SprayAndWaitRouter> router_;
  std::unique_ptr<FifoPolicy> fifo_;
  std::unique_ptr<TtlRatioPolicy> ttl_;
};

TEST_F(NodeAdmissionTest, AdmitsWhenSpaceAvailable) {
  Node n = make_node(fifo_.get(), 1000);
  auto res = n.admit(msg(1, 400), ctx(n, 0));
  EXPECT_TRUE(res.admitted);
  EXPECT_TRUE(res.evicted.empty());
  EXPECT_TRUE(n.buffer().has(1));
}

TEST_F(NodeAdmissionTest, RejectsMessageLargerThanCapacity) {
  Node n = make_node(fifo_.get(), 1000);
  auto res = n.admit(msg(1, 1500), ctx(n, 0));
  EXPECT_FALSE(res.admitted);
  EXPECT_TRUE(n.buffer().empty());
}

TEST_F(NodeAdmissionTest, FifoEvictsOldestOnOverflow) {
  Node n = make_node(fifo_.get(), 1000);
  Message a = msg(1, 500);
  a.received = 10.0;
  Message b = msg(2, 500);
  b.received = 20.0;
  EXPECT_TRUE(n.admit(a, ctx(n, 0)).admitted);
  EXPECT_TRUE(n.admit(b, ctx(n, 0)).admitted);

  auto res = n.admit(msg(3, 500), ctx(n, 30));
  EXPECT_TRUE(res.admitted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0].id, 1u);  // oldest arrival evicted
  EXPECT_TRUE(n.buffer().has(2));
  EXPECT_TRUE(n.buffer().has(3));
}

TEST_F(NodeAdmissionTest, EvictsMultipleSmallForOneLarge) {
  Node n = make_node(fifo_.get(), 1000);
  n.admit(msg(1, 300), ctx(n, 0));
  n.admit(msg(2, 300), ctx(n, 0));
  n.admit(msg(3, 300), ctx(n, 0));
  // free = 100; fitting 800 evicts residents until free >= 800: all three.
  auto res = n.admit(msg(4, 800), ctx(n, 0));
  EXPECT_TRUE(res.admitted);
  EXPECT_EQ(res.evicted.size(), 3u);
  EXPECT_TRUE(n.buffer().has(4));
  EXPECT_EQ(n.buffer().count(), 1u);
}

TEST_F(NodeAdmissionTest, ScalarPolicyRejectsLowPriorityNewcomer) {
  // TTL-ratio priority: newcomer with far less remaining TTL than every
  // resident must be rejected (Algorithm 1: Priority_m < Priority_l).
  Node n = make_node(ttl_.get(), 1000);
  EXPECT_TRUE(n.admit(msg(1, 500, 0.0, 1000.0), ctx(n, 0)).admitted);
  EXPECT_TRUE(n.admit(msg(2, 500, 0.0, 1000.0), ctx(n, 0)).admitted);

  // At t=0, newcomer ttl 10 has ratio 1.0 too... give it elapsed life:
  Message stale = msg(3, 500, 0.0, 1000.0);
  auto c = ctx(n, 900.0);  // residents ratio = 0.1 each
  stale.created = 0.0;
  stale.ttl = 50.0;  // expired long ago -> remaining ratio < 0
  auto res = n.admit(stale, c);
  EXPECT_FALSE(res.admitted);
  EXPECT_TRUE(n.buffer().has(1));
  EXPECT_TRUE(n.buffer().has(2));
}

TEST_F(NodeAdmissionTest, ScalarPolicyEvictsLowestPriorityResident) {
  Node n = make_node(ttl_.get(), 1000);
  EXPECT_TRUE(n.admit(msg(1, 500, 0.0, 100.0), ctx(n, 0)).admitted);    // expires 100
  EXPECT_TRUE(n.admit(msg(2, 500, 0.0, 2000.0), ctx(n, 0)).admitted);   // expires 2000
  auto res = n.admit(msg(3, 500, 0.0, 1000.0), ctx(n, 50.0));
  EXPECT_TRUE(res.admitted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0].id, 1u);  // lowest remaining-TTL ratio
}

TEST_F(NodeAdmissionTest, PinnedMessagesAreNotEvicted) {
  Node n = make_node(fifo_.get(), 1000);
  Message a = msg(1, 500);
  a.received = 10.0;
  Message b = msg(2, 500);
  b.received = 20.0;
  n.admit(a, ctx(n, 0));
  n.admit(b, ctx(n, 0));
  n.pin(1);  // oldest is in-flight
  auto res = n.admit(msg(3, 500), ctx(n, 30));
  EXPECT_TRUE(res.admitted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0].id, 2u);  // next-oldest evicted instead
  EXPECT_TRUE(n.buffer().has(1));
}

TEST_F(NodeAdmissionTest, RejectWhenEverythingPinned) {
  Node n = make_node(fifo_.get(), 1000);
  n.admit(msg(1, 500), ctx(n, 0));
  n.admit(msg(2, 500), ctx(n, 0));
  n.pin(1);
  n.pin(2);
  auto res = n.admit(msg(3, 500), ctx(n, 0));
  EXPECT_FALSE(res.admitted);
  EXPECT_EQ(n.buffer().count(), 2u);
}

TEST_F(NodeAdmissionTest, WouldAdmitMatchesAdmitWithoutMutation) {
  Node n = make_node(fifo_.get(), 1000);
  n.admit(msg(1, 500), ctx(n, 0));
  n.admit(msg(2, 500), ctx(n, 0));
  const Message incoming = msg(3, 500);
  EXPECT_TRUE(n.would_admit(incoming, ctx(n, 0)));
  EXPECT_EQ(n.buffer().count(), 2u);  // dry run did not mutate
  EXPECT_TRUE(n.buffer().has(1));
  EXPECT_TRUE(n.buffer().has(2));
}

TEST_F(NodeAdmissionTest, NewcomerViewOverridesRating) {
  // TTL-ratio policy; buffer full of mid-TTL residents. The incoming
  // message itself is near expiry (would be rejected), but rating it by
  // a long-TTL view must get it admitted (Router pre-split semantics).
  Node n = make_node(ttl_.get(), 1000);
  EXPECT_TRUE(n.admit(msg(1, 500, 0.0, 1000.0), ctx(n, 0)).admitted);
  EXPECT_TRUE(n.admit(msg(2, 500, 0.0, 1000.0), ctx(n, 0)).admitted);
  auto c = ctx(n, 500.0);  // residents at ratio 0.5

  Message incoming = msg(3, 500, 0.0, 520.0);  // ratio ~0.04: rejected
  EXPECT_FALSE(n.would_admit(incoming, c));

  Message view = msg(3, 500, 0.0, 5000.0);  // ratio 0.9: wins
  EXPECT_TRUE(n.would_admit(incoming, c, &view));
  auto res = n.admit(incoming, c, &view);
  EXPECT_TRUE(res.admitted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_TRUE(n.buffer().has(3));
}

TEST_F(NodeAdmissionTest, PinUnpinBookkeeping) {
  Node n = make_node(fifo_.get(), 1000);
  n.pin(7);
  EXPECT_TRUE(n.is_pinned(7));
  n.unpin(7);
  EXPECT_FALSE(n.is_pinned(7));
  n.unpin(7);  // idempotent
}

TEST_F(NodeAdmissionTest, DeliveredBookkeeping) {
  Node n = make_node(fifo_.get(), 1000);
  EXPECT_FALSE(n.has_delivered(3));
  n.mark_delivered(3);
  EXPECT_TRUE(n.has_delivered(3));
}

}  // namespace
}  // namespace dtn
