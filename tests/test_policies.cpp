// Tests for the buffer-management policies (FIFO, drop-tail, LIFO,
// TTL-ratio = Spray-and-Wait-O, copies-ratio = Spray-and-Wait-C, MOFO,
// random, SDSRP, SDSRP-oracle).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/buffer/fifo.hpp"
#include "src/buffer/gbsd_policy.hpp"
#include "src/buffer/knapsack_policy.hpp"
#include "src/buffer/random_policy.hpp"
#include "src/buffer/sdsrp_policy.hpp"
#include "src/buffer/simple_policies.hpp"
#include "src/core/node.hpp"
#include "src/core/oracle.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"

namespace dtn {
namespace {

Message msg(MessageId id, double created, double ttl, int copies,
            int initial_copies, double received) {
  Message m;
  m.id = id;
  m.source = 0;
  m.destination = 9;
  m.size = 100;
  m.created = created;
  m.ttl = ttl;
  m.copies = copies;
  m.initial_copies = initial_copies;
  m.received = received;
  return m;
}

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest()
      : router_(std::make_unique<SprayAndWaitRouter>()),
        fifo_holder_(std::make_unique<FifoPolicy>()),
        node_(0, std::make_unique<StationaryModel>(Vec2{0, 0}), 100000,
              router_.get(), fifo_holder_.get()) {}

  PolicyContext ctx(SimTime now, std::size_t n_nodes = 100) {
    PolicyContext c;
    c.now = now;
    c.n_nodes = n_nodes;
    c.node = &node_;
    c.oracle = &registry_;
    return c;
  }

  std::unique_ptr<SprayAndWaitRouter> router_;
  std::unique_ptr<FifoPolicy> fifo_holder_;
  Node node_;
  GlobalRegistry registry_;
};

TEST_F(PolicyTest, FifoOrdersByArrival) {
  FifoPolicy p;
  const Message a = msg(1, 0, 100, 4, 4, 30.0);
  const Message b = msg(2, 0, 100, 4, 4, 10.0);
  const Message c = msg(3, 0, 100, 4, 4, 20.0);
  std::vector<const Message*> v{&a, &b, &c};
  p.order_for_sending(v, ctx(50));
  EXPECT_EQ(v[0]->id, 2u);
  EXPECT_EQ(v[1]->id, 3u);
  EXPECT_EQ(v[2]->id, 1u);
}

TEST_F(PolicyTest, FifoDropsOldest) {
  FifoPolicy p;
  const Message a = msg(1, 0, 100, 4, 4, 30.0);
  const Message b = msg(2, 0, 100, 4, 4, 10.0);
  const Message incoming = msg(3, 0, 100, 4, 4, 50.0);
  EXPECT_EQ(p.choose_drop({&a, &b}, &incoming, ctx(50))->id, 2u);
}

TEST_F(PolicyTest, FifoDropsNewcomerOnlyWhenNoResident) {
  FifoPolicy p;
  const Message incoming = msg(3, 0, 100, 4, 4, 50.0);
  EXPECT_EQ(p.choose_drop({}, &incoming, ctx(50)), &incoming);
}

TEST_F(PolicyTest, DropTailRejectsNewcomer) {
  DropTailPolicy p;
  const Message a = msg(1, 0, 100, 4, 4, 30.0);
  const Message incoming = msg(3, 0, 100, 4, 4, 50.0);
  EXPECT_EQ(p.choose_drop({&a}, &incoming, ctx(50)), &incoming);
}

TEST_F(PolicyTest, LifoDropsNewestResident) {
  LifoPolicy p;
  const Message a = msg(1, 0, 100, 4, 4, 30.0);
  const Message b = msg(2, 0, 100, 4, 4, 10.0);
  EXPECT_EQ(p.choose_drop({&a, &b}, nullptr, ctx(50))->id, 2u);
}

TEST_F(PolicyTest, TtlRatioPrefersFreshMessages) {
  // Spray-and-Wait-O: priority R/TTL.
  TtlRatioPolicy p;
  const Message fresh = msg(1, 40, 100, 4, 4, 40);   // at t=50: R=90, ratio .9
  const Message stale = msg(2, 0, 100, 4, 4, 0);     // at t=50: R=50, ratio .5
  std::vector<const Message*> v{&stale, &fresh};
  p.order_for_sending(v, ctx(50));
  EXPECT_EQ(v[0]->id, 1u);
  EXPECT_EQ(p.choose_drop({&stale, &fresh}, nullptr, ctx(50))->id, 2u);
}

TEST_F(PolicyTest, CopiesRatioPrefersCopyRichMessages) {
  // Spray-and-Wait-C: priority C_i / C.
  CopiesRatioPolicy p;
  const Message rich = msg(1, 0, 100, 16, 32, 0);   // ratio 0.5
  const Message poor = msg(2, 0, 100, 2, 32, 0);    // ratio 0.0625
  std::vector<const Message*> v{&poor, &rich};
  p.order_for_sending(v, ctx(50));
  EXPECT_EQ(v[0]->id, 1u);
  EXPECT_EQ(p.choose_drop({&poor, &rich}, nullptr, ctx(50))->id, 2u);
}

TEST_F(PolicyTest, MofoDropsMostForwarded) {
  MofoPolicy p;
  Message a = msg(1, 0, 100, 4, 4, 0);
  Message b = msg(2, 0, 100, 4, 4, 0);
  a.forwards = 5;
  b.forwards = 1;
  EXPECT_EQ(p.choose_drop({&a, &b}, nullptr, ctx(50))->id, 1u);
}

TEST_F(PolicyTest, RandomPolicyIsDeterministicGivenSeed) {
  RandomPolicy p1(42), p2(42);
  const Message a = msg(1, 0, 100, 4, 4, 0);
  const Message b = msg(2, 0, 100, 4, 4, 0);
  const Message c = msg(3, 0, 100, 4, 4, 0);
  std::vector<const Message*> v1{&a, &b, &c}, v2{&a, &b, &c};
  p1.order_for_sending(v1, ctx(0));
  p2.order_for_sending(v2, ctx(0));
  EXPECT_EQ(v1[0]->id, v2[0]->id);
  EXPECT_EQ(v1[1]->id, v2[1]->id);
  EXPECT_EQ(v1[2]->id, v2[2]->id);
}

TEST_F(PolicyTest, RandomPolicyDropCoversAllCandidates) {
  RandomPolicy p(7);
  const Message a = msg(1, 0, 100, 4, 4, 0);
  const Message b = msg(2, 0, 100, 4, 4, 0);
  const Message incoming = msg(3, 0, 100, 4, 4, 0);
  bool dropped_newcomer = false, dropped_resident = false;
  for (int i = 0; i < 200; ++i) {
    const Message* victim = p.choose_drop({&a, &b}, &incoming, ctx(0));
    if (victim == &incoming) {
      dropped_newcomer = true;
    } else {
      dropped_resident = true;
    }
  }
  EXPECT_TRUE(dropped_newcomer);
  EXPECT_TRUE(dropped_resident);
}

TEST_F(PolicyTest, SdsrpUsesDroppedList) {
  SdsrpPolicy p;
  EXPECT_TRUE(p.uses_dropped_list());
  FifoPolicy f;
  EXPECT_FALSE(f.uses_dropped_list());
}

TEST_F(PolicyTest, SdsrpFreshMessageOutranksWidelySpreadMessage) {
  SdsrpPolicy p;
  // Fresh: never sprayed, full TTL ahead.
  Message fresh = msg(1, 1000, 2000, 32, 32, 1000);
  // Spread: repeatedly sprayed with long gaps -> large m̂/n̂, fewer
  // copies and TTL left -> lower priority.
  Message spread = msg(2, 0, 2000, 4, 32, 0);
  spread.spray_times = {0, 400, 800};
  const auto c = ctx(1000);
  EXPECT_GT(p.priority(fresh, c), p.priority(spread, c));
}

TEST_F(PolicyTest, SdsrpNearExpiryWithManyCopiesGetsNegativeUtility) {
  SdsrpPolicy p;
  // 32 copies left but only 1 s of TTL: cannot spray them in time; the
  // spray term goes negative and the message becomes drop-first.
  Message doomed = msg(1, 0, 1000, 32, 32, 0);
  const auto c = ctx(999.0);
  Message healthy = msg(2, 0, 2000, 32, 32, 0);
  EXPECT_LT(p.priority(doomed, c), p.priority(healthy, c));
  EXPECT_LT(p.priority(doomed, c), 0.0);
}

TEST_F(PolicyTest, SdsrpEstimatesExposeComponents) {
  SdsrpPolicy p;
  Message m = msg(1, 0, 1000, 8, 32, 0);
  m.spray_times = {10.0, 20.0};
  const auto e = p.estimates(m, ctx(100));
  EXPECT_GE(e.m_seen, 1.0);
  EXPECT_GE(e.n_holding, 1.0);
  EXPECT_GT(e.lambda, 0.0);
  EXPECT_DOUBLE_EQ(e.d_dropped, 0.0);
}

TEST_F(PolicyTest, SdsrpDropCountLowersNEstimate) {
  SdsrpPolicy p;
  Message m = msg(1, 0, 1000, 8, 32, 0);
  m.spray_times = {10.0, 20.0, 30.0};
  const auto before = p.estimates(m, ctx(100));
  node_.dropped_list().record_local_drop(1, 50.0);
  const auto after = p.estimates(m, ctx(100));
  EXPECT_DOUBLE_EQ(after.d_dropped, 1.0);
  EXPECT_LE(after.n_holding, before.n_holding);
}

TEST_F(PolicyTest, SdsrpOracleReadsRegistry) {
  SdsrpOraclePolicy p;
  registry_.on_created(1, 0);
  registry_.on_copy_received(1, 2);
  registry_.on_copy_received(1, 3);
  Message m = msg(1, 0, 1000, 8, 32, 0);
  // Should not throw and should yield a positive, finite priority.
  const double u = p.priority(m, ctx(100));
  EXPECT_TRUE(std::isfinite(u));
  EXPECT_GT(u, 0.0);
}

TEST_F(PolicyTest, SdsrpTaylorApproachesClosedForm) {
  Message m = msg(1, 0, 1000, 8, 32, 0);
  m.spray_times = {10.0};
  SdsrpPolicy closed(SdsrpParams{0});
  SdsrpPolicy t2(SdsrpParams{2});
  SdsrpPolicy t50(SdsrpParams{50});
  const auto c = ctx(100);
  const double u_closed = closed.priority(m, c);
  const double err2 = std::abs(t2.priority(m, c) - u_closed);
  const double err50 = std::abs(t50.priority(m, c) - u_closed);
  EXPECT_LE(err50, err2 + 1e-15);
}

TEST_F(PolicyTest, GbsdReadsOracleAndPrefersUnderSpread) {
  GbsdPolicy p;
  registry_.on_created(1, 0);
  registry_.on_created(2, 0);
  // Message 2 is widely spread; message 1 is not.
  for (NodeId n = 2; n <= 20; ++n) registry_.on_copy_received(2, n);
  Message sparse = msg(1, 0, 1000, 1, 1, 0);
  Message spread = msg(2, 0, 1000, 1, 1, 0);
  const auto c = ctx(100);
  EXPECT_GT(p.priority(sparse, c), p.priority(spread, c));
}

TEST_F(PolicyTest, GbsdIgnoresCopyTokens) {
  // Unlike SDSRP, GBSD's utility must not depend on the spray counter.
  GbsdPolicy p;
  registry_.on_created(1, 0);
  Message a = msg(1, 0, 1000, 1, 32, 0);
  Message b = a;
  b.copies = 32;
  const auto c = ctx(100);
  EXPECT_DOUBLE_EQ(p.priority(a, c), p.priority(b, c));
}

TEST_F(PolicyTest, KnapsackMatchesSdsrpForUniformSizes) {
  SdsrpPolicy sdsrp;
  KnapsackSdsrpPolicy knap;
  Message a = msg(1, 0, 1000, 8, 32, 0);
  Message b = msg(2, 0, 500, 2, 32, 0);
  Message c = msg(3, 500, 1500, 32, 32, 500);
  const auto ctx_ = ctx(600);
  std::vector<const Message*> v1{&a, &b, &c}, v2{&a, &b, &c};
  sdsrp.order_for_sending(v1, ctx_);
  knap.order_for_sending(v2, ctx_);
  for (std::size_t i = 0; i < v1.size(); ++i) EXPECT_EQ(v1[i]->id, v2[i]->id);
  EXPECT_EQ(sdsrp.choose_drop({&a, &b, &c}, nullptr, ctx_)->id,
            knap.choose_drop({&a, &b, &c}, nullptr, ctx_)->id);
}

TEST_F(PolicyTest, KnapsackPrefersEvictingLowDensityLargeMessages) {
  KnapsackSdsrpPolicy knap;
  // Equal utility inputs except size: the bigger message has lower
  // utility density and must be the drop victim.
  Message small = msg(1, 0, 1000, 8, 32, 0);
  Message big = msg(2, 0, 1000, 8, 32, 0);
  big.size = 1000;  // 10x small.size (100)
  const auto ctx_ = ctx(100);
  EXPECT_EQ(knap.choose_drop({&small, &big}, nullptr, ctx_)->id, 2u);
  // And scheduling sends the denser (smaller) one first.
  std::vector<const Message*> v{&big, &small};
  knap.order_for_sending(v, ctx_);
  EXPECT_EQ(v[0]->id, 1u);
}

TEST_F(PolicyTest, KnapsackUsesDroppedList) {
  KnapsackSdsrpPolicy knap;
  EXPECT_TRUE(knap.uses_dropped_list());
  EXPECT_TRUE(knap.rejects_previously_dropped());
}

TEST_F(PolicyTest, ScalarOrderingTieBreaksById) {
  TtlRatioPolicy p;
  const Message a = msg(5, 0, 100, 4, 4, 0);
  const Message b = msg(2, 0, 100, 4, 4, 0);  // identical priority
  std::vector<const Message*> v{&a, &b};
  p.order_for_sending(v, ctx(10));
  EXPECT_EQ(v[0]->id, 2u);
}

}  // namespace
}  // namespace dtn
