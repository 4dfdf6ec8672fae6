// Unit tests for the byte-limited message buffer.
#include <gtest/gtest.h>

#include "src/core/buffer.hpp"
#include "src/util/error.hpp"

namespace dtn {
namespace {

Message msg(MessageId id, std::int64_t size, SimTime created = 0.0,
            double ttl = 100.0) {
  Message m;
  m.id = id;
  m.source = 0;
  m.destination = 1;
  m.size = size;
  m.created = created;
  m.ttl = ttl;
  m.received = created;
  return m;
}

TEST(Buffer, StartsEmpty) {
  Buffer b(1000);
  EXPECT_EQ(b.capacity(), 1000);
  EXPECT_EQ(b.used(), 0);
  EXPECT_EQ(b.free(), 1000);
  EXPECT_TRUE(b.empty());
  EXPECT_DOUBLE_EQ(b.occupancy(), 0.0);
}

TEST(Buffer, RejectsNonPositiveCapacity) {
  EXPECT_THROW(Buffer(0), PreconditionError);
  EXPECT_THROW(Buffer(-5), PreconditionError);
}

TEST(Buffer, InsertTracksBytes) {
  Buffer b(1000);
  EXPECT_TRUE(b.try_insert(msg(1, 400)));
  EXPECT_EQ(b.used(), 400);
  EXPECT_EQ(b.free(), 600);
  EXPECT_TRUE(b.try_insert(msg(2, 600)));
  EXPECT_EQ(b.free(), 0);
  EXPECT_DOUBLE_EQ(b.occupancy(), 1.0);
}

TEST(Buffer, InsertFailsWhenFull) {
  Buffer b(1000);
  EXPECT_TRUE(b.try_insert(msg(1, 700)));
  EXPECT_FALSE(b.try_insert(msg(2, 400)));
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.used(), 700);
}

TEST(Buffer, DuplicateIdThrows) {
  Buffer b(1000);
  EXPECT_TRUE(b.try_insert(msg(1, 100)));
  EXPECT_THROW(b.try_insert(msg(1, 100)), PreconditionError);
}

TEST(Buffer, FindAndHas) {
  Buffer b(1000);
  b.try_insert(msg(5, 100));
  EXPECT_TRUE(b.has(5));
  EXPECT_FALSE(b.has(6));
  ASSERT_NE(b.find(5), nullptr);
  EXPECT_EQ(b.find(5)->id, 5u);
  EXPECT_EQ(b.find(6), nullptr);
}

TEST(Buffer, TakeRemovesAndReturns) {
  Buffer b(1000);
  b.try_insert(msg(1, 300));
  b.try_insert(msg(2, 200));
  const Message out = b.take(1);
  EXPECT_EQ(out.id, 1u);
  EXPECT_EQ(b.used(), 200);
  EXPECT_FALSE(b.has(1));
}

TEST(Buffer, TakeMissingThrows) {
  Buffer b(1000);
  EXPECT_THROW(b.take(42), PreconditionError);
}

TEST(Buffer, ArrivalOrderPreserved) {
  Buffer b(1000);
  b.try_insert(msg(3, 100));
  b.try_insert(msg(1, 100));
  b.try_insert(msg(2, 100));
  ASSERT_EQ(b.messages().size(), 3u);
  EXPECT_EQ(b.messages()[0].id, 3u);
  EXPECT_EQ(b.messages()[1].id, 1u);
  EXPECT_EQ(b.messages()[2].id, 2u);
}

TEST(MessageAccessors, TtlArithmetic) {
  const Message m = msg(1, 100, 10.0, 40.0);
  EXPECT_DOUBLE_EQ(m.expiry(), 50.0);
  EXPECT_DOUBLE_EQ(m.remaining_ttl(30.0), 20.0);
  EXPECT_DOUBLE_EQ(m.elapsed(30.0), 20.0);
  EXPECT_FALSE(m.expired(49.9));
  EXPECT_TRUE(m.expired(50.0));
}

}  // namespace
}  // namespace dtn
