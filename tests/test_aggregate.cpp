// Mergeable-aggregate determinism tests.
//
// The sweep orchestrator's byte-identical guarantee rests on
// ReplicatedMetrics being EXACTLY mergeable: splitting a run sequence
// into any shard partition and merging the partials in canonical order
// must be bit-identical to sequential accumulation — same accumulator
// state, same serialized bytes, same quantiles. MergeStats buys this
// with fixed-point integer sums; these tests pin the property.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/report/sweep.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace dtn {
namespace {

std::vector<std::uint8_t> aggregate_bytes(const ReplicatedMetrics& m) {
  snapshot::ArchiveWriter w;
  save_aggregate(w, m);
  return w.bytes();
}

MetricPoint random_point(Rng& rng) {
  MetricPoint p;
  p.delivery_ratio = rng.uniform01();
  p.avg_hopcount = rng.uniform(1.0, 12.0);
  p.overhead_ratio = rng.uniform(0.0, 200.0);
  // Spread latencies across the fixed histogram range, with a tail past
  // the upper edge so overflow counts participate in the property.
  p.avg_latency = rng.uniform(0.0, 50000.0);
  p.median_latency = rng.uniform(0.0, 40000.0);
  p.p95_latency = rng.uniform(0.0, 43200.0);
  return p;
}

// --- MergeStats ---

TEST(MergeStats, MatchesRunningStatsMoments) {
  Rng rng(7);
  MergeStats m;
  RunningStats r;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    m.add(x);
    r.add(x);
  }
  EXPECT_EQ(m.count(), r.count());
  EXPECT_NEAR(m.mean(), r.mean(), 1e-5);
  EXPECT_NEAR(m.stddev(), r.stddev(), 1e-4);
  EXPECT_NEAR(m.min(), r.min(), 1e-5);
  EXPECT_NEAR(m.max(), r.max(), 1e-5);
  EXPECT_NEAR(m.ci95_half_width(), r.ci95_half_width(), 1e-4);
}

TEST(MergeStats, MergeIsExactForAnySplit) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.uniform(-1000.0, 1000.0));

  MergeStats sequential;
  for (double x : xs) sequential.add(x);

  for (int trial = 0; trial < 20; ++trial) {
    // Random number of parts, random assignment — merge must be exact
    // regardless of how values are distributed or grouped.
    const std::size_t parts = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    std::vector<MergeStats> partial(parts);
    for (double x : xs)
      partial[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(parts) - 1))]
          .add(x);
    MergeStats merged;
    for (const auto& p : partial) merged.merge(p);
    EXPECT_EQ(merged, sequential) << "trial " << trial;
    EXPECT_EQ(merged.export_state().sum_lo, sequential.export_state().sum_lo);
  }
}

TEST(MergeStats, StateRoundTrip) {
  Rng rng(3);
  MergeStats m;
  for (int i = 0; i < 64; ++i) m.add(rng.uniform(-1e6, 1e6));
  MergeStats back;
  back.import_state(m.export_state());
  EXPECT_EQ(back, m);
  EXPECT_EQ(back.mean(), m.mean());
  EXPECT_EQ(back.variance(), m.variance());
}

TEST(MergeStats, RejectsNonFinite) {
  MergeStats m;
  EXPECT_THROW(m.add(std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW(m.add(std::numeric_limits<double>::quiet_NaN()),
               PreconditionError);
}

// --- ReplicatedMetrics partition property (ISSUE satellite) ---

// Splitting N MetricPoints into arbitrary shard partitions and merging
// in canonical shard order is bit-identical to sequential accumulation,
// including the quantile histogram — via operator== AND serialized bytes.
TEST(Aggregate, ShardPartitionBitIdenticalToSequential) {
  Rng rng(42);
  constexpr std::size_t kRuns = 200;
  std::vector<MetricPoint> runs;
  for (std::size_t i = 0; i < kRuns; ++i) runs.push_back(random_point(rng));

  ReplicatedMetrics sequential;
  for (const auto& p : runs) sequential.add(p);
  const auto want_bytes = aggregate_bytes(sequential);

  for (int trial = 0; trial < 10; ++trial) {
    // Contiguous shards with random cut points (the orchestrator's
    // actual partition shape): each shard is a half-open run range.
    std::vector<std::size_t> cuts{0, kRuns};
    const int extra = static_cast<int>(rng.uniform_int(0, 6));
    for (int c = 0; c < extra; ++c)
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kRuns))));
    std::sort(cuts.begin(), cuts.end());

    ReplicatedMetrics merged;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
      ReplicatedMetrics shard;
      for (std::size_t i = cuts[s]; i < cuts[s + 1]; ++i) shard.add(runs[i]);
      merged.merge(shard);  // canonical = ascending shard order
    }

    EXPECT_EQ(merged, sequential) << "trial " << trial;
    EXPECT_EQ(aggregate_bytes(merged), want_bytes) << "trial " << trial;
    EXPECT_EQ(merged.latency_hist.quantile(0.5),
              sequential.latency_hist.quantile(0.5));
    EXPECT_EQ(merged.latency_hist.quantile(0.95),
              sequential.latency_hist.quantile(0.95));
  }
}

// Merging is also order-insensitive (integer sums commute), so even a
// non-canonical merge order cannot change the result. The canonical
// order contract exists for auditability, not correctness.
TEST(Aggregate, MergeOrderInsensitive) {
  Rng rng(9);
  ReplicatedMetrics a, b, ab, ba;
  for (int i = 0; i < 50; ++i) a.add(random_point(rng));
  for (int i = 0; i < 70; ++i) b.add(random_point(rng));
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(aggregate_bytes(ab), aggregate_bytes(ba));
}

TEST(Aggregate, SaveLoadRoundTrip) {
  Rng rng(5);
  ReplicatedMetrics m;
  for (int i = 0; i < 33; ++i) m.add(random_point(rng));

  snapshot::ArchiveWriter w;
  save_aggregate(w, m);
  snapshot::ArchiveReader r(w.bytes());
  ReplicatedMetrics back;
  load_aggregate(r, back);
  EXPECT_EQ(back, m);
  EXPECT_EQ(aggregate_bytes(back), aggregate_bytes(m));
}

TEST(Aggregate, RejectsAnotherHistogramLayout) {
  ReplicatedMetrics m;
  snapshot::ArchiveWriter w;
  save_aggregate(w, m);
  // The bin count follows the section header, six MergeStats of seven
  // values, and the histogram's lo and hi.
  const std::size_t at = 1 + 8 + 9 + (6 * 7 + 2) * snapshot::kTagged64Bytes;
  for (std::uint64_t bins : {std::uint64_t{kLatencyHistBins} + 1,
                             std::uint64_t{1} << 40}) {
    std::vector<std::uint8_t> bytes = w.bytes();
    ASSERT_EQ(bytes.at(at), 0x03);
    for (int i = 0; i < 8; ++i) {
      bytes[at + 1 + i] = static_cast<std::uint8_t>(bins >> (8 * i));
    }
    snapshot::ArchiveReader r(std::move(bytes));
    ReplicatedMetrics back;
    EXPECT_THROW(load_aggregate(r, back), PreconditionError);
  }
}

TEST(Aggregate, EmptyRoundTrip) {
  ReplicatedMetrics empty;
  snapshot::ArchiveWriter w;
  save_aggregate(w, empty);
  snapshot::ArchiveReader r(w.bytes());
  ReplicatedMetrics back;
  load_aggregate(r, back);
  EXPECT_EQ(back, empty);
  EXPECT_EQ(back.delivery_ratio.count(), 0u);
}

}  // namespace
}  // namespace dtn
