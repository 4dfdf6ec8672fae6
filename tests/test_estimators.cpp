// Tests for the distributed SDSRP estimators: intermeeting times (E(I),
// λ, λ_min) and the spray-tree m̂/n̂ estimates (Eq. 14/15).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/sdsrp/intermeeting_estimator.hpp"
#include "src/sdsrp/spray_tree.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace dtn::sdsrp {
namespace {

TEST(IntermeetingEstimator, UsesPriorBeforeWarmup) {
  IntermeetingEstimator e(5000.0, /*min_samples=*/3);
  EXPECT_DOUBLE_EQ(e.mean_intermeeting(0.0), 5000.0);
  EXPECT_FALSE(e.warmed_up());
  e.on_contact_end(1, 10.0);
  e.on_contact_start(1, 110.0);  // one sample of 100
  EXPECT_EQ(e.samples(), 1u);
  EXPECT_DOUBLE_EQ(e.mean_intermeeting(200.0), 5000.0);  // still prior
}

TEST(IntermeetingEstimator, NaiveMeanAfterWarmup) {
  IntermeetingEstimator e(5000.0, 3, ImtEstimatorMode::kNaiveMean);
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    e.on_contact_end(1, t);
    t += 100.0;
    e.on_contact_start(1, t);  // gaps of exactly 100
    t += 10.0;                 // contact lasts 10
  }
  EXPECT_TRUE(e.warmed_up());
  EXPECT_DOUBLE_EQ(e.mean_intermeeting(t), 100.0);
  EXPECT_DOUBLE_EQ(e.lambda(t), 0.01);
}

TEST(IntermeetingEstimator, CensoredMleCountsOpenExposure) {
  IntermeetingEstimator e(5000.0, 1, ImtEstimatorMode::kCensoredMle);
  // Peer 1: one completed gap of 100 (ends at 0, re-meets at 100).
  e.on_contact_end(1, 0.0);
  e.on_contact_start(1, 100.0);
  // Peer 1's contact ends at 110 and never re-meets; peer 2 ends at 50
  // and never re-meets.
  e.on_contact_end(1, 110.0);
  e.on_contact_end(2, 50.0);
  // At t=500: closed exposure 100, open exposure (500-110)+(500-50)=840,
  // events = 1 -> MLE mean = 940.
  EXPECT_DOUBLE_EQ(e.mean_intermeeting(500.0), 940.0);
  // The naive mean would claim 100 — the censoring bias in action.
}

TEST(IntermeetingEstimator, MleReducesCensoringBias) {
  // True exponential with mean 1000, observed over a window of 800:
  // the naive mean of completed gaps underestimates; the censored MLE
  // should land near the truth.
  const double window = 800.0;
  Rng rng(11);
  IntermeetingEstimator naive(1.0, 1, ImtEstimatorMode::kNaiveMean);
  IntermeetingEstimator mle(1.0, 1, ImtEstimatorMode::kCensoredMle);
  for (std::size_t peer = 0; peer < 4000; ++peer) {
    naive.on_contact_end(peer, 0.0);
    mle.on_contact_end(peer, 0.0);
    // Renewal process of instantaneous contacts until the window closes.
    double t = 0.0;
    for (;;) {
      t += rng.exponential(1.0 / 1000.0);
      if (t >= window) break;
      naive.on_contact_start(peer, t);
      mle.on_contact_start(peer, t);
      naive.on_contact_end(peer, t);
      mle.on_contact_end(peer, t);
    }
  }
  const double naive_mean = naive.mean_intermeeting(window);
  const double mle_mean = mle.mean_intermeeting(window);
  EXPECT_LT(naive_mean, 500.0);           // badly biased low
  EXPECT_NEAR(mle_mean, 1000.0, 120.0);   // near the true mean
}

TEST(IntermeetingEstimator, RegressionNaiveVsMleOnExponentialContacts) {
  // Regression pin for the documented estimator bias (DESIGN.md §4), on
  // a synthetic exponential contact process with *finite* contact
  // durations and an observation window shorter than the true E(I):
  // the naive mean of completed gaps can only see gaps that happened to
  // finish inside the window, so it is length-biased well below the
  // truth; the censored MLE counts open gap exposure and recovers E(I).
  // Pinned bounds, so an estimator change reintroducing the bias (or
  // breaking exposure bookkeeping around contact durations) fails here.
  const double true_ei = 2000.0;
  const double contact_s = 20.0;
  const double window = 1500.0;
  Rng rng(2024);
  IntermeetingEstimator naive(1.0, 1, ImtEstimatorMode::kNaiveMean);
  IntermeetingEstimator mle(1.0, 1, ImtEstimatorMode::kCensoredMle);
  for (std::size_t peer = 0; peer < 5000; ++peer) {
    double t = rng.uniform(0.0, 100.0);  // first contact ends here
    naive.on_contact_end(peer, t);
    mle.on_contact_end(peer, t);
    for (;;) {
      t += rng.exponential(1.0 / true_ei);  // gap
      // Stop once the next contact would straddle the window, so every
      // recorded event lies inside [0, window] and the open exposure at
      // `window` is exact.
      if (t + contact_s >= window) break;
      naive.on_contact_start(peer, t);
      mle.on_contact_start(peer, t);
      t += contact_s;  // in contact: no gap exposure accumulates
      naive.on_contact_end(peer, t);
      mle.on_contact_end(peer, t);
    }
  }
  const double naive_mean = naive.mean_intermeeting(window);
  const double mle_mean = mle.mean_intermeeting(window);
  EXPECT_LT(naive_mean, 0.45 * true_ei);         // biased low, badly
  EXPECT_NEAR(mle_mean, true_ei, 0.08 * true_ei);  // truth within 8%
  // The ordering itself is the regression guarantee.
  EXPECT_LT(naive_mean, mle_mean);
}

TEST(IntermeetingEstimator, FirstContactWithPeerIsNotASample) {
  IntermeetingEstimator e(1000.0, 1);
  e.on_contact_start(3, 500.0);  // no previous end recorded
  EXPECT_EQ(e.samples(), 0u);
}

TEST(IntermeetingEstimator, SamplesPerPeerIndependent) {
  IntermeetingEstimator e(1000.0, 1, ImtEstimatorMode::kNaiveMean);
  e.on_contact_end(1, 0.0);
  e.on_contact_end(2, 0.0);
  e.on_contact_start(1, 50.0);
  e.on_contact_start(2, 150.0);
  EXPECT_EQ(e.samples(), 2u);
  EXPECT_DOUBLE_EQ(e.mean_intermeeting(150.0), 100.0);
}

TEST(IntermeetingEstimator, LambdaMinScalesWithN) {
  IntermeetingEstimator e(1000.0, 1);
  // λ = 1/1000 (prior); λ_min = (N-1) λ.
  EXPECT_DOUBLE_EQ(e.lambda_min(0.0, 100), 99.0 / 1000.0);
  EXPECT_DOUBLE_EQ(e.mean_min_intermeeting(0.0, 100), 1000.0 / 99.0);
  EXPECT_THROW(e.lambda_min(0.0, 1), PreconditionError);
}

TEST(IntermeetingEstimator, LastContactTracksStartAndEnd) {
  IntermeetingEstimator e;
  EXPECT_TRUE(std::isinf(e.last_contact(7)));
  e.on_contact_start(7, 100.0);
  EXPECT_DOUBLE_EQ(e.last_contact(7), 100.0);
  e.on_contact_end(7, 130.0);
  EXPECT_DOUBLE_EQ(e.last_contact(7), 130.0);
}

TEST(IntermeetingEstimator, RecoverExponentialRate) {
  IntermeetingEstimator e(1.0, 10, ImtEstimatorMode::kNaiveMean);
  Rng rng(5);
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    e.on_contact_end(1, t);
    t += rng.exponential(0.001);  // mean gap 1000
    e.on_contact_start(1, t);
    t += 5.0;
  }
  EXPECT_NEAR(e.mean_intermeeting(t), 1000.0, 50.0);
}

TEST(IntermeetingEstimator, RejectsBadPrior) {
  EXPECT_THROW(IntermeetingEstimator(0.0), PreconditionError);
}

// --- checkpoint loading ---

using Peers = std::vector<std::pair<std::uint64_t, double>>;

// A hand-built "imt-estimator" section with no samples, `open_count` open
// intervals, and the open (last end) and last-seen peers in the given
// order.
std::vector<std::uint8_t> estimator_section(std::uint64_t open_count,
                                            const Peers& last_end,
                                            const Peers& last_seen) {
  snapshot::ArchiveWriter w;
  w.begin_section("imt-estimator");
  snapshot::write_running_stats(w, RunningStats{});
  w.f64(0.0);  // closed exposure
  w.u64(open_count);
  double open_since_sum = 0.0;
  for (const auto& [peer, t] : last_end) open_since_sum += t;
  w.f64(open_since_sum);
  for (const Peers* peers : {&last_end, &last_seen}) {
    w.u64(peers->size());
    for (const auto& [peer, t] : *peers) {
      w.u64(peer);
      w.f64(t);
    }
  }
  w.end_section();
  return w.bytes();
}

void load(IntermeetingEstimator& e, std::uint64_t open_count,
          const Peers& last_end, const Peers& last_seen) {
  snapshot::ArchiveReader in(
      estimator_section(open_count, last_end, last_seen));
  e.load_state(in);
}

TEST(IntermeetingEstimatorState, LoadsAscendingPeers) {
  const Peers open = {{1, 10.0}, {4, 20.0}};
  const Peers seen = {{1, 10.0}, {4, 20.0}, {7, 5.0}};
  IntermeetingEstimator e(1000.0, 1);
  load(e, 2, open, seen);
  EXPECT_EQ(e.last_contact(4), 20.0);
  EXPECT_EQ(e.last_contact(7), 5.0);
  snapshot::ArchiveWriter resaved;
  e.save_state(resaved);
  EXPECT_EQ(resaved.bytes(), estimator_section(2, open, seen));
}

TEST(IntermeetingEstimatorState, RejectsRepeatedOpenPeer) {
  // Accepting it would keep one open interval while the censored MLE
  // counts two.
  IntermeetingEstimator e(1000.0, 1);
  EXPECT_THROW(load(e, 2, {{1, 10.0}, {1, 20.0}}, {{1, 20.0}}),
               PreconditionError);
}

TEST(IntermeetingEstimatorState, RejectsOpenPeersOutOfOrder) {
  IntermeetingEstimator e(1000.0, 1);
  EXPECT_THROW(load(e, 2, {{4, 10.0}, {1, 20.0}}, {{1, 20.0}, {4, 10.0}}),
               PreconditionError);
}

TEST(IntermeetingEstimatorState, RejectsRepeatedSeenPeer) {
  IntermeetingEstimator e(1000.0, 1);
  EXPECT_THROW(load(e, 0, {}, {{1, 10.0}, {1, 20.0}}), PreconditionError);
}

TEST(IntermeetingEstimatorState, RejectsOpenCountThatDisagrees) {
  IntermeetingEstimator e(1000.0, 1);
  EXPECT_THROW(load(e, 3, {{1, 10.0}, {4, 20.0}}, {{1, 10.0}, {4, 20.0}}),
               PreconditionError);
}

// --- spray tree ---

// SprayTreeInputs only views its spray times, so the test inputs own
// theirs; not copyable, so the view can never outlive them.
struct Tree : SprayTreeInputs {
  Tree(std::vector<double> t, double now_s, double ei_min, double c0,
       std::size_t nodes = 100)
      : times(std::move(t)) {
    spray_times = times;
    now = now_s;
    mean_min_imt = ei_min;
    initial_copies = c0;
    n_nodes = nodes;
  }
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  std::vector<double> times;
};

TEST(SprayTree, NeverSprayedMeansNobodySawIt) {
  EXPECT_DOUBLE_EQ(estimate_m_seen(Tree({}, 100.0, 10.0, 32.0)), 0.0);
}

TEST(SprayTree, SingleSprayCountsTheCounterpart) {
  // One spray: only the "+1" term of Eq. 15 — exactly one other node.
  EXPECT_DOUBLE_EQ(estimate_m_seen(Tree({50.0}, 500.0, 10.0, 32.0)), 1.0);
}

TEST(SprayTree, BranchesDoublePerMinIntermeetingInterval) {
  // Two sprays anchored at t_n = 30: branch 1 age 20, E(I_min)=10 ->
  // 2^2 = 4, plus the +1 -> 5.
  const double m =
      estimate_m_seen(Tree({10.0, 30.0}, 1000.0, 10.0, 32.0));
  EXPECT_DOUBLE_EQ(m, 5.0);
}

TEST(SprayTree, AnchorAtNowGrowsBetweenContacts) {
  Tree in({10.0, 30.0}, 70.0, 10.0, 32.0);
  in.anchor_at_last_spray = false;
  // Branch age = 70-10 = 60 -> 2^6 = 64, capped at branch budget 16 -> 17.
  EXPECT_DOUBLE_EQ(estimate_m_seen(in), 17.0);
}

TEST(SprayTree, BranchBudgetCapsGrowth) {
  // With C=8, branch 1's subtree holds at most 4 copies, however old.
  const double m =
      estimate_m_seen(Tree({0.0, 1000.0}, 1000.0, 1.0, 8.0));
  EXPECT_DOUBLE_EQ(m, 5.0);  // min(2^1000, 4) + 1
}

TEST(SprayTree, TotalCappedAtNMinus1) {
  const double m = estimate_m_seen(
      Tree({0.0, 10.0, 20.0, 1000.0}, 1000.0, 1.0, 1e9, /*n_nodes=*/50));
  EXPECT_DOUBLE_EQ(m, 49.0);
}

TEST(SprayTree, MoreSpraysNeverDecreaseEstimate) {
  std::vector<double> times;
  double prev = -1.0;
  for (int k = 1; k <= 6; ++k) {
    times.push_back(k * 100.0);
    const double m =
        estimate_m_seen(Tree(times, 1000.0, 50.0, 64.0));
    EXPECT_GE(m, prev);
    prev = m;
  }
}

TEST(SprayTree, LdexpPowersMatchPowBitForBit) {
  // Eq. 15 as first written, with std::pow: the estimator's exact powers
  // of two must reproduce it bit for bit over ages, budgets and caps.
  const auto with_pow = [](const SprayTreeInputs& in) {
    const std::size_t n = in.spray_times.size();
    if (n == 0) return 0.0;
    const double cap_total = static_cast<double>(in.n_nodes - 1);
    const double t_n = in.spray_times.back();
    double m = 1.0;
    for (std::size_t k = 1; k < n; ++k) {
      const double age = t_n - in.spray_times[k - 1];
      const double doublings =
          std::floor(std::max(age, 0.0) / in.mean_min_imt);
      const double budget = std::max(
          1.0, in.initial_copies / std::pow(2.0, static_cast<double>(k)));
      m += std::min(std::pow(2.0, std::min(doublings, 60.0)), budget);
      if (m >= cap_total) return cap_total;
    }
    return std::min(m, cap_total);
  };
  Rng rng(97);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> times;
    double t = rng.uniform(0.0, 500.0);
    const int sprays = static_cast<int>(rng.uniform_int(1, 12));
    for (int k = 0; k < sprays; ++k) {
      times.push_back(t);
      t += rng.uniform(0.0, 4000.0);
    }
    const double c0 = std::ldexp(1.0, static_cast<int>(rng.uniform_int(0, 40)));
    const Tree in(times, t, rng.uniform(0.01, 900.0), c0,
                  static_cast<std::size_t>(rng.uniform_int(2, 5000)));
    const double got = estimate_m_seen(in);
    const double want = with_pow(in);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "trial " << trial << ": " << got << " vs " << want;
  }
}

TEST(SprayTree, RejectsBadInputs) {
  EXPECT_THROW(estimate_m_seen(Tree({1.0}, 10.0, 0.0, 8.0)),
               PreconditionError);
  Tree in({1.0}, 10.0, 5.0, 8.0);
  in.n_nodes = 1;
  EXPECT_THROW(estimate_m_seen(in), PreconditionError);
}

TEST(SprayTree, NHoldingFollowsEq14) {
  EXPECT_DOUBLE_EQ(estimate_n_holding(10.0, 3.0), 8.0);   // m+1-d
  EXPECT_DOUBLE_EQ(estimate_n_holding(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(estimate_n_holding(2.0, 50.0), 1.0);   // clamped
  EXPECT_DOUBLE_EQ(estimate_n_holding(5.0, -3.0), 6.0);   // negative d ignored
}

}  // namespace
}  // namespace dtn::sdsrp
