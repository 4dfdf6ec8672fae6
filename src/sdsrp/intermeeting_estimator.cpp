#include "src/sdsrp/intermeeting_estimator.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn::sdsrp {

IntermeetingEstimator::IntermeetingEstimator(double prior_mean,
                                             std::size_t min_samples,
                                             ImtEstimatorMode mode)
    : prior_mean_(prior_mean), min_samples_(min_samples), mode_(mode) {
  DTN_REQUIRE(prior_mean > 0.0, "intermeeting: prior mean must be positive");
}

void IntermeetingEstimator::on_contact_start(std::size_t peer, double now) {
  const auto it = last_end_.find(peer);
  if (it != last_end_.end()) {
    if (now > it->second) stats_.add(now - it->second);
    closed_exposure_ += std::max(0.0, now - it->second);
    // The open interval for this peer closes.
    --open_count_;
    open_since_sum_ -= it->second;
    last_end_.erase(it);
  }
  last_seen_[peer] = now;
}

void IntermeetingEstimator::on_contact_end(std::size_t peer, double now) {
  const auto it = last_end_.find(peer);
  if (it != last_end_.end()) {
    // Consecutive end without an intervening recorded start (should not
    // happen with a well-behaved kernel): restart the open interval.
    open_since_sum_ += now - it->second;
    it->second = now;
  } else {
    last_end_.emplace(peer, now);
    ++open_count_;
    open_since_sum_ += now;
  }
  last_seen_[peer] = now;
}

double IntermeetingEstimator::mean_intermeeting(double now) const {
  if (stats_.count() < min_samples_) return prior_mean_;
  if (mode_ == ImtEstimatorMode::kNaiveMean) {
    const double m = stats_.mean();
    return m > 0.0 ? m : prior_mean_;
  }
  // Censored MLE: exposure / events. Open intervals contribute the time
  // each not-yet-re-met peer has been waiting since its last contact end.
  const double open_exposure =
      static_cast<double>(open_count_) * now - open_since_sum_;
  const double exposure = closed_exposure_ + std::max(0.0, open_exposure);
  const double events = static_cast<double>(stats_.count());
  const double mean = exposure / events;
  return mean > 0.0 ? mean : prior_mean_;
}

double IntermeetingEstimator::lambda_min(double now,
                                         std::size_t n_nodes) const {
  DTN_REQUIRE(n_nodes >= 2, "lambda_min: need at least two nodes");
  return static_cast<double>(n_nodes - 1) * lambda(now);
}

double IntermeetingEstimator::mean_min_intermeeting(
    double now, std::size_t n_nodes) const {
  return 1.0 / lambda_min(now, n_nodes);
}

double IntermeetingEstimator::last_contact(std::size_t peer) const {
  const auto it = last_seen_.find(peer);
  return it != last_seen_.end() ? it->second
                                : -std::numeric_limits<double>::infinity();
}

namespace {

void write_sorted_map(snapshot::ArchiveWriter& out,
                      const std::unordered_map<std::size_t, double>& m) {
  std::vector<std::size_t> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  out.u64(keys.size());
  for (std::size_t k : keys) {
    out.u64(k);
    out.f64(m.at(k));
  }
}

void read_map(snapshot::ArchiveReader& in,
              std::unordered_map<std::size_t, double>& m) {
  m.clear();
  const std::uint64_t n = in.u64();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t k = in.u64();
    // Peers are saved strictly ascending; a repeat would collapse into
    // one entry while still being counted in the open-interval count.
    DTN_REQUIRE(i == 0 || k > prev,
                "intermeeting: peers repeated or out of order");
    prev = k;
    m.emplace(static_cast<std::size_t>(k), in.f64());
  }
}

}  // namespace

void IntermeetingEstimator::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("imt-estimator");
  snapshot::write_running_stats(out, stats_);
  out.f64(closed_exposure_);
  out.u64(open_count_);
  out.f64(open_since_sum_);
  write_sorted_map(out, last_end_);
  write_sorted_map(out, last_seen_);
  out.end_section();
}

void IntermeetingEstimator::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("imt-estimator");
  snapshot::read_running_stats(in, stats_);
  closed_exposure_ = in.f64();
  open_count_ = static_cast<std::size_t>(in.u64());
  open_since_sum_ = in.f64();
  read_map(in, last_end_);
  DTN_REQUIRE(open_count_ == last_end_.size(),
              "intermeeting: open-interval count does not match open peers");
  read_map(in, last_seen_);
  in.end_section();
}

}  // namespace dtn::sdsrp
