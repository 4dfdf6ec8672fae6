#include "src/sdsrp/intermeeting_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn::sdsrp {

IntermeetingEstimator::IntermeetingEstimator(double prior_mean,
                                             std::size_t min_samples,
                                             ImtEstimatorMode mode)
    : prior_mean_(prior_mean), min_samples_(min_samples), mode_(mode) {
  DTN_REQUIRE(prior_mean > 0.0, "intermeeting: prior mean must be positive");
}

IntermeetingEstimator::Peer& IntermeetingEstimator::find_or_insert(
    std::size_t peer) {
  DTN_REQUIRE(peer <= std::numeric_limits<std::uint32_t>::max(),
              "intermeeting: peer id out of range");
  const auto id = static_cast<std::uint32_t>(peer);
  const auto it = std::lower_bound(
      peers_.begin(), peers_.end(), id,
      [](const Peer& p, std::uint32_t key) { return p.id < key; });
  if (it != peers_.end() && it->id == id) return *it;
  Peer fresh;
  fresh.id = id;
  return *peers_.insert(it, fresh);
}

void IntermeetingEstimator::on_contact_start(std::size_t peer, double now) {
  Peer& p = find_or_insert(peer);
  if (p.open) {
    if (now > p.last_end) stats_.add(now - p.last_end);
    closed_exposure_ += std::max(0.0, now - p.last_end);
    // The open interval for this peer closes.
    --open_count_;
    open_since_sum_ -= p.last_end;
    p.open = false;
  }
  p.last_seen = now;
}

void IntermeetingEstimator::on_contact_end(std::size_t peer, double now) {
  Peer& p = find_or_insert(peer);
  if (p.open) {
    // Consecutive end without an intervening recorded start (should not
    // happen with a well-behaved kernel): restart the open interval.
    open_since_sum_ += now - p.last_end;
  } else {
    p.open = true;
    ++open_count_;
    open_since_sum_ += now;
  }
  p.last_end = now;
  p.last_seen = now;
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
  const auto it = std::lower_bound(
      peers_.begin(), peers_.end(), peer,
      [](const Peer& p, std::size_t key) { return p.id < key; });
  return it != peers_.end() && it->id == peer
             ? it->last_seen
             : -std::numeric_limits<double>::infinity();
}

namespace {

/// Reads one (peer id, time) entry of a saved peer list, which is
/// strictly ascending by id; `prev` is the previous entry's id, if any.
std::uint32_t read_peer_id(snapshot::ArchiveReader& in,
                           const std::uint32_t* prev) {
  const std::uint64_t id = in.u64();
  // A repeat would collapse into one entry while still being counted in
  // the open-interval count.
  DTN_REQUIRE(prev == nullptr || id > *prev,
              "intermeeting: peers repeated or out of order");
  DTN_REQUIRE(id <= std::numeric_limits<std::uint32_t>::max(),
              "intermeeting: peer id out of range");
  return static_cast<std::uint32_t>(id);
}

}  // namespace

void IntermeetingEstimator::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("imt-estimator");
  snapshot::write_running_stats(out, stats_);
  out.f64(closed_exposure_);
  out.u64(open_count_);
  out.f64(open_since_sum_);
  out.u64(open_count_);
  for (const Peer& p : peers_) {
    if (!p.open) continue;
    out.u64(p.id);
    out.f64(p.last_end);
  }
  out.u64(peers_.size());
  for (const Peer& p : peers_) {
    out.u64(p.id);
    out.f64(p.last_seen);
  }
  out.end_section();
}

void IntermeetingEstimator::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("imt-estimator");
  snapshot::read_running_stats(in, stats_);
  closed_exposure_ = in.f64();
  open_count_ = static_cast<std::size_t>(in.u64());
  open_since_sum_ = in.f64();
  // Open peers with their last contact end, then every peer with its last
  // contact: each entry is a u64 id and an f64 time.
  const std::size_t n_open = in.count(2 * snapshot::kTagged64Bytes);
  DTN_REQUIRE(open_count_ == n_open,
              "intermeeting: open-interval count does not match open peers");
  std::vector<Peer> open(n_open);
  for (std::size_t i = 0; i < n_open; ++i) {
    open[i].id = read_peer_id(in, i == 0 ? nullptr : &open[i - 1].id);
    open[i].last_end = in.f64();
  }
  const std::size_t n_seen = in.count(2 * snapshot::kTagged64Bytes);
  peers_.clear();
  peers_.reserve(n_seen);
  std::size_t next_open = 0;
  for (std::size_t i = 0; i < n_seen; ++i) {
    Peer p;
    p.id = read_peer_id(in, i == 0 ? nullptr : &peers_.back().id);
    p.last_seen = in.f64();
    // Ending a contact also records it, so an open peer is always seen.
    DTN_REQUIRE(next_open == n_open || open[next_open].id >= p.id,
                "intermeeting: open peer was never seen");
    if (next_open < n_open && open[next_open].id == p.id) {
      p.open = true;
      p.last_end = open[next_open++].last_end;
    }
    peers_.push_back(p);
  }
  DTN_REQUIRE(next_open == n_open, "intermeeting: open peer was never seen");
  // open_since_sum_ is the running sum of the open peers' last ends; it
  // stays in the stream because digests hash it. The run built it by one
  // rounded addition or subtraction per contact event (a repeated end
  // rounds `now - last_end` first), so with contact times never
  // decreasing, each rounding is within 2^-53 of a result whose magnitude
  // is at most (P + 1)·T: at most P open ends plus the value applied,
  // where P is the number of peers met and T the latest time held. After
  // K events the running sum is within 2K·2^-53·(P + 1)·T of the exact
  // sum, and summing the restored ends here adds less than
  // P·2^-53·P·T. For K and P below 2^31 both fit in 2^-20·(P + 1)·T;
  // a sum outside it does not describe these peers.
  double exact_sum = 0.0;
  double latest = 0.0;
  for (const Peer& p : peers_) {
    latest = std::max({latest, std::abs(p.last_seen), std::abs(p.last_end)});
    if (p.open) exact_sum += p.last_end;
  }
  const double bound =
      std::ldexp(static_cast<double>(peers_.size() + 1) * latest, -20);
  DTN_REQUIRE(std::abs(open_since_sum_ - exact_sum) <= bound,
              "intermeeting: open-interval sum does not match open peers");
  in.end_section();
}

}  // namespace dtn::sdsrp
