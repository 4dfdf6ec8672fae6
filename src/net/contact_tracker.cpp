#include "src/net/contact_tracker.hpp"

#include <cmath>
#include <iterator>
#include <limits>
#include <tuple>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

namespace {
/// Full passes are sized so that, at the advertised bound, roughly this
/// many updates can be skipped between passes (budget slack / 2·bound).
constexpr double kSlackSteps = 32.0;
/// FP guard margin in budget comparisons.
constexpr double kBudgetEps = 1e-9;
}  // namespace

ContactTracker::ContactTracker(double range) : range_(range), grid_(range) {
  DTN_REQUIRE(range > 0.0, "ContactTracker: range must be positive");
}

void ContactTracker::set_motion_bound(double bound) {
  double slack = 0.0;
  if (std::isfinite(bound) && bound >= 0.0) {
    slack = bound == 0.0 ? range_ : std::min(range_, kSlackSteps * bound);
  }
  if (slack == slack_) return;  // unchanged: keep any (restored) budget
  slack_ = slack;
  grid_.set_cell(range_ + slack_);
  budget_ = 0.0;  // the next update must run a full pass
}

const ContactChurn& ContactTracker::update() {
  ++updates_;
  churn_.went_up.clear();
  churn_.went_down.clear();
  bool skip = false;
  if (slack_ > 0.0 && have_prev_ && budget_ > 0.0) {
    // No pairwise distance can change by more than twice the largest
    // single-node displacement. Charging the *observed* displacement (not
    // the advertised bound) keeps skipping correct under teleports.
    const double spent = 2.0 * std::sqrt(moved2_);
    if (spent + kBudgetEps <= budget_) {
      budget_ -= spent;
      skip = true;  // only watch pairs can have changed status
    }
  }
  moved2_ = 0.0;  // nothing has moved since this update
  have_prev_ = true;
  if (skip) {
    recheck_watch();
  } else {
    full_pass();
  }
  return churn_;
}

void ContactTracker::recheck_watch() {
  // watch_ is sorted by (i, j), so the churn comes out sorted.
  const double r2 = range_ * range_;
  for (WatchPair& wp : watch_) {
    const bool in = distance2(positions_[wp.i], positions_[wp.j]) <= r2;
    if (in == wp.in_contact) continue;
    wp.in_contact = in;
    (in ? churn_.went_up : churn_.went_down).emplace_back(wp.i, wp.j);
  }
  if (churn_.went_up.empty() && churn_.went_down.empty()) return;
  next_.clear();
  std::set_difference(current_.begin(), current_.end(),
                      churn_.went_down.begin(), churn_.went_down.end(),
                      std::back_inserter(next_));
  const auto mid = static_cast<std::ptrdiff_t>(next_.size());
  next_.insert(next_.end(), churn_.went_up.begin(), churn_.went_up.end());
  std::inplace_merge(next_.begin(), next_.begin() + mid, next_.end());
  current_.swap(next_);
}

void ContactTracker::full_pass() {
  ++full_passes_;
  grid_.rebuild(positions_);
  next_.clear();
  watch_.clear();
  // Pairs within ±slack/2 of the range boundary become watch pairs (exact
  // per-step recheck); the motion budget certifies everyone else: how
  // close the nearest non-watch non-contact pair is to entering range and
  // the farthest non-watch contact to leaving it. Excluding the band
  // keeps both margins >= slack/2, so skipping engages even when some
  // pair sits right at the boundary. Pairs beyond `reach` are not
  // enumerated; `reach` bounds the non-contact margin.
  const double r2 = range_ * range_;
  const double reach = range_ + slack_;
  const double band = slack_ * 0.5;
  const double lo2 = (range_ - band) * (range_ - band);
  const double hi2 = (range_ + band) * (range_ + band);
  double min_nc2 = reach * reach;
  double max_c2 = 0.0;
  // collect_pairs_within rather than the std::function visitor: the
  // capture list would not fit std::function's inline buffer, and a
  // heap-allocated callback per pass breaks the zero-steady-state-
  // allocation property test_step_loop pins. Hits come (i, j)-sorted.
  hits_.clear();
  grid_.collect_pairs_within(reach, 0, positions_.size(), hits_);
  for (const SpatialGrid::PairHit& h : hits_) {
    const bool in = h.d2 <= r2;
    if (in) next_.emplace_back(h.i, h.j);
    if (slack_ > 0.0 && h.d2 >= lo2 && h.d2 <= hi2) {
      watch_.push_back({h.i, h.j, in});
    } else if (in) {
      max_c2 = std::max(max_c2, h.d2);
    } else {
      min_nc2 = std::min(min_nc2, h.d2);
    }
  }
  std::set_difference(next_.begin(), next_.end(), current_.begin(),
                      current_.end(), std::back_inserter(churn_.went_up));
  std::set_difference(current_.begin(), current_.end(), next_.begin(),
                      next_.end(), std::back_inserter(churn_.went_down));
  current_.swap(next_);
  budget_ =
      slack_ > 0.0
          ? std::max(0.0, std::min(std::sqrt(min_nc2) - range_,
                                   range_ - std::sqrt(max_c2)))
          : 0.0;
}

void ContactTracker::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("contacts");
  out.u64(current_.size());
  for (const NodePair& p : current_) {
    out.u64(p.first);
    out.u64(p.second);
  }
  // Kinetic bookkeeping is derived-but-deterministic state: skipped in
  // digests, which hash what the world is, not how the tracker reached
  // it; carried in checkpoints so a restored run skips the same steps.
  if (!out.digest_only()) {
    out.f64(slack_);
    out.f64(budget_);
    out.boolean(have_prev_);
    out.u64(positions_.size());
    for (const Vec2& p : positions_) {
      out.f64(p.x);
      out.f64(p.y);
    }
    out.u64(watch_.size());
    for (const WatchPair& wp : watch_) {
      out.u32(wp.i);
      out.u32(wp.j);
      out.boolean(wp.in_contact);
    }
  }
  out.end_section();
}

void ContactTracker::load_state(snapshot::ArchiveReader& in,
                                std::size_t n_nodes) {
  in.begin_section("contacts");
  current_.clear();
  const std::size_t n = in.count(2 * snapshot::kTagged64Bytes);
  current_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = in.u64();
    const std::uint64_t b = in.u64();
    // Pairs index per-node arrays downstream; a repeated pair would also
    // be reported gone down by the next full pass while still in range.
    DTN_REQUIRE(a < b && b < n_nodes,
                "contacts: snapshot pair is not two distinct node ids");
    const NodePair p{static_cast<std::size_t>(a), static_cast<std::size_t>(b)};
    DTN_REQUIRE(current_.empty() || current_.back() < p,
                "contacts: snapshot pairs repeated or out of order");
    current_.push_back(p);
  }
  if (in.version() >= 3) {
    slack_ = in.f64();
    budget_ = in.f64();
    have_prev_ = in.boolean();
    positions_.clear();
    const std::size_t np = in.count(2 * snapshot::kTagged64Bytes);
    DTN_REQUIRE(np == n_nodes || (np == 0 && current_.empty()),
                "contacts: position array does not fit the fleet");
    positions_.reserve(np);
    for (std::size_t i = 0; i < np; ++i) {
      const double x = in.f64();
      const double y = in.f64();
      positions_.push_back({x, y});
    }
    watch_.clear();
    const std::size_t nw = in.count(2 * snapshot::kTaggedU32Bytes +
                                    snapshot::kTaggedU8Bytes);
    watch_.reserve(nw);
    for (std::size_t i = 0; i < nw; ++i) {
      WatchPair wp;
      wp.i = in.u32();
      wp.j = in.u32();
      wp.in_contact = in.boolean();
      DTN_REQUIRE(wp.i < wp.j && wp.j < n_nodes,
                  "contacts: watch pair is not two distinct node ids");
      DTN_REQUIRE(watch_.empty() ||
                      std::tie(watch_.back().i, watch_.back().j) <
                          std::tie(wp.i, wp.j),
                  "contacts: watch pairs repeated or out of order");
      // A saved stream always flags a watch pair in contact iff it is a
      // contact pair; a flag that disagrees would make the next skip step
      // report churn that never happened.
      DTN_REQUIRE(wp.in_contact == in_contact(wp.i, wp.j),
                  "contacts: watch pair's flag disagrees with the contacts");
      watch_.push_back(wp);
    }
  } else {
    // Pre-kinetic archive: no bookkeeping to resume. Spend the budget so
    // the next update runs a full pass and re-certifies everything.
    slack_ = 0.0;
    budget_ = 0.0;
    have_prev_ = false;
    positions_.clear();
    watch_.clear();
  }
  moved2_ = 0.0;
  grid_.set_cell(range_ + slack_);
  in.end_section();
}

}  // namespace dtn
