// Online estimation of the pairwise intermeeting-time mean E(I) and rate
// λ = 1/E(I) (paper Definitions 1-2 and Eq. 3).
//
// Each node keeps, per peer, the end time of the last contact; when a new
// contact with that peer starts, the elapsed gap is one intermeeting
// event. The estimator is distributed — it only uses contacts the node
// itself observed, so its state is one entry per peer met: a flat vector
// sorted by peer id (a binary search per contact event, and a save walks
// it in order with no sort).
//
// Estimation mode (see DESIGN.md §4):
//   * kCensoredMle (default): the exponential-MLE with right-censoring,
//     λ̂ = events / total exposure, where exposure includes the *open*
//     intervals of peers that have not re-met yet. A plain average of
//     observed gaps is biased low — long intermeeting times do not
//     complete within the observation window, so only short gaps are
//     sampled ("length-biased sampling"). In the paper's Table II scenario
//     the naive mean underestimates E(I) several-fold, which saturates the
//     exp term of Eq. 10 and inverts the priority ordering; the MLE
//     removes the bias (the estimator ablation quantifies this).
//   * kNaiveMean: the plain average of completed gaps, matching a literal
//     reading of the paper's Fig. 3 fit.
//
// Before `min_samples` completed events the estimator falls back to a
// configurable prior.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/stats.hpp"

namespace dtn::snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace dtn::snapshot

namespace dtn::sdsrp {

enum class ImtEstimatorMode {
  kCensoredMle,
  kNaiveMean,
};

class IntermeetingEstimator {
 public:
  /// `prior_mean`: E(I) assumed until min_samples completed events exist.
  explicit IntermeetingEstimator(double prior_mean = 30000.0,
                                 std::size_t min_samples = 4,
                                 ImtEstimatorMode mode =
                                     ImtEstimatorMode::kCensoredMle);

  /// Records that a contact with `peer` began at `now`; harvests an
  /// intermeeting event if a previous contact end is known. Peer ids are
  /// node ids: below 2^32.
  void on_contact_start(std::size_t peer, double now);

  /// Records that the current contact with `peer` ended at `now`.
  void on_contact_end(std::size_t peer, double now);

  /// E(I): estimated mean pairwise intermeeting time at time `now`
  /// (`now` only matters in censored-MLE mode, where open intervals
  /// accrue exposure).
  double mean_intermeeting(double now) const;

  /// λ = 1 / E(I).
  double lambda(double now) const { return 1.0 / mean_intermeeting(now); }

  /// λ_min = (N-1) λ (Eq. 3); E(I_min) = E(I)/(N-1).
  double lambda_min(double now, std::size_t n_nodes) const;
  double mean_min_intermeeting(double now, std::size_t n_nodes) const;

  /// Time of the most recent contact (start or end) with `peer`;
  /// negative infinity if the peer was never met. Used by Spray-and-Focus.
  double last_contact(std::size_t peer) const;

  std::size_t samples() const { return stats_.count(); }
  bool warmed_up() const { return stats_.count() >= min_samples_; }
  ImtEstimatorMode mode() const { return mode_; }

  /// Snapshot/restore of the full estimator state (configuration fields
  /// are construction parameters and are verified, not overwritten). The
  /// stream holds two ascending peer lists: the open peers with their last
  /// contact end, then every peer with its last contact. `load_state`
  /// throws PreconditionError unless both lists are strictly ascending,
  /// the open count matches the first, and every open peer is in the
  /// second.
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

 private:
  /// One peer this node has met. `last_end` is meaningful while `open`:
  /// the peer's last contact ended and it has not been met again.
  struct Peer {
    double last_seen = 0.0;  ///< last contact start or end
    double last_end = 0.0;   ///< end of the last contact (open only)
    std::uint32_t id = 0;
    bool open = false;
  };

  /// The entry for `peer`, inserted (closed, never seen) if absent.
  Peer& find_or_insert(std::size_t peer);

  double prior_mean_;
  std::size_t min_samples_;
  ImtEstimatorMode mode_;
  dtn::RunningStats stats_;          ///< completed intermeeting gaps
  double closed_exposure_ = 0.0;     ///< sum of completed gaps
  std::size_t open_count_ = 0;       ///< peers waiting to re-meet
  double open_since_sum_ = 0.0;      ///< Σ last_end over open intervals
  std::vector<Peer> peers_;          ///< sorted by id
};

}  // namespace dtn::sdsrp
