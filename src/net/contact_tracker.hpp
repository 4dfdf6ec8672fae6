// Contact tracking: turns per-step node positions into link up/down events.
//
// Two nodes are "in contact" while their distance is within the radio
// range. The tracker diffs the in-range pair set between steps and reports
// the churn; the simulation kernel reacts by establishing/tearing links.
//
// Hot-path design (DESIGN.md §9): the pair sets are flat sorted vectors
// diffed with std::set_difference into reusable buffers, so a steady-state
// update performs no heap allocation. When a per-step motion bound is
// configured (`set_motion_bound`), the tracker additionally skips the grid
// rebuild on steps where the contact set is provably reproducible without
// one. Each full grid pass runs at radius `range + slack` and splits the
// enumerated pairs in two:
//   * pairs within `±slack/2` of the range boundary become *watch pairs*
//     — few in practice — whose exact contact predicate is re-evaluated
//     against current positions every skipped step;
//   * every other pair is at least `slack/2` (and, measured exactly, at
//     least `budget`) away from the boundary, so it cannot change status
//     until pairwise distances have moved by that margin. Distances move
//     at most twice the largest single-node displacement per step; each
//     skipped step charges that *observed* displacement (not the
//     advertised bound — teleports self-invalidate) against the budget,
//     and a full pass re-certifies everything once it is spent.
//
// The tracker owns the fleet's one position array. The mover writes each
// step's positions into it (`move`), taking the largest displacement in
// the same pass, so no other copy of the positions exists.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/geo/spatial_grid.hpp"
#include "src/geo/vec2.hpp"

namespace dtn {

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

/// Unordered node pair, stored normalized (first < second).
using NodePair = std::pair<std::size_t, std::size_t>;

inline NodePair make_pair_sorted(std::size_t a, std::size_t b) {
  return a < b ? NodePair{a, b} : NodePair{b, a};
}

struct ContactChurn {
  std::vector<NodePair> went_up;    ///< pairs that entered range this step
  std::vector<NodePair> went_down;  ///< pairs that left range this step
};

class ContactTracker {
 public:
  /// `range`: radio range in meters (also the default grid cell size).
  explicit ContactTracker(double range);

  /// Configures kinetic contact skipping from a fleet-wide per-step
  /// motion bound (meters a node can move in one update):
  ///   * bound < 0 or non-finite — skipping disabled; every update runs a
  ///     full grid pass at exactly `range` (a fleet with a model that
  ///     reports no finite speed bound);
  ///   * bound == 0 — stationary fleet; slack is `range` (maximal);
  ///   * bound > 0 — slack is min(range, 32 * bound), i.e. full passes
  ///     are at least ~16 steps apart while the geometry allows it.
  /// Changing the slack invalidates the current budget (the next update
  /// runs a full pass); calling with an unchanged bound is a no-op, so a
  /// restored tracker keeps its checkpointed budget.
  void set_motion_bound(double bound);

  /// Moves the fleet for the next update: writes `next(i)`, node i's new
  /// position, over its old one for every i < n, and takes the largest
  /// displacement in the same pass. Nodes new to the array moved
  /// arbitrarily far, so the next update runs a full pass.
  template <typename Next>
  void move(std::size_t n, Next&& next) {
    double max_d2 = positions_.size() == n
                        ? 0.0
                        : std::numeric_limits<double>::infinity();
    positions_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 p = next(i);
      max_d2 = std::max(max_d2, distance2(positions_[i], p));
      positions_[i] = p;
    }
    moved2_ = max_d2;
  }

  /// Processes one movement step at `positions()`; returns the link churn.
  /// Pair lists are sorted, so downstream processing is deterministic.
  /// The returned reference and the `current()` view stay valid until the
  /// next update.
  const ContactChurn& update();

  /// `move` to `positions`, then `update` (tests and tools).
  const ContactChurn& update(const std::vector<Vec2>& positions) {
    move(positions.size(),
         [&positions](std::size_t i) { return positions[i]; });
    return update();
  }

  /// The fleet's positions as of the last update, indexed by node id;
  /// empty before the first.
  const std::vector<Vec2>& positions() const { return positions_; }

  /// Pairs currently in contact (sorted ascending).
  const std::vector<NodePair>& current() const { return current_; }

  bool in_contact(std::size_t a, std::size_t b) const {
    const NodePair p = make_pair_sorted(a, b);
    return std::binary_search(current_.begin(), current_.end(), p);
  }

  double range() const { return range_; }

  /// The spatial index backing full passes (introspection for tests).
  const SpatialGrid& grid() const { return grid_; }

  /// Pre-sizes the grid and position/pair buffers for an `n`-node fleet
  /// so the first full passes do not grow them inside the step loop.
  void reserve_nodes(std::size_t n) {
    grid_.reserve_nodes(n);
    positions_.reserve(n);
    next_.reserve(n);
    current_.reserve(n);
  }

  /// Diagnostics: how many updates ran a full grid pass vs. were skipped
  /// on the kinetic bound.
  std::size_t update_count() const { return updates_; }
  std::size_t full_pass_count() const { return full_passes_; }

  /// Snapshot/restore. The in-contact pair set is semantic state (hashed
  /// into digests); the kinetic bookkeeping (slack, remaining budget,
  /// last-seen positions) is derived-but-deterministic and is carried
  /// only in buffered checkpoints so a restored run skips the same steps
  /// an uninterrupted one does. `load_state` throws PreconditionError
  /// unless every contact and watch pair names two node ids below
  /// `n_nodes`, first below second, each list is strictly ascending, each
  /// watch pair is flagged in contact iff it is a contact pair, and the
  /// position array holds `n_nodes` entries, or none while no pair is in
  /// contact (the fault layer indexes it by the contacts' node ids before
  /// the next move refills it).
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in, std::size_t n_nodes);

 private:
  /// A pair near the range boundary, re-checked exactly on skip steps.
  struct WatchPair {
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    bool in_contact = false;  ///< classification as of the last update
  };

  /// Skip step: re-checks the watch set exactly and applies its churn.
  void recheck_watch();
  /// Full pass: rebuilds the grid, re-derives the contact and watch sets
  /// and re-certifies the kinetic budget.
  void full_pass();

  double range_;
  double slack_ = 0.0;    ///< extra grid radius; 0 = skipping disabled
  double budget_ = 0.0;   ///< remaining motion (m) before a pass is due
  bool have_prev_ = false;
  SpatialGrid grid_;
  std::vector<NodePair> current_;  ///< sorted
  std::vector<NodePair> next_;     ///< scratch (full pass / churn apply)
  ContactChurn churn_;             ///< reused between updates
  std::vector<Vec2> positions_;    ///< as of the last update (or move)
  double moved2_ = 0.0;  ///< largest squared move since the last update
  std::vector<WatchPair> watch_;   ///< sorted by (i, j)
  std::size_t updates_ = 0;
  std::size_t full_passes_ = 0;
  std::vector<SpatialGrid::PairHit> hits_;  ///< full-pass candidates, reused
};

}  // namespace dtn
