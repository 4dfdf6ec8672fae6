// StepOracle: a brute-force reference for World's step loop.
//
// The event-driven core keeps contacts, TTL expiries and transfer
// completions incrementally (DESIGN.md §9): a kinetic contact tracker,
// an expiry heap and an ETA heap. Attached to a world as an observer,
// this oracle re-derives each of them from scratch at the end of every
// step and records every disagreement:
//   * `contacts().current()` is exactly the set of pairs whose distance²
//     is within range², measured at the nodes' own positions;
//   * no unpinned copy has outlived its TTL (`Message::expired(now)`).
//     A pinned copy is in flight and dies when its transfer ends;
//   * no transfer that started before this step is still in flight once
//     due (`eta <= now + 1e-9`);
//   * this step's completions arrived in ascending (eta, from) order.
// It costs O(N²) per step, so tests attach it to small fleets only.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/observer.hpp"
#include "src/core/world.hpp"
#include "src/geo/vec2.hpp"

namespace dtn {

class StepOracle final : public WorldObserver {
 public:
  void on_transfer_completed(const Transfer& t, bool /*delivered*/) override {
    completed_.emplace_back(t.eta, t.from);
  }

  void on_step_end(const World& w) override {
    ++steps_;
    const SimTime now = w.now();
    check_contacts(w);
    for (NodeId id = 0; id < w.node_count(); ++id) {
      const Node& n = w.node(id);
      for (const Message& m : n.buffer().messages()) {
        if (m.expired(now) && !n.is_pinned(m.id)) {
          fail(now) << "node " << id << " holds copy " << m.id
                    << " past its expiry " << m.expiry();
        }
      }
    }
    for (const Transfer& t : w.transfers_in_flight()) {
      if (t.started < now && t.eta <= now + 1e-9) {
        fail(now) << "transfer " << t.from << "->" << t.to << " due at "
                  << t.eta << " is still in flight";
      }
    }
    for (std::size_t i = 1; i < completed_.size(); ++i) {
      if (!(completed_[i - 1] < completed_[i])) {
        fail(now) << "completion (eta " << completed_[i].first << ", from "
                  << completed_[i].second << ") arrived after (eta "
                  << completed_[i - 1].first << ", from "
                  << completed_[i - 1].second << ")";
      }
    }
    completed_.clear();
  }

  /// Steps observed so far.
  std::size_t steps() const { return steps_; }
  /// Disagreements found so far.
  std::size_t violations() const { return violations_; }
  /// The first disagreements, one per line.
  std::string report() const { return report_.str(); }

 private:
  static constexpr std::size_t kReported = 8;

  /// Counts one violation and returns the stream that describes it (a
  /// throwaway one past the first kReported).
  std::ostream& fail(SimTime now) {
    ++violations_;
    if (violations_ > kReported) {
      discard_.str("");
      return discard_;
    }
    report_ << "\n  t=" << now << ": ";
    return report_;
  }

  void check_contacts(const World& w) {
    const std::size_t n = w.node_count();
    positions_.clear();
    for (NodeId id = 0; id < n; ++id) {
      positions_.push_back(w.node(id).mobility().position());
    }
    const double r2 = w.config().range * w.config().range;
    expected_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (distance2(positions_[i], positions_[j]) <= r2) {
          expected_.emplace_back(i, j);
        }
      }
    }
    if (expected_ != w.contacts().current()) {
      fail(w.now()) << "tracker holds " << w.contacts().current().size()
                    << " contact pairs, brute force finds "
                    << expected_.size();
    }
  }

  std::size_t steps_ = 0;
  std::size_t violations_ = 0;
  std::ostringstream report_;
  std::ostringstream discard_;
  std::vector<std::pair<SimTime, NodeId>> completed_;
  std::vector<Vec2> positions_;
  std::vector<NodePair> expected_;
};

}  // namespace dtn
