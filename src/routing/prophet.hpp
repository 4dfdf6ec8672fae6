// PRoPHET routing (Lindgren et al., "Probabilistic routing in
// intermittently connected networks"): each node maintains a delivery
// predictability P(a,b) per destination, updated on encounters
// (P += (1-P)·P_init), aged over time (P *= γ^(Δt/unit)) and propagated
// transitively (P(a,c) += (1-P(a,c))·P(a,b)·P(b,c)·β). A message is
// replicated to a peer whose predictability for its destination exceeds
// the sender's.
//
// Included as the probabilistic-forwarding baseline of the paper's
// related work (its refs [19], [20] build Spray-and-Wait variants on
// delivery predictability).
#pragma once

#include <unordered_map>

#include "src/core/router.hpp"

namespace dtn {

struct ProphetConfig {
  double p_init = 0.75;      ///< encounter bump
  double beta = 0.25;        ///< transitivity weight
  double gamma = 0.98;       ///< aging factor per aging unit
  double aging_unit = 30.0;  ///< seconds per aging step
};

/// One node's predictability table.
class ProphetTable {
 public:
  ProphetTable() = default;

  /// Ages every entry from the last update time to `now`.
  void age(const ProphetConfig& cfg, SimTime now);

  /// Encounter update for `peer` plus transitive update through the
  /// peer's (pre-encounter) table snapshot.
  void on_encounter(const ProphetConfig& cfg, NodeId peer,
                    const std::unordered_map<NodeId, double>& peer_snapshot,
                    SimTime now);

  double predictability(NodeId dest) const;
  const std::unordered_map<NodeId, double>& entries() const { return p_; }

  /// Snapshot/restore of the table (entries sorted by destination id).
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

 private:
  std::unordered_map<NodeId, double> p_;
  SimTime last_age_ = 0.0;
};

class ProphetRouter final : public Router {
 public:
  explicit ProphetRouter(const ProphetConfig& cfg = {}) : cfg_(cfg) {}

  const char* name() const override { return "prophet"; }

  /// Encounter bookkeeping: symmetric table updates, exactly once per
  /// established contact.
  void on_link_up(const Node& a, const Node& b, SimTime now) const override;

  std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer,
      const PolicyContext& ctx) const override;

  bool on_sent(Message& copy, bool delivered, SimTime now) const override;

  void write_relay_copy(const Message& sender_copy, SimTime now,
                        Message& relay) const override;

  /// Current (aged) predictability of node `owner` for `dest`.
  double predictability(NodeId owner, NodeId dest, SimTime now) const;

  void save_state(snapshot::ArchiveWriter& out) const override;
  void load_state(snapshot::ArchiveReader& in) override;

 private:
  ProphetConfig cfg_;
  /// Router-owned per-node tables (Node stays routing-agnostic). The
  /// router object belongs to exactly one single-threaded World.
  mutable std::unordered_map<NodeId, ProphetTable> tables_;
};

}  // namespace dtn
