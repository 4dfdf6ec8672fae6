// Fault injection: deterministic, seeded node churn, mid-transfer link
// aborts and per-node radio degradation.
//
// The paper evaluates SDSRP under ideal radios and always-on nodes; the
// DTN deployments that motivate buffer management (disaster relief,
// rural connectivity) are exactly the ones with failing nodes. A
// FaultPlan compiles a scenario's `Fault.*` keys into a schedule of
// discrete fault events:
//   * node churn — each participating node alternates exponentially
//     distributed up/down intervals; while down its radio is off (no
//     contacts, no transfers, no traffic sourced) and, optionally, its
//     buffer is purged when it reboots;
//   * link aborts — a global Poisson process of interference events,
//     each killing one uniformly chosen in-flight transfer;
//   * radio degradation — per-node Poisson windows during which the
//     node's effective range and/or bitrate are scaled down.
//
// Determinism: the plan owns a dedicated RNG stream (forked from the
// scenario seed, tag 0xFA00FA) and draws from it only inside `pop_due`, whose
// pop order is fixed by the total (at, kind, node) event key — so a run
// with faults is exactly as reproducible as one without, the stream is
// isolated from mobility/traffic randomness (toggling faults does not
// perturb them), and checkpointing the stream plus the pending event
// heap (archive v4) makes a restore mid-outage replay bit-identically.
//
// The plan is pure bookkeeping: it flips its own availability flags and
// schedules successor events; every side effect on the simulation
// (tearing links, aborting transfers, purging buffers, stats) is applied
// by the World, which drains `pop_due` once per step, before it turns
// the step's link changes into events — so every fault side effect goes
// through the same handlers as geometric churn.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/types.hpp"
#include "src/util/rng.hpp"

namespace dtn {

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

/// Scenario-level fault model knobs (`Fault.*` settings keys). All rates
/// are per hour; all durations/means in seconds. Defaults describe a
/// fault-free world, so `FaultConfig{}` is valid and inert.
struct FaultConfig {
  bool enabled = false;
  /// Fraction of nodes subject to churn (Bernoulli per node, drawn from
  /// the fault stream in node-id order at compile time).
  double churn_fraction = 0.0;
  double mean_up_s = 3600.0;    ///< exponential mean up-time
  double mean_down_s = 300.0;   ///< exponential mean down-time
  /// Reboot semantics: true = the buffer is lost when a node comes back
  /// up (cold storage), false = contents survive the outage (disk).
  bool reboot_purge = false;
  /// Global Poisson rate of interference events, each aborting one
  /// uniformly chosen in-flight transfer (no-op when none are active).
  double link_abort_rate_per_hour = 0.0;
  /// Per-node Poisson arrival rate of degradation windows.
  double degrade_rate_per_hour = 0.0;
  double degrade_duration_s = 600.0;
  /// Scale factors applied to the node's radio while degraded, in (0,1].
  double degrade_range_factor = 1.0;
  double degrade_bitrate_factor = 1.0;

  /// True when any fault mechanism can ever fire.
  bool any_active() const {
    return enabled &&
           (churn_fraction > 0.0 || link_abort_rate_per_hour > 0.0 ||
            degrade_rate_per_hour > 0.0);
  }

  /// Throws PreconditionError on out-of-range values.
  void validate() const;
};

class FaultPlan {
 public:
  enum class Kind : std::uint8_t {
    kNodeDown = 0,
    kNodeUp = 1,
    kLinkAbort = 2,
    kDegradeStart = 3,
    kDegradeEnd = 4,
  };

  /// One fault occurrence, handed to the World for side effects.
  struct Event {
    SimTime at = 0.0;
    Kind kind = Kind::kNodeDown;
    NodeId node = kNoNode;       ///< kNoNode for kLinkAbort
    double down_duration = 0.0;  ///< kNodeUp only: at - down time
  };

  /// Compiles the initial schedule; draws from the fault stream in a
  /// fixed order (churn participation per node, then first arrivals).
  FaultPlan(const FaultConfig& cfg, std::size_t n_nodes, std::uint64_t seed);

  const FaultConfig& config() const { return cfg_; }
  std::size_t node_count() const { return up_.size(); }

  bool is_up(NodeId id) const { return up_[id]; }
  bool is_degraded(NodeId id) const { return degraded_[id]; }
  double range_factor(NodeId id) const {
    return degraded_[id] ? cfg_.degrade_range_factor : 1.0;
  }
  double bitrate_factor(NodeId id) const {
    return degraded_[id] ? cfg_.degrade_bitrate_factor : 1.0;
  }
  std::size_t down_count() const { return down_count_; }
  std::size_t degraded_count() const { return degraded_count_; }

  /// Pops the next event due at or before `now`, applies its *internal*
  /// state transition (availability flags, successor scheduling, RNG
  /// draws) and returns true with `*out` filled; returns false when no
  /// event is due. The caller applies all simulation side effects.
  bool pop_due(SimTime now, Event* out);

  /// Uniform pick among `n` in-flight transfers (kLinkAbort side effect;
  /// kept here so the draw comes from the fault stream).
  std::size_t pick_index(std::size_t n);

  /// Snapshot/restore of the complete plan state: RNG stream,
  /// availability/degradation flags, outage start times and the pending
  /// event heap (serialized sorted on the total event key, so the bytes
  /// — and digests — are canonical regardless of heap layout).
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

 private:
  void push(SimTime at, Kind kind, NodeId node);
  void schedule_initial();
  /// Exponential holding time with the given mean (guarded: mean > 0).
  double holding(double mean_s);

  FaultConfig cfg_;
  Rng rng_;
  std::vector<Event> heap_;  ///< min-heap on (at, kind, node)
  std::vector<std::uint8_t> up_;        ///< availability flag per node
  std::vector<std::uint8_t> degraded_;  ///< degradation flag per node
  std::vector<double> down_since_;      ///< outage start (valid while down)
  std::size_t down_count_ = 0;
  std::size_t degraded_count_ = 0;
};

}  // namespace dtn
