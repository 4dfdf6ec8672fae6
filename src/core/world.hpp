// World: the discrete-step DTN simulation kernel.
//
// Each step of `step_s` seconds the kernel: moves every node, diffs the
// in-range pair set into link up/down events, finishes transfers whose
// transmission time elapsed, creates scheduled traffic, expires TTLs, and
// starts new transfers on idle links. This mirrors the ONE simulator's
// world model (sampled movement, range connectivity, finite-bandwidth
// serial transfers, byte-capacity buffers).
//
// Determinism: given a seed and a fixed configuration, every run produces
// identical results — all iteration orders are explicitly sorted and all
// randomness flows from explicitly forked Rng streams.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "src/core/buffer_policy.hpp"
#include "src/core/hot_state.hpp"
#include "src/core/idle_table.hpp"
#include "src/core/message_generator.hpp"
#include "src/core/node.hpp"
#include "src/core/observer.hpp"
#include "src/core/oracle.hpp"
#include "src/core/router.hpp"
#include "src/core/sim_stats.hpp"
#include "src/core/types.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/net/contact_tracker.hpp"
#include "src/util/units.hpp"

namespace dtn {

struct WorldConfig {
  double step = 1.0;          ///< movement/connectivity sampling period (s)
  double duration = 18000.0;  ///< total simulated time (s)
  double range = 100.0;       ///< radio range (m)
  double bandwidth = units::kbps(250);  ///< link speed (bytes/s)
  bool collect_intermeeting = false;    ///< record pairwise samples (Fig. 3)
  double occupancy_sample_interval = 60.0;  ///< s between occupancy samples
  /// Immunization extension (off by default — the paper's evaluation runs
  /// without any acknowledgment mechanism): destinations seed an
  /// "already delivered" set that nodes exchange on contact; holders
  /// purge copies of delivered messages and refuse new ones.
  bool ack_gossip = false;
  /// Priority memoization (DESIGN.md §8): cache-safe policies reuse
  /// computed priorities and per-node send orders between invalidation
  /// events instead of re-deriving them per contact per step.
  bool priority_cache = true;
  /// Staleness quantum for pure time decay (remaining TTL, censored-MLE
  /// λ): a cached priority older than this is recomputed. 0 restricts
  /// reuse to the same instant, making cached runs decision-identical to
  /// uncached ones (`World::digest()`-provable); the default trades ≤15 s
  /// of TTL-decay staleness for the hot-path speedup. The quantum also
  /// bounds how long an idle contact pair may be skipped outright.
  double priority_refresh_s = 15.0;
  /// Inert: every step runs one serial body; parallelism lives across
  /// runs (DESIGN.md §6, §11). Carries the `Parallel.threads` scenario
  /// key so scenario text and checkpoints round-trip unchanged.
  std::size_t threads = 0;
  /// Per-phase wall-clock accounting (PhaseProfile, bench support). Off
  /// by default: the step loop carries zero timing overhead.
  bool profile_phases = false;
};

/// Cumulative wall-clock seconds per step phase (profile_phases only);
/// `steps` counts every step() call.
struct PhaseProfile {
  double mobility_s = 0.0;   ///< mobility advance
  double contacts_s = 0.0;   ///< tracker update + link churn
  double events_s = 0.0;     ///< completions + traffic
  double ttl_s = 0.0;        ///< TTL purge
  double prewarm_s = 0.0;    ///< inert, always 0 (kept for existing readers)
  double transfers_s = 0.0;  ///< start_transfers
  double dispatch_s = 0.0;   ///< inert, always 0 (kept for existing readers)
  std::uint64_t steps = 0;
};

/// An in-flight message transmission.
struct Transfer {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  MessageId msg = 0;
  SimTime started = 0.0;
  SimTime eta = 0.0;
  /// In-run creation order; identifies this transfer in the completion
  /// heap (an aborted transfer leaves a stale heap entry whose seq no
  /// longer matches). Derived state: not serialized, reassigned on load.
  std::uint64_t seq = 0;
};

class World {
 public:
  explicit World(const WorldConfig& cfg);

  // --- setup (call before adding nodes / running) ---
  void set_router(std::unique_ptr<Router> router);
  void set_policy(std::unique_ptr<BufferPolicy> policy);
  /// Adds a node; returns its id (assigned densely from 0).
  NodeId add_node(MobilityPtr mobility, std::int64_t buffer_capacity,
                  const NodeEstimatorConfig& est_cfg = {});
  /// Enables the periodic traffic source.
  void enable_traffic(const MessageGenConfig& cfg, std::uint64_t seed);
  /// Enables fault injection (node churn, link aborts, radio degradation).
  /// Call after adding every node and before the first step; a validated
  /// but inert config (no mechanism can ever fire) is a no-op, keeping
  /// the fault-free hot path untouched.
  void enable_faults(const FaultConfig& cfg, std::uint64_t seed);

  /// Registers a report observer (non-owning; must outlive the world).
  /// Observers fire in registration order.
  void add_observer(WorldObserver* observer);

  // --- execution ---
  void step();
  void run_until(SimTime t);
  void run();  ///< until cfg.duration

  /// Creates a message directly in its source's buffer (tests, examples).
  /// Returns false if the source's admission control rejected it.
  bool inject_message(Message m);

  // --- inspection ---
  SimTime now() const { return now_; }
  const WorldConfig& config() const { return cfg_; }
  std::size_t node_count() const { return nodes_.size(); }
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  const SimStats& stats() const { return stats_; }
  const GlobalRegistry& registry() const { return registry_; }
  const ContactTracker& contacts() const { return tracker_; }
  const std::vector<Transfer>& transfers_in_flight() const { return transfers_; }
  const Router& router() const { return *router_; }
  const BufferPolicy& policy() const { return *policy_; }
  /// The active fault plan, or nullptr when fault injection is off.
  const FaultPlan* faults() const { return fault_.get(); }
  /// Links usable this step: the geometric contact set, minus pairs
  /// severed by the fault layer (an endpoint down, or a degraded radio
  /// whose shrunken range no longer covers the distance).
  const std::vector<NodePair>& active_contacts() const {
    return fault_ != nullptr ? live_contacts_ : tracker_.current();
  }
  /// Pairwise intermeeting samples (only when collect_intermeeting).
  const std::vector<double>& intermeeting_samples() const {
    return imt_samples_;
  }
  /// Contact duration samples (only when collect_intermeeting).
  const std::vector<double>& contact_duration_samples() const {
    return contact_samples_;
  }

  /// Context used for policy evaluation at `n`'s buffer.
  PolicyContext ctx_for(const Node& n) const;

  /// Cumulative per-phase wall clock (only populated when
  /// cfg.profile_phases; zeros otherwise).
  const PhaseProfile& phase_profile() const { return profile_; }

  // --- snapshot / digest ---
  /// Serializes the complete dynamic state (time, nodes, contacts,
  /// in-flight transfers, traffic schedule, registry, stats, router and
  /// policy state). The structure — node count, capacities, router/policy
  /// identity — is NOT serialized; restore into a world built from the
  /// same configuration (see snapshot/checkpoint.hpp).
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

  /// FNV-1a digest over the canonical serialized state. Two worlds with
  /// equal digests are (up to hash collision) in identical states; a
  /// deterministic run produces an identical digest trajectory every time.
  std::uint64_t digest() const;

 private:
  /// A scheduled TTL expiry (event-driven purge). Entries are lazily
  /// invalidated: a message that was dropped, forwarded away or purged
  /// leaves a stale entry that is discarded when popped.
  struct ExpiryEvent {
    SimTime expiry = 0.0;
    NodeId node = kNoNode;
    MessageId msg = 0;
  };
  /// A scheduled transfer completion. Valid while `outgoing_[from]`
  /// points at a transfer with the same seq (aborts tombstone entries).
  struct EtaEvent {
    SimTime eta = 0.0;
    NodeId from = kNoNode;
    std::uint64_t seq = 0;
  };
  /// Min-heap comparators (std::push_heap et al. expect "less", so these
  /// order *after*); ties break on the full key for determinism.
  static bool expiry_after(const ExpiryEvent& a, const ExpiryEvent& b);
  static bool eta_after(const EtaEvent& a, const EtaEvent& b);

  void advance_mobility();
  void process_link_down(const NodePair& p);
  void process_link_up(const NodePair& p);
  void abort_transfers_on(const NodePair& p);
  void abort_transfer_from(NodeId from, NodeId to);
  void complete_due_transfers();
  void handle_completion(const Transfer& t);
  void generate_traffic();
  /// Creates `m` at its source: counts and registers it, then admits it
  /// (recording the evictions) or books the loss — a down source, or a
  /// rejection the dropped list records. Shared by generate_traffic and
  /// inject_message. Returns whether the source admitted it.
  bool admit_at_source(Message&& m);
  void purge_ttl();
  void start_transfers();
  void try_start(NodeId from, NodeId to);
  void handle_drop(Node& n, const Message& m);
  void sample_occupancy();
  // --- fault layer (all no-ops unless fault_ is set) ---
  /// Drains fault events due this step and applies their side effects
  /// (transfer aborts, downtime accounting, reboot purges).
  void apply_fault_events();
  /// Aborts the (at most one — the radio serializes) transfer `id`
  /// participates in, counting it as fault-induced.
  void abort_faulted_transfer_of(NodeId id);
  /// Reboot with `Fault.rebootPurge`: the buffer is lost.
  void purge_on_reboot(Node& n);
  /// Filters the geometric contact set through node availability and
  /// degraded radio ranges into `out`.
  void compute_live_contacts(std::vector<NodePair>& out) const;
  /// Recomputes the live set and turns its diff against the previous one
  /// into link down/up events (replaces the raw tracker churn).
  void refresh_live_contacts();
  /// ACK gossip: removes unpinned copies of known-delivered messages.
  void purge_acked(Node& n);
  /// Computes the fleet-wide per-step motion bound from the mobility
  /// models and hands it to the contact tracker, and sizes the grid and
  /// contact buffers for the fleet (once, lazily, on the first step — all
  /// nodes exist by then). Per-node state is not reserved: it grows on
  /// use, and the steady-state step loop allocates nothing once it has.
  void configure_kinetics();
  /// Swap-pop removal of `from`'s outgoing transfer, keeping the
  /// `outgoing_` index consistent. O(1); vector order is not meaningful.
  void remove_transfer(NodeId from);
  void push_expiry(NodeId node, SimTime expiry, MessageId msg);
  /// Reconstructs outgoing_/heaps/seqs from restored transfers+buffers.
  void rebuild_event_queues();
  /// Message copies the fleet's buffers hold (the v5 hint).
  std::uint64_t copies_held() const;

  template <typename Fn>
  void notify(Fn&& fn) {
    for (WorldObserver* o : observers_) fn(*o);
  }

  WorldConfig cfg_;
  SimTime now_ = 0.0;
  std::vector<WorldObserver*> observers_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<BufferPolicy> policy_;
  /// try_start's first screen: radio flags and buffer byte counts.
  NodeHotState hot_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Non-owning mobility pointers parallel to nodes_: the per-step
  /// advance loop streams over these without chasing Node objects.
  std::vector<MobilityModel*> mobility_raw_;
  ContactTracker tracker_;
  /// Active transfers, unordered (swap-pop removal). At most one per
  /// sender — try_start serializes on the radio — so `outgoing_` below
  /// indexes this vector by sender id. Serialization sorts by sender so
  /// archives and digests do not depend on removal history.
  std::vector<Transfer> transfers_;
  std::unique_ptr<MessageGenerator> gen_;
  std::unique_ptr<FaultPlan> fault_;
  /// Fault-filtered contact set (sorted; valid only when fault_ is set).
  /// Derived state: recomputed from the tracker + plan flags on restore.
  std::vector<NodePair> live_contacts_;
  std::vector<NodePair> live_scratch_;
  GlobalRegistry registry_;
  SimStats stats_;
  SimTime next_occupancy_sample_ = 0.0;

  // --- event-driven core (DESIGN.md §9) ---
  std::vector<std::int64_t> outgoing_;  ///< node id -> transfers_ index | -1
  std::uint64_t transfer_seq_ = 0;
  std::vector<EtaEvent> eta_heap_;        ///< min-heap on (eta, from, seq)
  std::vector<ExpiryEvent> expiry_heap_;  ///< min-heap (expiry, node, msg)
  std::vector<ExpiryEvent> expiry_deferred_;  ///< purge scratch (pinned)
  bool kinetics_configured_ = false;

  // --- step-loop scratch, hoisted so a steady-state step allocates
  // nothing (asserted in test_step_loop) ---
  std::vector<Message> traffic_scratch_;   ///< generate_traffic: poll output
  std::vector<NodeId> fault_senders_;      ///< apply_fault_events: sorted view
  std::vector<MessageId> doomed_scratch_;  ///< purge_acked / purge_on_reboot
  /// Candidate selection's lists, lent to routers, policies and nodes
  /// through every ctx_for context (buffer_policy.hpp).
  mutable SchedulingScratch scheduling_scratch_;
  PhaseProfile profile_;

  /// Keyed by the *directional* (from, to) pair, unlike the sorted
  /// NodePair convention elsewhere; serialization iterates in sorted key
  /// order (see idle_table.hpp), byte-identical to the former std::map.
  IdleTable idle_memo_;

  // Fig. 3 collection: per-pair last contact end / start.
  std::map<NodePair, double> pair_last_end_;
  std::map<NodePair, double> pair_up_since_;
  std::vector<double> imt_samples_;
  std::vector<double> contact_samples_;
};

}  // namespace dtn
