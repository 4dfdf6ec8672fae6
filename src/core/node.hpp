// Node: a DTN host — mobility + radio + buffer + routing + per-node SDSRP
// state (intermeeting estimator and dropped-list record).
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/buffer.hpp"
#include "src/core/buffer_policy.hpp"
#include "src/core/message.hpp"
#include "src/core/priority_cache.hpp"
#include "src/core/types.hpp"
#include "src/mobility/mobility_model.hpp"
#include "src/sdsrp/dropped_list.hpp"
#include "src/sdsrp/intermeeting_estimator.hpp"

namespace dtn {

class Router;

/// Per-node knobs for the distributed SDSRP estimators.
struct NodeEstimatorConfig {
  double prior_mean_intermeeting = 30000.0;  ///< E(I) before warm-up (s)
  std::size_t min_intermeeting_samples = 4;  ///< warm-up threshold
  sdsrp::ImtEstimatorMode imt_mode =
      sdsrp::ImtEstimatorMode::kNaiveMean;     ///< see estimator header
};

class Node {
 public:
  /// `hot` binds this node's radio flag and buffer byte count to the
  /// World's NodeHotState (nullptr keeps them in local fallbacks).
  Node(NodeId id, MobilityPtr mobility, std::int64_t buffer_capacity,
       const Router* router, const BufferPolicy* policy,
       const NodeEstimatorConfig& est_cfg = {}, NodeHotState* hot = nullptr);

  NodeId id() const { return id_; }
  MobilityModel& mobility() { return *mobility_; }
  const MobilityModel& mobility() const { return *mobility_; }
  Buffer& buffer() { return buffer_; }
  const Buffer& buffer() const { return buffer_; }
  const Router& router() const { return *router_; }
  const BufferPolicy& policy() const { return *policy_; }

  // --- delivery bookkeeping (this node as destination) ---
  bool has_delivered(MessageId id) const {
    return std::binary_search(delivered_.begin(), delivered_.end(), id);
  }
  void mark_delivered(MessageId id) { insert_sorted(delivered_, id); }

  // --- ACK gossip (optional immunization extension; the paper's setup
  //     explicitly runs *without* this — see WorldConfig::ack_gossip) ---
  bool knows_delivered(MessageId id) const {
    return std::binary_search(known_delivered_.begin(),
                              known_delivered_.end(), id);
  }
  void learn_delivered(MessageId id) { insert_sorted(known_delivered_, id); }
  /// Adopts every id `other` knows delivered (the on-contact exchange).
  void learn_delivered_from(const Node& other);

  // --- SDSRP distributed state ---
  sdsrp::IntermeetingEstimator& intermeeting() { return imt_; }
  const sdsrp::IntermeetingEstimator& intermeeting() const { return imt_; }
  sdsrp::DroppedList& dropped_list() { return dropped_; }
  const sdsrp::DroppedList& dropped_list() const { return dropped_; }

  // --- priority memoization (see priority_cache.hpp) ---
  // The kernel mutates estimator/dropped-list state through these
  // wrappers so every change carries its invalidation signal. Mutating
  // intermeeting()/dropped_list() directly bypasses the cache — fine for
  // tests and cache-off runs, stale otherwise.
  /// Mutable from const contexts: the cache is a memo, not node state.
  PriorityCache& priority_cache() const { return prio_cache_; }
  void note_contact_start(std::size_t peer, SimTime now) {
    imt_.on_contact_start(peer, now);
    prio_cache_.bump_epoch();  // λ changed: every priority is stale
  }
  void note_contact_end(std::size_t peer, SimTime now) {
    imt_.on_contact_end(peer, now);
    prio_cache_.bump_epoch();
  }
  void merge_dropped_from(const Node& other) {
    // d̂ only moves when a record is adopted; bump (and its digest
    // footprint) must not depend on whether caching is enabled, so the
    // merge result alone decides.
    if (dropped_.merge_from(other.dropped_list())) prio_cache_.bump_epoch();
  }
  void record_drop(MessageId id, SimTime now) {
    dropped_.record_local_drop(id, now);
    prio_cache_.invalidate(id);  // only this message's d̂ changed
  }
  /// True if this node itself dropped the message before (receive-reject,
  /// only meaningful when the active policy maintains dropped lists).
  bool has_dropped(MessageId id) const { return dropped_.has_own_drop(id); }

  // --- radio / transfer state (maintained by the kernel) ---
  bool radio_busy() const {
    return hot_ != nullptr ? hot_->radio_busy[id_] != 0 : radio_busy_;
  }
  void set_radio_busy(bool b) {
    if (hot_ != nullptr) {
      hot_->radio_busy[id_] = b ? 1 : 0;
    } else {
      radio_busy_ = b;
    }
  }
  void pin(MessageId id) { pinned_.push_back(id); }
  void unpin(MessageId id);
  bool is_pinned(MessageId id) const;
  const std::vector<MessageId>& pinned() const { return pinned_; }

  // --- admission control (paper Algorithm 1) ---
  struct AdmitResult {
    bool admitted = false;
    std::vector<Message> evicted;  ///< resident messages dropped to fit
  };

  /// Dry run of admit(): would `incoming` be accepted right now?
  /// `newcomer_view`, when given, is the message state the policy rates
  /// the newcomer by (e.g. the sender-side pre-split copy) while byte
  /// accounting still uses `incoming`.
  bool would_admit(const Message& incoming, const PolicyContext& ctx,
                   const Message* newcomer_view = nullptr) const;

  /// Runs the scheduling-and-drop admission: evicts lowest-priority
  /// resident messages (never pinned ones) until `incoming` fits, or
  /// rejects `incoming` when the policy ranks it below every evictable
  /// resident. On success the message is inserted.
  AdmitResult admit(Message incoming, const PolicyContext& ctx,
                    const Message* newcomer_view = nullptr);

  /// Snapshot/restore of everything node-local: mobility, buffer, SDSRP
  /// estimators, delivery bookkeeping, pin list and radio state. `drops`
  /// is the fleet's shared drop-record table (checkpoints, archive v7),
  /// or null to write and read each drop record in full.
  void save_state(snapshot::ArchiveWriter& out,
                  const sdsrp::DropRecordTable* drops) const;
  void load_state(snapshot::ArchiveReader& in, sdsrp::DropRecordTable* drops);

 private:
  /// Shared victim-selection loop; `victims` receives resident victims in
  /// eviction order. Returns true if `incoming` would be admitted.
  bool plan_admission(const Message& incoming, const PolicyContext& ctx,
                      const Message* newcomer_view,
                      std::vector<MessageId>* victims) const;
  /// Inserts `id` into the ascending id set `ids` unless present.
  static void insert_sorted(std::vector<MessageId>& ids, MessageId id) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id) ids.insert(it, id);
  }

  NodeId id_;
  NodeHotState* hot_;  ///< World hot-state arrays, or nullptr standalone
  MobilityPtr mobility_;
  Buffer buffer_;
  const Router* router_;
  const BufferPolicy* policy_;
  sdsrp::IntermeetingEstimator imt_;
  sdsrp::DroppedList dropped_;
  // Delivered-id sets: ascending, so a save writes them as they lie.
  // Most nodes hold none; a flat vector costs nothing until the first id.
  std::vector<MessageId> delivered_;
  std::vector<MessageId> known_delivered_;
  std::vector<MessageId> pinned_;
  bool radio_busy_ = false;
  mutable PriorityCache prio_cache_;
};

}  // namespace dtn
