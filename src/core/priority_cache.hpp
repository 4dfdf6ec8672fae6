// PriorityCache: per-node memoization of scheduling/drop priorities.
//
// Under SDSRP every scheduling and drop decision re-derives the Eq. 10
// priority — spray-tree m̂ (Eq. 15), dropped-list d̂ and the intermeeting
// mean — for every candidate message, on every active contact, every
// step. The inputs, however, only change on discrete events: a copy-count
// change / spray-time append (`Router::on_sent`), a local drop record, a
// dropped-list gossip merge, or an intermeeting-estimator update. This
// cache stores `(priority, computed_at)` per message id between those
// events.
//
// Invalidation is epoch/dirty:
//   * `bump_epoch()` — a node-wide input changed (estimator update,
//     dropped-list merge): every entry and the send-order snapshot die.
//     The epoch counter itself is part of the node's semantic state and
//     is serialized into snapshots and digests.
//   * `invalidate(id)` — a single message's input changed (copies,
//     spray lineage, its drop count): that entry and the send-order
//     snapshot die.
//   * the `priority_refresh_s` time quantum — priorities also decay
//     continuously with time (remaining TTL, censored-MLE λ); an entry
//     older than the quantum is recomputed. At `priority_refresh_s = 0`
//     an entry is only reused within the same instant it was computed,
//     which makes the cached path decision-identical to the uncached one
//     (the priority functions are pure in (message, node state, now)).
//
// The send-order snapshot memoizes the peer-independent part of
// `SprayAndWaitRouter::next_to_send` — the policy-sorted spray candidate
// list — keyed additionally by the buffer revision so membership churn
// invalidates it.
//
// Cached values are a pure function of serialized state, so digests
// (`ArchiveWriter::Mode::kDigestOnly`) hash only the epoch; checkpoint
// bytes additionally carry the entries so a restored run replays
// bit-identically to an uninterrupted one at any refresh quantum.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/types.hpp"

namespace dtn {

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

class PriorityCache {
 public:
  std::uint64_t epoch() const { return epoch_; }

  /// Monotonic change counter: advances on every `bump_epoch()` AND every
  /// `invalidate(id)`. Together with `Buffer::revision()` it fingerprints
  /// "any priority input of this node may have changed" — `World` keys
  /// its per-contact idle memo (the cached "nothing to send" verdict of
  /// `try_start`) on it. Bumps happen unconditionally (cached or not), so
  /// the counter is identical across cached and uncached runs and is safe
  /// to hash into digests.
  std::uint64_t stamp() const { return stamp_; }

  /// Node-wide invalidation: clears every entry and the order snapshot.
  void bump_epoch();

  /// Per-message invalidation; also drops the order snapshot (the
  /// message's rank may have changed).
  void invalidate(MessageId id);

  /// Drops all cached state without advancing the epoch (snapshot load).
  void clear_transient();

  /// True and `*out` filled if a value computed within `refresh_s` of
  /// `now` is cached for `id`.
  bool lookup(MessageId id, SimTime now, double refresh_s,
              double* out) const;
  void store(MessageId id, SimTime now, double priority);

  /// The memoized send order, or nullptr when it is missing/stale.
  const std::vector<MessageId>* send_order(SimTime now, double refresh_s,
                                           std::uint64_t buffer_revision) const;
  void store_send_order(std::vector<MessageId> ids, SimTime now,
                        std::uint64_t buffer_revision);

  std::size_t entry_count() const { return entries_.size(); }

  /// Snapshot/restore. The epoch is always written (it is semantic
  /// state); the entries are written only to buffered archives — a
  /// digest-only pass skips them so cached and uncached runs of the same
  /// trajectory hash identically.
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

 private:
  struct Entry {
    double priority = 0.0;
    SimTime computed_at = 0.0;
  };

  std::uint64_t epoch_ = 0;
  std::uint64_t stamp_ = 0;
  std::unordered_map<MessageId, Entry> entries_;

  std::vector<MessageId> order_;
  SimTime order_at_ = 0.0;
  std::uint64_t order_rev_ = 0;
  bool order_valid_ = false;
};

}  // namespace dtn
