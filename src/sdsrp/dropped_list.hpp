// Dropped-list gossip (paper Fig. 5): the distributed structure from which
// d_i(T_i) — the number of nodes that have dropped message i — is estimated.
//
// Every node maintains one *own* record {node id, set of dropped message
// ids, record time}; only the owning node may modify it, stamping the
// record time whenever a new drop occurs in its buffer. Nodes exchange all
// records they carry when they meet, and resolve conflicts by keeping the
// record with the newest record time per owner. A node also rejects
// re-receiving a message that is in its own dropped record, which prevents
// the same node's drop being counted twice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/flat_table.hpp"

namespace dtn::snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace dtn::snapshot

namespace dtn::sdsrp {

/// One node's drop record as gossiped through the network. Records are
/// immutable once stored and shared between nodes: a gossip merge adopts
/// the pointer, and the owner replaces its own record (copy-on-write)
/// rather than editing it. The ids are strictly ascending, so a save
/// writes them as-is, with no copy or sort.
struct DropRecord {
  std::vector<std::uint64_t> dropped;  ///< message ids, strictly ascending
  double record_time = -1.0;           ///< stamped by the owner only
};

class DroppedList {
 public:
  explicit DroppedList(std::size_t owner) : owner_(owner) {}

  std::size_t owner() const { return owner_; }

  /// The owner dropped `msg` at time `now`: updates the own record and its
  /// record time (the only mutation allowed on the own record).
  void record_local_drop(std::uint64_t msg, double now);

  /// True if this node itself dropped `msg` before (receive-rejection).
  bool has_own_drop(std::uint64_t msg) const;

  /// Gossip merge: adopt every record of `other` that is newer than the
  /// local copy of the same owner's record. The own record is never
  /// overwritten by gossip (only the owner modifies it, and its local copy
  /// is by construction the newest). Returns true if any record was
  /// adopted — i.e. d̂ estimates may have changed and priority memos
  /// keyed on them must be invalidated.
  bool merge_from(const DroppedList& other);

  /// d̂_i: number of known node records containing `msg`.
  double count_drops(std::uint64_t msg) const;

  /// Forgets `msg` from all records (e.g. after TTL expiry, the drop no
  /// longer needs tracking). Does not bump record times.
  void forget_message(std::uint64_t msg);

  std::size_t known_records() const { return records_.size(); }

  /// Snapshot/restore: serializes all known records in canonical (owner)
  /// order; the counts_ index is rebuilt on load. load_state rejects a
  /// stream whose owners or ids are not strictly ascending (a repeated
  /// owner would otherwise inflate d̂).
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

 private:
  struct Known {
    std::size_t owner;
    std::shared_ptr<const DropRecord> record;  ///< never null
  };

  void index_add(const DropRecord& rec);
  void index_replace(const DropRecord& old_rec, const DropRecord& new_rec);

  std::size_t owner_;
  std::vector<Known> records_;  ///< strictly ascending by owner
  /// Aggregated index: message id -> number of records containing it.
  /// Kept in sync by record/merge/forget so count_drops is one probe of a
  /// flat table — it is evaluated once per priority computation, the
  /// simulator's hottest path under SDSRP, and a gossip merge updates it
  /// once per id that differs between two records. An id whose count
  /// falls to 0 stays as a key (count_drops reads 0 either way), so a
  /// decrement leaves no tombstone behind.
  FlatTable<int> counts_;
};

}  // namespace dtn::sdsrp
