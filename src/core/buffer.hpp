// Buffer: a node's byte-limited message store.
//
// Storage order is arrival order (FIFO policies depend on it). The buffer
// itself never decides *what* to drop — admission control with
// policy-driven eviction lives in Node::admit (Algorithm 1 of the paper).
//
// The buffer owns its residents in one vector (a Table II buffer holds at
// most ten copies). Its byte count is written through to the World's
// NodeHotState when the buffer belongs to a World node (hot != nullptr),
// so try_start's first screen reads one array instead of a Node.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/hot_state.hpp"
#include "src/core/message.hpp"
#include "src/core/types.hpp"

namespace dtn {

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

/// Serializes one Message (all fields, including the spray-time lineage).
void save_message(snapshot::ArchiveWriter& out, const Message& m);
Message load_message(snapshot::ArchiveReader& in);

class Buffer {
 public:
  /// `hot`/`owner` bind the byte count to a NodeHotState row; pass
  /// nullptr (tests, standalone construction) to keep it local.
  Buffer(std::int64_t capacity_bytes, NodeHotState* hot = nullptr,
         NodeId owner = 0);

  std::int64_t capacity() const { return capacity_; }
  std::int64_t used() const {
    return hot_ != nullptr ? hot_->buffer_used[owner_] : used_local_;
  }
  std::int64_t free() const { return capacity_ - used(); }
  std::size_t count() const { return messages_.size(); }
  bool empty() const { return messages_.empty(); }
  /// Occupancy in [0,1].
  double occupancy() const;

  /// Monotonic membership-change counter: bumped by every insert/remove
  /// (and by load_state). Memoized views keyed by it (the per-node
  /// send-order snapshot) go stale the moment membership churns. In-place
  /// field mutation through find()/messages() does NOT bump it — such
  /// changes must be signalled via PriorityCache::invalidate.
  std::uint64_t revision() const { return revision_; }

  bool has(MessageId id) const;
  /// Pointer to the resident, or nullptr. Valid until the next insert or
  /// removal in this buffer.
  Message* find(MessageId id);
  const Message* find(MessageId id) const;

  /// Inserts if it fits; returns false (and leaves the buffer unchanged)
  /// if free() < m.size. Duplicate ids are a precondition violation.
  bool try_insert(Message m);

  /// Removes and returns the message; precondition: it exists.
  Message take(MessageId id);

  /// Messages in arrival order.
  const std::vector<Message>& messages() const { return messages_; }

  /// Snapshot/restore: arrival order is preserved bit-for-bit (FIFO
  /// policies depend on it); capacity is verified, not overwritten.
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

 private:
  void set_used(std::int64_t v) {
    if (hot_ != nullptr) {
      hot_->buffer_used[owner_] = v;
    } else {
      used_local_ = v;
    }
  }

  NodeHotState* hot_;
  NodeId owner_;
  std::int64_t capacity_;
  std::int64_t used_local_ = 0;
  std::uint64_t revision_ = 0;
  std::vector<Message> messages_;  ///< arrival order
};

}  // namespace dtn
