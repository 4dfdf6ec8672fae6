// Buffer: a node's byte-limited message store.
//
// Storage order is arrival order (FIFO policies depend on it). The buffer
// itself never decides *what* to drop — admission control with
// policy-driven eviction lives in Node::admit (Algorithm 1 of the paper).
//
// Residents live in the World's MessageArena; the buffer itself is a
// span of stable 32-bit handles (DESIGN.md §14), so inserts and removals
// shuffle 4-byte indices instead of whole Message objects, and every
// copy in the fleet sits in shared slab storage. Byte accounting and the
// revision counter are mirrored into the World's NodeHotState SoA block
// when the buffer belongs to a World node (hot != nullptr), letting the
// occupancy/idle phases stream arrays instead of chasing Node pointers.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/hot_state.hpp"
#include "src/core/message.hpp"
#include "src/core/message_arena.hpp"
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
  using Handle = MessageArena::Handle;

  /// `hot`/`owner` bind the byte/revision mirrors to a NodeHotState row;
  /// pass nullptr (tests, standalone construction) to keep them local.
  Buffer(std::int64_t capacity_bytes, MessageArena& arena,
         NodeHotState* hot = nullptr, NodeId owner = 0);
  ~Buffer();
  Buffer(Buffer&& other) noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer& operator=(Buffer&&) = delete;

  /// Arrival-ordered read view over the residents; range-for compatible,
  /// dereferencing resolves handles through the arena.
  class View {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Message;
      using difference_type = std::ptrdiff_t;
      using pointer = const Message*;
      using reference = const Message&;
      iterator(const Handle* p, const MessageArena* arena)
          : p_(p), arena_(arena) {}
      const Message& operator*() const { return arena_->get(*p_); }
      const Message* operator->() const { return &arena_->get(*p_); }
      iterator& operator++() {
        ++p_;
        return *this;
      }
      bool operator==(const iterator& o) const { return p_ == o.p_; }
      bool operator!=(const iterator& o) const { return p_ != o.p_; }

     private:
      const Handle* p_;
      const MessageArena* arena_;
    };

    std::size_t size() const { return handles_->size(); }
    bool empty() const { return handles_->empty(); }
    const Message& operator[](std::size_t i) const {
      return arena_->get((*handles_)[i]);
    }
    iterator begin() const { return iterator(handles_->data(), arena_); }
    iterator end() const {
      return iterator(handles_->data() + handles_->size(), arena_);
    }

   private:
    friend class Buffer;
    View(const std::vector<Handle>* handles, const MessageArena* arena)
        : handles_(handles), arena_(arena) {}
    const std::vector<Handle>* handles_;
    const MessageArena* arena_;
  };

  std::int64_t capacity() const { return capacity_; }
  std::int64_t used() const {
    return hot_ != nullptr ? hot_->buffer_used[owner_] : used_local_;
  }
  std::int64_t free() const { return capacity_ - used(); }
  std::size_t count() const { return handles_.size(); }
  bool empty() const { return handles_.empty(); }
  /// Occupancy in [0,1].
  double occupancy() const;

  /// Monotonic membership-change counter: bumped by every insert/remove
  /// (and by load_state). Memoized views keyed by it (the per-node
  /// send-order snapshot) go stale the moment membership churns. In-place
  /// field mutation through find()/messages() does NOT bump it — such
  /// changes must be signalled via PriorityCache::invalidate.
  std::uint64_t revision() const {
    return hot_ != nullptr ? hot_->buffer_rev[owner_] : rev_local_;
  }

  bool has(MessageId id) const;
  /// Pointer into the arena, or nullptr. Stays valid until this message
  /// itself is removed (handles are stable under other inserts/removals).
  Message* find(MessageId id);
  const Message* find(MessageId id) const;

  /// Inserts if it fits; returns false (and leaves the buffer unchanged)
  /// if free() < m.size. Duplicate ids are a precondition violation.
  bool try_insert(Message m);

  /// Removes and returns the message; precondition: it exists.
  Message take(MessageId id);

  /// Messages in arrival order.
  View messages() const { return View(&handles_, arena_); }

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
  void bump_revision() {
    if (hot_ != nullptr) {
      ++hot_->buffer_rev[owner_];
    } else {
      ++rev_local_;
    }
  }
  void set_revision(std::uint64_t r) {
    if (hot_ != nullptr) {
      hot_->buffer_rev[owner_] = r;
    } else {
      rev_local_ = r;
    }
  }

  MessageArena* arena_;
  NodeHotState* hot_;
  NodeId owner_;
  std::int64_t capacity_;
  std::int64_t used_local_ = 0;
  std::uint64_t rev_local_ = 0;
  std::vector<Handle> handles_;  ///< arrival order
};

}  // namespace dtn
