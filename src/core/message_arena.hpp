// MessageArena: slab-pooled storage for every Message copy in a World.
//
// Per-node buffers used to own their copies in a std::vector<Message>
// each — at 100k nodes that is 100k independently growing heaps of
// pointer-chased storage. The arena packs all copies into fixed-size
// slabs addressed by stable 32-bit handles: a buffer becomes a span of
// handle indices, insertion/removal never moves other residents'
// storage, and a freed slot is recycled LIFO (its spray_times capacity
// included) so the steady-state step loop performs no heap allocation.
//
// Handles are stable for the lifetime of the allocation: slabs are never
// reallocated or compacted, so Message* obtained through get() stays
// valid until the handle is freed — the same invalidation contract
// Buffer::find() always had (insert/remove of *other* messages no longer
// invalidates, which is strictly weaker).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/message.hpp"

namespace dtn {

class MessageArena {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNullHandle = 0xFFFFFFFFu;

  MessageArena() = default;
  MessageArena(const MessageArena&) = delete;
  MessageArena& operator=(const MessageArena&) = delete;

  /// Moves `m` into a slot and returns its handle. Recycles the youngest
  /// freed slot first; the freed slot's spray_times capacity is kept when
  /// the incoming message brings none of its own.
  Handle alloc(Message&& m);

  /// Moves the message out and frees the slot.
  Message release(Handle h);

  /// Frees the slot in place (content is cleared lazily on reuse).
  void free(Handle h);

  Message& get(Handle h) {
    return slabs_[h >> kSlabShift][h & kSlabMask];
  }
  const Message& get(Handle h) const {
    return slabs_[h >> kSlabShift][h & kSlabMask];
  }
  bool is_live(Handle h) const {
    return h < live_.size() && live_[h] != 0;
  }

  /// Pre-sizes slabs, flags and the free list for `n` total slots so
  /// reaching that population allocates nothing inside the step loop.
  void reserve(std::size_t n);

  // --- accounting (fuzzed in test_message_arena) ---
  std::size_t live_count() const { return live_count_; }
  std::int64_t live_bytes() const { return live_bytes_; }
  std::size_t free_count() const { return free_list_.size(); }
  /// Total slots ever created == live_count() + free_count().
  std::size_t high_water() const { return next_; }
  std::uint64_t total_allocs() const { return total_allocs_; }
  std::uint64_t total_frees() const { return total_frees_; }
  std::size_t slab_count() const { return slabs_.size(); }

 private:
  static constexpr std::uint32_t kSlabShift = 12;  ///< 4096 slots per slab
  static constexpr std::uint32_t kSlabMask = (1u << kSlabShift) - 1u;

  Handle take_slot();

  std::vector<std::unique_ptr<Message[]>> slabs_;
  std::vector<Handle> free_list_;      ///< LIFO recycling
  std::vector<std::uint8_t> live_;     ///< per-slot liveness, size next_
  std::uint32_t next_ = 0;             ///< first never-used handle
  std::size_t live_count_ = 0;
  std::int64_t live_bytes_ = 0;
  std::uint64_t total_allocs_ = 0;
  std::uint64_t total_frees_ = 0;
};

}  // namespace dtn
