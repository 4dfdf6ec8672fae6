#include "src/core/message_arena.hpp"

#include <utility>

#include "src/util/error.hpp"

namespace dtn {

MessageArena::Handle MessageArena::take_slot() {
  if (!free_list_.empty()) {
    const Handle h = free_list_.back();
    free_list_.pop_back();
    return h;
  }
  const Handle h = next_++;
  DTN_REQUIRE(h != kNullHandle, "MessageArena: handle space exhausted");
  if ((h >> kSlabShift) >= slabs_.size()) {
    slabs_.push_back(std::make_unique<Message[]>(kSlabMask + 1u));
  }
  live_.push_back(0);
  return h;
}

MessageArena::Handle MessageArena::alloc(Message&& m) {
  DTN_REQUIRE(m.size > 0, "MessageArena: message size must be positive");
  const Handle h = take_slot();
  Message& slot = get(h);
  // Keep the retired tenant's spray_times capacity when the newcomer has
  // no lineage of its own (fresh traffic) — spray appends later in the
  // run then reuse it instead of growing a new vector.
  std::vector<SimTime> recycled = std::move(slot.spray_times);
  slot = std::move(m);
  if (slot.spray_times.capacity() < recycled.capacity()) {
    recycled.clear();
    for (SimTime t : slot.spray_times) recycled.push_back(t);
    slot.spray_times = std::move(recycled);
  }
  live_[h] = 1;
  ++live_count_;
  live_bytes_ += slot.size;
  ++total_allocs_;
  return h;
}

Message MessageArena::release(Handle h) {
  DTN_REQUIRE(is_live(h), "MessageArena: release of dead handle");
  Message& slot = get(h);
  Message out = std::move(slot);
  live_[h] = 0;
  --live_count_;
  live_bytes_ -= out.size;
  ++total_frees_;
  free_list_.push_back(h);
  return out;
}

void MessageArena::free(Handle h) {
  DTN_REQUIRE(is_live(h), "MessageArena: free of dead handle");
  Message& slot = get(h);
  slot.spray_times.clear();  // keep capacity for the next tenant
  live_[h] = 0;
  --live_count_;
  live_bytes_ -= slot.size;
  ++total_frees_;
  free_list_.push_back(h);
}

void MessageArena::reserve(std::size_t n) {
  const std::size_t slabs = (n + kSlabMask) >> kSlabShift;
  while (slabs_.size() < slabs) {
    slabs_.push_back(std::make_unique<Message[]>(kSlabMask + 1u));
  }
  if (live_.capacity() < n) live_.reserve(n);
  if (free_list_.capacity() < n) free_list_.reserve(n);
}

}  // namespace dtn
