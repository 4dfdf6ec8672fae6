#include "src/core/priority_cache.hpp"

#include <algorithm>

#include "src/snapshot/archive.hpp"

namespace dtn {

void PriorityCache::bump_epoch() {
  ++epoch_;
  ++stamp_;
  entries_.clear();
  order_valid_ = false;
}

void PriorityCache::invalidate(MessageId id) {
  ++stamp_;
  entries_.erase(id);
  order_valid_ = false;
}

void PriorityCache::clear_transient() {
  entries_.clear();
  order_.clear();
  order_valid_ = false;
}

bool PriorityCache::lookup(MessageId id, SimTime now, double refresh_s,
                           double* out) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  if (now - it->second.computed_at > refresh_s) return false;
  *out = it->second.priority;
  return true;
}

void PriorityCache::store(MessageId id, SimTime now, double priority) {
  entries_[id] = Entry{priority, now};
}

const std::vector<MessageId>* PriorityCache::send_order(
    SimTime now, double refresh_s, std::uint64_t buffer_revision) const {
  if (!order_valid_) return nullptr;
  if (buffer_revision != order_rev_) return nullptr;
  if (now - order_at_ > refresh_s) return nullptr;
  return &order_;
}

void PriorityCache::store_send_order(std::vector<MessageId> ids, SimTime now,
                                     std::uint64_t buffer_revision) {
  order_ = std::move(ids);
  order_at_ = now;
  order_rev_ = buffer_revision;
  order_valid_ = true;
}

void PriorityCache::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("prio-cache");
  out.u64(epoch_);
  out.u64(stamp_);  // deterministic (bumps are unconditional): digest-safe
  // The memo itself is a pure function of serialized state, so a
  // digest-only pass skips it: cached and uncached runs of one trajectory
  // hash identically. Buffered archives carry it so a restored run
  // continues bit-identically to an uninterrupted one even when the
  // refresh quantum would have let stale-but-valid values survive.
  if (!out.digest_only()) {
    std::vector<MessageId> ids;
    ids.reserve(entries_.size());
    for (const auto& [id, e] : entries_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    out.u64(ids.size());
    for (MessageId id : ids) {
      const Entry& e = entries_.at(id);
      out.u64(id);
      out.f64(e.priority);
      out.f64(e.computed_at);
    }
    out.boolean(order_valid_);
    if (order_valid_) {
      out.f64(order_at_);
      out.u64(order_rev_);
      out.u64(order_.size());
      for (MessageId id : order_) out.u64(id);
    }
  }
  out.end_section();
}

void PriorityCache::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("prio-cache");
  epoch_ = in.u64();
  stamp_ = in.u64();
  clear_transient();
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const MessageId id = in.u64();
    Entry e;
    e.priority = in.f64();
    e.computed_at = in.f64();
    entries_.emplace(id, e);
  }
  order_valid_ = in.boolean();
  if (order_valid_) {
    order_at_ = in.f64();
    order_rev_ = in.u64();
    const std::size_t n_order = in.count(snapshot::kTagged64Bytes);
    order_.reserve(n_order);
    for (std::size_t i = 0; i < n_order; ++i) order_.push_back(in.u64());
  }
  in.end_section();
}

}  // namespace dtn
