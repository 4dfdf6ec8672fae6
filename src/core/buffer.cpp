#include "src/core/buffer.hpp"

#include <algorithm>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

Buffer::Buffer(std::int64_t capacity_bytes, MessageArena& arena,
               NodeHotState* hot, NodeId owner)
    : arena_(&arena), hot_(hot), owner_(owner), capacity_(capacity_bytes) {
  DTN_REQUIRE(capacity_bytes > 0, "Buffer: capacity must be positive");
}

Buffer::~Buffer() {
  for (Handle h : handles_) arena_->free(h);
}

double Buffer::occupancy() const {
  return capacity_ > 0
             ? static_cast<double>(used()) / static_cast<double>(capacity_)
             : 0.0;
}

bool Buffer::has(MessageId id) const { return find(id) != nullptr; }

Message* Buffer::find(MessageId id) {
  for (Handle h : handles_) {
    Message& m = arena_->get(h);
    if (m.id == id) return &m;
  }
  return nullptr;
}

const Message* Buffer::find(MessageId id) const {
  return const_cast<Buffer*>(this)->find(id);
}

void Buffer::refresh_hot(MessageId id) {
  for (Handle h : handles_) {
    if (arena_->get(h).id == id) {
      arena_->sync_copies(h);
      return;
    }
  }
}

bool Buffer::try_insert(Message m) {
  DTN_REQUIRE(!has(m.id), "Buffer: duplicate message id");
  DTN_REQUIRE(m.size > 0, "Buffer: message size must be positive");
  if (m.size > free()) return false;
  set_used(used() + m.size);
  bump_revision();
  handles_.push_back(arena_->alloc(std::move(m)));
  return true;
}

Message Buffer::take(MessageId id) {
  const auto it = std::find_if(
      handles_.begin(), handles_.end(),
      [this, id](Handle h) { return arena_->get(h).id == id; });
  DTN_REQUIRE(it != handles_.end(), "Buffer: take of absent message");
  Message out = arena_->release(*it);
  handles_.erase(it);
  set_used(used() - out.size);
  bump_revision();
  return out;
}

void save_message(snapshot::ArchiveWriter& out, const Message& m) {
  out.u64(m.id);
  out.u32(m.source);
  out.u32(m.destination);
  out.i64(m.size);
  out.f64(m.created);
  out.f64(m.ttl);
  out.i64(m.initial_copies);
  out.i64(m.copies);
  out.i64(m.hops);
  out.i64(m.forwards);
  out.f64(m.received);
  out.u64(m.spray_times.size());
  for (SimTime t : m.spray_times) out.f64(t);
}

Message load_message(snapshot::ArchiveReader& in) {
  Message m;
  m.id = in.u64();
  m.source = in.u32();
  m.destination = in.u32();
  m.size = in.i64();
  m.created = in.f64();
  m.ttl = in.f64();
  m.initial_copies = static_cast<int>(in.i64());
  m.copies = static_cast<int>(in.i64());
  m.hops = static_cast<int>(in.i64());
  m.forwards = static_cast<int>(in.i64());
  m.received = in.f64();
  const std::size_t n_spray = in.count(snapshot::kTagged64Bytes);
  m.spray_times.reserve(n_spray);
  for (std::size_t i = 0; i < n_spray; ++i) m.spray_times.push_back(in.f64());
  return m;
}

void Buffer::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("buffer");
  out.i64(capacity_);
  // The revision counter is derived-but-deterministic (one bump per
  // membership change), so it is digest-safe; restoring it keeps
  // revision-keyed memo snapshots valid across checkpoint/restore.
  out.u64(revision());
  out.u64(handles_.size());
  for (Handle h : handles_) save_message(out, arena_->get(h));
  out.end_section();
}

void Buffer::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("buffer");
  const std::int64_t capacity = in.i64();
  DTN_REQUIRE(capacity == capacity_,
              "buffer: snapshot capacity does not match this world");
  if (in.version() >= 2) {
    set_revision(in.u64());
  } else {
    // v1 predates the counter; restart it. Every revision-keyed memo is
    // also cleared on load, so nothing holds a stale revision.
    set_revision(0);
  }
  for (Handle h : handles_) arena_->free(h);
  handles_.clear();
  std::int64_t used = 0;
  // A message's fixed fields (save_message): nine 64-bit values, two node
  // ids and the spray-time count.
  const std::size_t n = in.count(10 * snapshot::kTagged64Bytes +
                                 2 * snapshot::kTaggedU32Bytes);
  handles_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Message m = load_message(in);
    used += m.size;
    handles_.push_back(arena_->alloc(std::move(m)));
  }
  set_used(used);
  DTN_REQUIRE(used <= capacity_, "buffer: snapshot overflows capacity");
  in.end_section();
}

std::vector<Message> Buffer::purge_expired(
    SimTime now, const std::vector<MessageId>& pinned) {
  std::vector<Message> removed;
  auto is_pinned = [&pinned](MessageId id) {
    return std::find(pinned.begin(), pinned.end(), id) != pinned.end();
  };
  std::size_t keep = 0;
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    const Handle h = handles_[i];
    const Message& m = arena_->get(h);
    if (m.expired(now) && !is_pinned(m.id)) {
      set_used(used() - m.size);
      bump_revision();
      removed.push_back(arena_->release(h));
    } else {
      handles_[keep++] = h;  // compact, preserving arrival order
    }
  }
  handles_.resize(keep);
  return removed;
}

}  // namespace dtn
