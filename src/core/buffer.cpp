#include "src/core/buffer.hpp"

#include <algorithm>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

Buffer::Buffer(std::int64_t capacity_bytes, NodeHotState* hot, NodeId owner)
    : hot_(hot), owner_(owner), capacity_(capacity_bytes) {
  DTN_REQUIRE(capacity_bytes > 0, "Buffer: capacity must be positive");
}

double Buffer::occupancy() const {
  return capacity_ > 0
             ? static_cast<double>(used()) / static_cast<double>(capacity_)
             : 0.0;
}

bool Buffer::has(MessageId id) const { return find(id) != nullptr; }

Message* Buffer::find(MessageId id) {
  for (Message& m : messages_) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

const Message* Buffer::find(MessageId id) const {
  return const_cast<Buffer*>(this)->find(id);
}

bool Buffer::try_insert(Message m) {
  DTN_REQUIRE(!has(m.id), "Buffer: duplicate message id");
  DTN_REQUIRE(m.size > 0, "Buffer: message size must be positive");
  if (m.size > free()) return false;
  set_used(used() + m.size);
  ++revision_;
  messages_.push_back(std::move(m));
  return true;
}

Message Buffer::take(MessageId id) {
  const auto it =
      std::find_if(messages_.begin(), messages_.end(),
                   [id](const Message& m) { return m.id == id; });
  DTN_REQUIRE(it != messages_.end(), "Buffer: take of absent message");
  Message out = std::move(*it);
  messages_.erase(it);
  set_used(used() - out.size);
  ++revision_;
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
  out.u64(revision_);
  out.u64(messages_.size());
  for (const Message& m : messages_) save_message(out, m);
  out.end_section();
}

void Buffer::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("buffer");
  const std::int64_t capacity = in.i64();
  DTN_REQUIRE(capacity == capacity_,
              "buffer: snapshot capacity does not match this world");
  // v1 predates the counter; restart it. Every revision-keyed memo is
  // also cleared on load, so nothing holds a stale revision.
  const std::uint64_t revision = in.version() >= 2 ? in.u64() : 0;
  messages_.clear();
  set_used(0);
  // A message's fixed fields (save_message): nine 64-bit values, two node
  // ids and the spray-time count.
  const std::size_t n = in.count(10 * snapshot::kTagged64Bytes +
                                 2 * snapshot::kTaggedU32Bytes);
  messages_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // try_insert's rules hold for a restore too: a repeated id would
    // restore two residents under one id, both counted in used() and
    // only the first reachable by take().
    DTN_REQUIRE(try_insert(load_message(in)),
                "buffer: snapshot overflows capacity");
  }
  revision_ = revision;
  in.end_section();
}

}  // namespace dtn
