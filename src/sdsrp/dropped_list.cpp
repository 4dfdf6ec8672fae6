#include "src/sdsrp/dropped_list.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn::sdsrp {

namespace {

/// First entry of an owner-sorted record list whose owner is not below
/// `owner`.
template <class Records>
auto find_owner(Records& records, std::size_t owner) {
  return std::lower_bound(
      records.begin(), records.end(), owner,
      [](const auto& known, std::size_t o) { return known.owner < o; });
}

}  // namespace

void DroppedList::index_add(const DropRecord& rec) {
  for (std::uint64_t msg : rec.dropped) ++counts_[msg];
}

void DroppedList::index_replace(const DropRecord& old_rec,
                                const DropRecord& new_rec) {
  // Both id lists ascend: walk them together so only the ids that are in
  // one record and not the other touch the index.
  auto o = old_rec.dropped.begin();
  auto n = new_rec.dropped.begin();
  const auto o_end = old_rec.dropped.end();
  const auto n_end = new_rec.dropped.end();
  while (o != o_end || n != n_end) {
    if (n == n_end || (o != o_end && *o < *n)) {
      if (int* count = counts_.find(*o++)) --*count;
    } else if (o == o_end || *n < *o) {
      ++counts_[*n++];
    } else {
      ++o;
      ++n;
    }
  }
}

void DroppedList::record_local_drop(std::uint64_t msg, double now) {
  const auto it = find_owner(records_, owner_);
  const bool known = it != records_.end() && it->owner == owner_;
  // Copy-on-write: nodes that heard the current record keep sharing it.
  auto next = known ? std::make_shared<DropRecord>(*it->record)
                    : std::make_shared<DropRecord>();
  const auto at =
      std::lower_bound(next->dropped.begin(), next->dropped.end(), msg);
  if (at == next->dropped.end() || *at != msg) {
    next->dropped.insert(at, msg);
    ++counts_[msg];
  }
  next->record_time = now;
  if (known) {
    it->record = std::move(next);
  } else {
    records_.insert(it, Known{owner_, std::move(next)});
  }
}

bool DroppedList::has_own_drop(std::uint64_t msg) const {
  const auto it = find_owner(records_, owner_);
  return it != records_.end() && it->owner == owner_ &&
         std::binary_search(it->record->dropped.begin(),
                            it->record->dropped.end(), msg);
}

bool DroppedList::merge_from(const DroppedList& other) {
  // One pass over both owner lists: adopt the newer records of owners
  // already known and count the owners that are not.
  bool changed = false;
  std::size_t unknown = 0;
  auto mine = records_.begin();
  for (const Known& theirs : other.records_) {
    if (theirs.owner == owner_) continue;  // only the owner writes it
    while (mine != records_.end() && mine->owner < theirs.owner) ++mine;
    if (mine == records_.end() || mine->owner != theirs.owner) {
      ++unknown;
    } else if (mine->record != theirs.record &&
               theirs.record->record_time > mine->record->record_time) {
      index_replace(*mine->record, *theirs.record);
      mine->record = theirs.record;
      changed = true;
    }
  }
  if (unknown == 0) return changed;

  // New owners (met early in a run): splice their records in, in order.
  std::vector<Known> merged;
  merged.reserve(records_.size() + unknown);
  mine = records_.begin();
  for (const Known& theirs : other.records_) {
    if (theirs.owner == owner_) continue;
    while (mine != records_.end() && mine->owner < theirs.owner) {
      merged.push_back(std::move(*mine++));
    }
    if (mine != records_.end() && mine->owner == theirs.owner) continue;
    index_add(*theirs.record);
    merged.push_back(theirs);
  }
  merged.insert(merged.end(), std::make_move_iterator(mine),
                std::make_move_iterator(records_.end()));
  records_ = std::move(merged);
  return true;
}

double DroppedList::count_drops(std::uint64_t msg) const {
  const int* count = counts_.find(msg);
  return count != nullptr ? static_cast<double>(*count) : 0.0;
}

void DroppedList::forget_message(std::uint64_t msg) {
  for (Known& known : records_) {
    const std::vector<std::uint64_t>& ids = known.record->dropped;
    const auto it = std::lower_bound(ids.begin(), ids.end(), msg);
    if (it == ids.end() || *it != msg) continue;
    // Copy before erasing: other nodes may share this record.
    auto copy = std::make_shared<DropRecord>(*known.record);
    copy->dropped.erase(copy->dropped.begin() + (it - ids.begin()));
    known.record = std::move(copy);
  }
  counts_.erase(msg);
}

void DroppedList::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("dropped-list");
  out.u64(owner_);
  out.u64(records_.size());
  for (const Known& known : records_) {
    const DropRecord& rec = *known.record;
    out.u64(known.owner);
    out.f64(rec.record_time);
    out.u64(rec.dropped.size());
    for (std::uint64_t m : rec.dropped) out.u64(m);
  }
  out.end_section();
}

void DroppedList::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("dropped-list");
  const auto owner = static_cast<std::size_t>(in.u64());
  DTN_REQUIRE(owner == owner_, "dropped-list: snapshot belongs to another node");
  records_.clear();
  counts_.clear();
  const std::uint64_t n_records = in.u64();
  for (std::uint64_t i = 0; i < n_records; ++i) {
    const auto node = static_cast<std::size_t>(in.u64());
    // Owners are saved strictly ascending; a repeat would be indexed
    // twice into counts_ and break the owner-sorted lookups.
    DTN_REQUIRE(i == 0 || node > records_.back().owner,
                "dropped-list: owners repeated or out of order");
    auto rec = std::make_shared<DropRecord>();
    rec->record_time = in.f64();
    const std::uint64_t n_msgs = in.u64();
    for (std::uint64_t j = 0; j < n_msgs; ++j) {
      const std::uint64_t msg = in.u64();
      DTN_REQUIRE(rec->dropped.empty() || msg > rec->dropped.back(),
                  "dropped-list: message ids not strictly ascending");
      rec->dropped.push_back(msg);
    }
    index_add(*rec);
    records_.push_back(Known{node, std::move(rec)});
  }
  in.end_section();
}

}  // namespace dtn::sdsrp
