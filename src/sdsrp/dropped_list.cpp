#include "src/sdsrp/dropped_list.hpp"

#include <algorithm>
#include <vector>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn::sdsrp {

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
      const auto it = counts_.find(*o++);
      if (it != counts_.end() && --it->second <= 0) counts_.erase(it);
    } else if (o == o_end || *n < *o) {
      ++counts_[*n++];
    } else {
      ++o;
      ++n;
    }
  }
}

void DroppedList::record_local_drop(std::uint64_t msg, double now) {
  DropRecord& own = records_[owner_];
  const auto it = std::lower_bound(own.dropped.begin(), own.dropped.end(), msg);
  if (it == own.dropped.end() || *it != msg) {
    own.dropped.insert(it, msg);
    ++counts_[msg];
  }
  own.record_time = now;
}

bool DroppedList::has_own_drop(std::uint64_t msg) const {
  const auto it = records_.find(owner_);
  return it != records_.end() &&
         std::binary_search(it->second.dropped.begin(),
                            it->second.dropped.end(), msg);
}

bool DroppedList::merge_from(const DroppedList& other) {
  bool changed = false;
  for (const auto& [node, rec] : other.records_) {
    if (node == owner_) continue;  // only the owner writes the own record
    auto it = records_.find(node);
    if (it == records_.end()) {
      records_.emplace(node, rec);
      index_add(rec);
      changed = true;
    } else if (rec.record_time > it->second.record_time) {
      index_replace(it->second, rec);
      it->second = rec;
      changed = true;
    }
  }
  return changed;
}

double DroppedList::count_drops(std::uint64_t msg) const {
  const auto it = counts_.find(msg);
  return it != counts_.end() ? static_cast<double>(it->second) : 0.0;
}

void DroppedList::forget_message(std::uint64_t msg) {
  for (auto& [node, rec] : records_) {
    const auto it = std::lower_bound(rec.dropped.begin(), rec.dropped.end(), msg);
    if (it != rec.dropped.end() && *it == msg) rec.dropped.erase(it);
  }
  counts_.erase(msg);
}

void DroppedList::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("dropped-list");
  out.u64(owner_);
  std::vector<std::size_t> owners;
  owners.reserve(records_.size());
  for (const auto& [node, rec] : records_) owners.push_back(node);
  std::sort(owners.begin(), owners.end());
  out.u64(owners.size());
  for (std::size_t node : owners) {
    const DropRecord& rec = records_.at(node);
    out.u64(node);
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
  std::uint64_t prev_node = 0;
  const std::uint64_t n_records = in.u64();
  for (std::uint64_t i = 0; i < n_records; ++i) {
    const std::uint64_t node = in.u64();
    // Owners are saved strictly ascending; a repeat would be indexed
    // twice into counts_ while emplace kept only one record.
    DTN_REQUIRE(i == 0 || node > prev_node,
                "dropped-list: owners repeated or out of order");
    prev_node = node;
    DropRecord rec;
    rec.record_time = in.f64();
    const std::uint64_t n_msgs = in.u64();
    for (std::uint64_t j = 0; j < n_msgs; ++j) {
      const std::uint64_t msg = in.u64();
      DTN_REQUIRE(rec.dropped.empty() || msg > rec.dropped.back(),
                  "dropped-list: message ids not strictly ascending");
      rec.dropped.push_back(msg);
    }
    index_add(rec);
    records_.emplace(static_cast<std::size_t>(node), std::move(rec));
  }
  in.end_section();
}

}  // namespace dtn::sdsrp
