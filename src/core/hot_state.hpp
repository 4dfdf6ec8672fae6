// NodeHotState: structure-of-arrays block for the per-node scalars the
// step loop streams over every step.
//
// The phases that visit *every* node per step — fault-filtered contact
// derivation, occupancy sampling, the radio-idle gate in try_start — used
// to chase one Node* (and often one FaultPlan flag word) per node. Here
// those scalars live in parallel arrays indexed by NodeId, owned by the
// World and written through the owning objects:
//
//   radio_busy            — written by Node::set_radio_busy
//   buffer_used/rev       — written by Buffer on insert/remove/load
//   buffer_cap            — fixed at add_node
//   up, range_factor,     — fault-plan mirrors, written by World when a
//   bitrate_factor          fault event pops (and refreshed on restore)
//
// Node and Buffer keep private fallback members for hot == nullptr so
// they remain constructible standalone in unit tests; inside a World the
// arrays are the single source of truth.
#pragma once

#include <cstdint>
#include <vector>

namespace dtn {

struct NodeHotState {
  std::vector<std::uint8_t> radio_busy;
  std::vector<std::int64_t> buffer_used;
  std::vector<std::int64_t> buffer_cap;
  std::vector<std::uint64_t> buffer_rev;
  std::vector<std::uint8_t> up;            ///< fault mirror; 1 when healthy
  std::vector<double> range_factor;        ///< fault mirror; 1.0 nominal
  std::vector<double> bitrate_factor;     ///< fault mirror; 1.0 nominal

  std::size_t size() const { return radio_busy.size(); }

  void add_node(std::int64_t capacity_bytes) {
    radio_busy.push_back(0);
    buffer_used.push_back(0);
    buffer_cap.push_back(capacity_bytes);
    buffer_rev.push_back(0);
    up.push_back(1);
    range_factor.push_back(1.0);
    bitrate_factor.push_back(1.0);
  }

  void reserve(std::size_t n) {
    radio_busy.reserve(n);
    buffer_used.reserve(n);
    buffer_cap.reserve(n);
    buffer_rev.reserve(n);
    up.reserve(n);
    range_factor.reserve(n);
    bitrate_factor.reserve(n);
  }
};

}  // namespace dtn
