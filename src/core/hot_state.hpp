// NodeHotState: the two per-node arrays try_start's first screen reads.
//
// start_transfers calls try_start for both directions of every live
// contact, and nearly every call ends at its first checks: an empty
// sender, or a busy radio at either end. Those checks read these arrays,
// indexed by NodeId and owned by the World, instead of two Node objects
// at random addresses (DESIGN.md §14.1):
//
//   radio_busy   — written by Node::set_radio_busy
//   buffer_used  — written by Buffer on insert/remove/load
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

  void add_node() {
    radio_busy.push_back(0);
    buffer_used.push_back(0);
  }
};

}  // namespace dtn
