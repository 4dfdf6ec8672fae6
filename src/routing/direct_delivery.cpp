#include "src/routing/direct_delivery.hpp"

#include "src/core/node.hpp"
#include "src/routing/routing_common.hpp"
#include "src/util/error.hpp"

namespace dtn {

std::optional<MessageId> DirectDeliveryRouter::next_to_send(
    const Node& self, const Node& peer, const PolicyContext& ctx) const {
  const auto deliverable = routing::deliverable_messages(self, peer, ctx);
  if (!deliverable.empty()) return deliverable.front()->id;
  return std::nullopt;
}

bool DirectDeliveryRouter::on_sent(Message& copy, bool delivered,
                                   SimTime /*now*/) const {
  DTN_REQUIRE(delivered, "direct delivery only transmits to destinations");
  ++copy.forwards;
  return false;  // the job is done; free the buffer slot
}

void DirectDeliveryRouter::write_relay_copy(const Message& /*sender*/,
                                            SimTime /*now*/,
                                            Message& /*relay*/) const {
  DTN_REQUIRE(false, "direct delivery never relays");
}

}  // namespace dtn
