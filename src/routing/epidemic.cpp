#include "src/routing/epidemic.hpp"

#include "src/core/node.hpp"
#include "src/routing/routing_common.hpp"

namespace dtn {

std::optional<MessageId> EpidemicRouter::next_to_send(
    const Node& self, const Node& peer, const PolicyContext& ctx) const {
  const auto deliverable = routing::deliverable_messages(self, peer, ctx);
  if (!deliverable.empty()) return deliverable.front()->id;

  std::vector<const Message*> candidates;
  for (const Message& m : self.buffer().messages()) {
    if (m.expired(ctx.now)) continue;
    if (m.destination == peer.id()) continue;  // handled as deliverable
    if (!routing::peer_can_receive(peer, m)) continue;
    candidates.push_back(&m);
  }
  self.policy().order_for_sending(candidates, ctx);
  return routing::first_admittable(candidates, peer, ctx, *this);
}

bool EpidemicRouter::on_sent(Message& copy, bool /*delivered*/,
                             SimTime /*now*/) const {
  ++copy.forwards;
  return true;  // flooding: the sender always keeps its copy
}

void EpidemicRouter::write_relay_copy(const Message& sender_copy,
                                      SimTime now, Message& relay) const {
  relay = sender_copy;
  relay.hops = sender_copy.hops + 1;
  relay.forwards = 0;
  relay.received = now;
}

}  // namespace dtn
