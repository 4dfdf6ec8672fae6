#include "src/routing/routing_common.hpp"

namespace dtn::routing {

std::vector<const Message*> deliverable_messages(const Node& self,
                                                 const Node& peer,
                                                 const PolicyContext& ctx) {
  std::vector<const Message*> out;
  // Stream the arena's hot columns (dest/expiry) and only resolve the
  // full Message for the rare handles that pass both gates — on a relay
  // node almost nothing is addressed to this particular peer.
  const Buffer& buf = self.buffer();
  const MessageArena& arena = buf.arena();
  for (Buffer::Handle h : buf.handles()) {
    if (arena.dest_of(h) != peer.id()) continue;
    if (ctx.now >= arena.expiry_of(h)) continue;  // == Message::expired
    const Message& m = arena.get(h);
    if (peer.has_delivered(m.id)) continue;
    out.push_back(&m);
  }
  self.policy().order_for_sending(out, ctx);
  return out;
}

bool peer_can_receive(const Node& peer, const Message& m) {
  if (peer.buffer().has(m.id)) return false;
  if (peer.has_delivered(m.id)) return false;
  if (peer.knows_delivered(m.id)) return false;  // ACK-gossip immunity
  if (peer.policy().rejects_previously_dropped() && peer.has_dropped(m.id)) {
    return false;
  }
  return true;
}

std::optional<MessageId> first_admittable(
    const std::vector<const Message*>& candidates, const Node& peer,
    const PolicyContext& ctx, const Router& router, bool sender_view) {
  const PolicyContext peer_ctx = ctx.viewed_from(peer);
  Message local;
  Message& relay = ctx.scratch != nullptr ? ctx.scratch->relay : local;
  for (const Message* m : candidates) {
    router.write_relay_copy(*m, ctx.now, relay);
    if (peer.would_admit(relay, peer_ctx, sender_view ? m : nullptr)) {
      return m->id;
    }
  }
  return std::nullopt;
}

}  // namespace dtn::routing
