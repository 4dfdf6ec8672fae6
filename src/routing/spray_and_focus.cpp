#include "src/routing/spray_and_focus.hpp"

#include "src/core/node.hpp"
#include "src/routing/routing_common.hpp"
#include "src/util/error.hpp"

namespace dtn {

std::optional<MessageId> SprayAndFocusRouter::next_to_send(
    const Node& self, const Node& peer, const PolicyContext& ctx) const {
  const auto deliverable = routing::deliverable_messages(self, peer, ctx);
  if (!deliverable.empty()) return deliverable.front()->id;

  std::vector<const Message*> candidates;
  // The expiry gate streams the arena's hot column before resolving the
  // Message (the peer/focus checks need the full record anyway).
  const Buffer& buf = self.buffer();
  const MessageArena& arena = buf.arena();
  for (Buffer::Handle h : buf.handles()) {
    if (ctx.now >= arena.expiry_of(h)) continue;  // == Message::expired
    const Message& m = arena.get(h);
    if (!routing::peer_can_receive(peer, m)) continue;
    if (m.copies >= 2) {
      candidates.push_back(&m);  // spray phase
      continue;
    }
    // Focus phase: move custody toward fresher knowledge of the
    // destination (last-encounter utility, exchanged at contact setup).
    const double mine = self.intermeeting().last_contact(m.destination);
    const double theirs = peer.intermeeting().last_contact(m.destination);
    if (theirs > mine + cfg_.focus_threshold) candidates.push_back(&m);
  }
  self.policy().order_for_sending(candidates, ctx);
  return routing::first_admittable(candidates, peer, ctx, *this);
}

bool SprayAndFocusRouter::on_sent(Message& copy, bool delivered,
                                  SimTime now) const {
  if (delivered) return true;
  ++copy.forwards;
  if (copy.copies >= 2) {  // spray: binary split
    copy.copies -= copy.copies / 2;
    copy.spray_times.push_back(now);
    return true;
  }
  return false;  // focus: custody moved to the better relay
}

void SprayAndFocusRouter::write_relay_copy(const Message& sender_copy,
                                           SimTime now, Message& relay) const {
  relay = sender_copy;
  relay.hops = sender_copy.hops + 1;
  relay.forwards = 0;
  relay.received = now;
  if (sender_copy.copies >= 2) {
    relay.copies = sender_copy.copies / 2;
    relay.spray_times.push_back(now);
  } else {
    relay.copies = 1;
  }
}

}  // namespace dtn
