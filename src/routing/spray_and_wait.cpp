#include "src/routing/spray_and_wait.hpp"

#include "src/core/node.hpp"
#include "src/routing/routing_common.hpp"
#include "src/util/error.hpp"

namespace dtn {

bool SprayAndWaitRouter::can_spray(const Message& m, const Node& self) const {
  if (m.copies < 2) return false;  // wait phase
  if (!cfg_.binary && m.source != self.id()) return false;  // source spray
  return true;
}

std::optional<MessageId> SprayAndWaitRouter::next_to_send(
    const Node& self, const Node& peer, const PolicyContext& ctx) const {
  // Deliveries always trump replication.
  const auto deliverable = routing::deliverable_messages(self, peer, ctx);
  if (!deliverable.empty()) return deliverable.front()->id;

  // The expensive part of candidate selection — filtering by spray
  // eligibility and sorting by policy priority — is peer-independent, so
  // under a cache-safe policy (total, set-independent ordering) the
  // ranked list is memoized per node and reused across every try_start
  // of the step; only the cheap peer filter runs per pair. The snapshot
  // dies with the buffer revision, any priority invalidation, or the
  // refresh quantum (priority_cache.hpp).
  const bool memoize = ctx.cache_enabled && self.policy().cache_safe();
  std::vector<const Message*> local_spray;
  std::vector<const Message*>& spray =
      ctx.scratch != nullptr ? ctx.scratch->spray : local_spray;
  spray.clear();
  const std::vector<MessageId>* order =
      memoize ? self.priority_cache().send_order(
                    ctx.now, ctx.priority_refresh_s, self.buffer().revision())
              : nullptr;
  if (order != nullptr) {
    for (MessageId id : *order) {
      const Message* m = self.buffer().find(id);
      DTN_REQUIRE(m != nullptr, "send-order snapshot out of sync");
      if (routing::peer_can_receive(peer, *m)) spray.push_back(m);
    }
  } else if (memoize) {
    // Rank first (peer-independent), memoize, then peer-filter. For a
    // total ordering this commutes with the filter-then-rank order below.
    std::vector<const Message*> local_ranked;
    std::vector<const Message*>& ranked =
        ctx.scratch != nullptr ? ctx.scratch->ranked : local_ranked;
    ranked.clear();
    for (const Message& m : self.buffer().messages()) {
      if (m.expired(ctx.now) || !can_spray(m, self)) continue;
      ranked.push_back(&m);
    }
    self.policy().order_for_sending(ranked, ctx);
    std::vector<MessageId>& order_ids =
        self.priority_cache().rewrite_send_order(ctx.now,
                                                 self.buffer().revision());
    for (const Message* m : ranked) {
      order_ids.push_back(m->id);
      if (routing::peer_can_receive(peer, *m)) spray.push_back(m);
    }
  } else {
    // Uncached path: unchanged from the pre-cache kernel (non-total
    // orderings like RandomPolicy must see the peer-filtered list).
    for (const Message& m : self.buffer().messages()) {
      if (m.expired(ctx.now) || !can_spray(m, self)) continue;
      if (!routing::peer_can_receive(peer, m)) continue;
      spray.push_back(&m);
    }
    self.policy().order_for_sending(spray, ctx);
  }
  if (!cfg_.precheck_admission) {
    return spray.empty() ? std::nullopt
                         : std::make_optional(spray.front()->id);
  }
  return routing::first_admittable(spray, peer, ctx, *this,
                                   cfg_.presplit_admission_view);
}

bool SprayAndWaitRouter::on_sent(Message& copy, bool delivered,
                                 SimTime now) const {
  if (delivered) return true;  // no acknowledgment scheme: keep the copy
  DTN_REQUIRE(copy.copies >= 2, "spray from wait phase");
  if (cfg_.binary) {
    copy.copies -= copy.copies / 2;  // keep the ceiling half
    copy.spray_times.push_back(now);
  } else {
    copy.copies -= 1;
  }
  ++copy.forwards;
  return true;
}

void SprayAndWaitRouter::write_relay_copy(const Message& sender_copy,
                                          SimTime now, Message& relay) const {
  DTN_REQUIRE(sender_copy.copies >= 2, "relay copy from wait phase");
  relay = sender_copy;
  relay.copies = cfg_.binary ? sender_copy.copies / 2 : 1;  // floor half
  relay.hops = sender_copy.hops + 1;
  relay.forwards = 0;
  relay.received = now;
  if (cfg_.binary) relay.spray_times.push_back(now);
}

}  // namespace dtn
