// Candidate-selection helpers shared by the router implementations.
#pragma once

#include <optional>
#include <vector>

#include "src/core/buffer_policy.hpp"
#include "src/core/message.hpp"
#include "src/core/node.hpp"
#include "src/core/router.hpp"

namespace dtn::routing {

/// Non-expired messages in `self`'s buffer destined for `peer` that the
/// peer has not already received, ordered by `self`'s policy (deliveries
/// always go out before replications, as in ONE).
std::vector<const Message*> deliverable_messages(const Node& self,
                                                 const Node& peer,
                                                 const PolicyContext& ctx);

/// True if `peer` is a viable relay target for `m`: it does not hold or
/// has not delivered the message, and (when its policy maintains a
/// dropped list) has not previously dropped it.
bool peer_can_receive(const Node& peer, const Message& m);

/// Walks `candidates` in order and returns the first whose relay copy
/// (`router.write_relay_copy`) the peer would admit. Every candidate is
/// rated through the same Message, the context's scratch one when it has
/// it. `sender_view` rates the newcomer by the sender-side copy instead
/// (Router::rate_newcomer_as_sender_copy).
std::optional<MessageId> first_admittable(
    const std::vector<const Message*>& candidates, const Node& peer,
    const PolicyContext& ctx, const Router& router, bool sender_view = false);

}  // namespace dtn::routing
