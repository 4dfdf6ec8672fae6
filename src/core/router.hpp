// Router: the forwarding logic run at every contact opportunity.
//
// The kernel drives routers through three hooks: pick the next message to
// transfer on an idle link, mutate the sender's copy once a transfer
// completes, and mint the receiver's copy for relays.
#pragma once

#include <optional>

#include "src/core/buffer_policy.hpp"
#include "src/core/message.hpp"

namespace dtn {

class Node;

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

class Router {
 public:
  virtual ~Router() = default;

  virtual const char* name() const = 0;

  /// The next message `self` should transmit to `peer`, or nullopt when
  /// nothing (more) is worth sending on this contact. Implementations must
  /// check receiver-side admission (Node::would_admit) so the kernel does
  /// not start doomed transfers, and must order candidates through the
  /// sender's BufferPolicy.
  virtual std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer, const PolicyContext& ctx) const = 0;

  /// Called on the sender's buffered copy after a completed transfer.
  /// `delivered` is true when the receiver was the destination.
  /// Returns true to keep the sender's copy, false to relinquish custody
  /// (single-copy forwarding semantics).
  virtual bool on_sent(Message& copy, bool delivered, SimTime now) const = 0;

  /// Writes the receiver's copy for a (non-delivery) relay of
  /// `sender_copy`, before on_sent has mutated the sender, over `relay`.
  /// Overwriting reuses `relay`'s spray-lineage storage, so candidate
  /// selection can rate many hypothetical copies through one Message.
  virtual void write_relay_copy(const Message& sender_copy, SimTime now,
                                Message& relay) const = 0;

  /// The receiver's copy as a new Message (see write_relay_copy).
  Message make_relay_copy(const Message& sender_copy, SimTime now) const {
    Message relay;
    write_relay_copy(sender_copy, now, relay);
    return relay;
  }

  /// When true, receiver-side admission (Algorithm 1) rates the arriving
  /// message by its pre-transfer state — the sender's copy — rather than
  /// by the post-split relay copy. The split is then part of accepting
  /// the transfer, not a discount applied before the drop decision.
  virtual bool rate_newcomer_as_sender_copy() const { return false; }

  /// Called once when a contact between `a` and `b` is established —
  /// routers with encounter-driven state (PRoPHET predictabilities,
  /// focus-phase utilities) update it here.
  virtual void on_link_up(const Node& a, const Node& b, SimTime now) const {
    (void)a;
    (void)b;
    (void)now;
  }

  /// Snapshot/restore of router-owned state. Stateless routers (the
  /// default) write and read nothing.
  virtual void save_state(snapshot::ArchiveWriter& out) const { (void)out; }
  virtual void load_state(snapshot::ArchiveReader& in) { (void)in; }
};

}  // namespace dtn
