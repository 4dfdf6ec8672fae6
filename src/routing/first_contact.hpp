// First contact: single-copy custody transfer — hand the message to the
// first encountered node that can take it. Cheap but erratic baseline.
#pragma once

#include "src/core/router.hpp"

namespace dtn {

class FirstContactRouter final : public Router {
 public:
  const char* name() const override { return "first-contact"; }

  std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer,
      const PolicyContext& ctx) const override;

  bool on_sent(Message& copy, bool delivered, SimTime now) const override;

  void write_relay_copy(const Message& sender_copy, SimTime now,
                        Message& relay) const override;
};

}  // namespace dtn
