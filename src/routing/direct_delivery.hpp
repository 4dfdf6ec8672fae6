// Direct delivery: the source holds its single copy until it meets the
// destination. Lower bound for delivery ratio, minimum possible overhead.
#pragma once

#include "src/core/router.hpp"

namespace dtn {

class DirectDeliveryRouter final : public Router {
 public:
  const char* name() const override { return "direct-delivery"; }

  std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer,
      const PolicyContext& ctx) const override;

  bool on_sent(Message& copy, bool delivered, SimTime now) const override;

  void write_relay_copy(const Message& sender_copy, SimTime now,
                        Message& relay) const override;
};

}  // namespace dtn
