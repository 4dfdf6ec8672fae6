// Epidemic routing (Vahdat & Becker, 2000): replicate every message to
// every encountered node that lacks it. The classic flooding baseline the
// paper's related work optimizes (GBSD etc.).
#pragma once

#include "src/core/router.hpp"

namespace dtn {

class EpidemicRouter final : public Router {
 public:
  const char* name() const override { return "epidemic"; }

  std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer,
      const PolicyContext& ctx) const override;

  bool on_sent(Message& copy, bool delivered, SimTime now) const override;

  void write_relay_copy(const Message& sender_copy, SimTime now,
                        Message& relay) const override;
};

}  // namespace dtn
