// Spray-and-Focus (Spyropoulos et al., PerCom-W 2007): identical spray
// phase to binary Spray-and-Wait, but the passive wait phase is replaced
// by a *focus* phase — a node holding its last copy hands custody to an
// encountered relay whose last contact with the destination is
// sufficiently fresher than its own. Implemented here as the paper's
// related-work extension (Section II).
#pragma once

#include "src/core/router.hpp"

namespace dtn {

struct SprayAndFocusConfig {
  /// Custody moves when peer.last_contact(dest) exceeds ours by at least
  /// this many seconds (the "utility threshold").
  double focus_threshold = 60.0;
};

class SprayAndFocusRouter final : public Router {
 public:
  explicit SprayAndFocusRouter(const SprayAndFocusConfig& cfg = {})
      : cfg_(cfg) {}

  const char* name() const override { return "spray-and-focus"; }

  std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer,
      const PolicyContext& ctx) const override;

  bool on_sent(Message& copy, bool delivered, SimTime now) const override;

  void write_relay_copy(const Message& sender_copy, SimTime now,
                        Message& relay) const override;

 private:
  SprayAndFocusConfig cfg_;
};

}  // namespace dtn
