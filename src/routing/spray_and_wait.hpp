// Spray-and-Wait routing (Spyropoulos et al., WDTN 2005) — the protocol
// the paper builds on.
//
// Spray phase: while a node holds more than one copy token of a message,
// it replicates to encountered nodes; in *binary* mode it hands over half
// its tokens (the receiver gets ⌊C_i/2⌋, the sender keeps ⌈C_i/2⌉); in
// *source* mode only the source sprays, one token at a time.
// Wait phase: with a single token left, the copy is only transmitted
// directly to the destination.
//
// Every binary split appends the current time to both copies'
// `spray_times` lineage — the raw material of SDSRP's m_i estimator
// (paper Fig. 6 / Eq. 15).
#pragma once

#include "src/core/router.hpp"

namespace dtn {

struct SprayAndWaitConfig {
  bool binary = true;  ///< binary splitting (paper) vs source spray
  /// When true (default), the sender checks — as part of the contact
  /// handshake — that the receiver's buffer policy would admit the copy,
  /// and skips candidates that would be refused (ONE's DENIED mechanic).
  /// When false the transfer always proceeds and rejection happens only on
  /// arrival, wasting the contact's bandwidth (no-handshake protocol).
  bool precheck_admission = true;
  /// Rate an arriving spray by the sender's pre-split copy state in the
  /// receiver's Algorithm-1 drop decision (see Router docs).
  bool presplit_admission_view = false;
};

class SprayAndWaitRouter final : public Router {
 public:
  explicit SprayAndWaitRouter(const SprayAndWaitConfig& cfg = {})
      : cfg_(cfg) {}

  const char* name() const override {
    return cfg_.binary ? "spray-and-wait-binary" : "spray-and-wait-source";
  }

  std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer,
      const PolicyContext& ctx) const override;

  bool on_sent(Message& copy, bool delivered, SimTime now) const override;

  void write_relay_copy(const Message& sender_copy, SimTime now,
                        Message& relay) const override;

  bool rate_newcomer_as_sender_copy() const override {
    return cfg_.presplit_admission_view;
  }

 private:
  bool can_spray(const Message& m, const Node& self) const;

  SprayAndWaitConfig cfg_;
};

}  // namespace dtn
