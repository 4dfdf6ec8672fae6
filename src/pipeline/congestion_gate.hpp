// GatedRouter — the CongestionGate filter element. Implements the
// congestion-aware spray-and-wait variant of Oham & Radenkovic
// (arXiv:1601.01527) as a router decorator: when the *receiver's* buffer
// occupancy has reached the configured threshold, replication toward it
// is suppressed and only direct deliveries (messages destined for that
// peer, which are consumed on arrival rather than buffered) may flow.
// Below the threshold the gate is transparent.
//
// The wrapper holds no state of its own and save/load purely delegate to
// the inner router, so a gate that never closes (threshold > 1) is
// byte-identical to the ungated build — the inertness golden test pins
// this. The gate verdict reads only the peer's buffer occupancy, which
// cannot change without a buffer-revision bump, so the idle-contact memo
// in World::try_start remains sound under gating.
#pragma once

#include <memory>
#include <string>

#include "src/core/router.hpp"

namespace dtn::pipeline {

class GatedRouter final : public Router {
 public:
  GatedRouter(std::unique_ptr<Router> inner, double threshold);

  const char* name() const override { return name_.c_str(); }

  std::optional<MessageId> next_to_send(
      const Node& self, const Node& peer,
      const PolicyContext& ctx) const override;

  bool on_sent(Message& copy, bool delivered, SimTime now) const override {
    return inner_->on_sent(copy, delivered, now);
  }
  void write_relay_copy(const Message& sender_copy, SimTime now,
                        Message& relay) const override {
    inner_->write_relay_copy(sender_copy, now, relay);
  }
  bool rate_newcomer_as_sender_copy() const override {
    return inner_->rate_newcomer_as_sender_copy();
  }
  void on_link_up(const Node& a, const Node& b, SimTime now) const override {
    inner_->on_link_up(a, b, now);
  }
  void save_state(snapshot::ArchiveWriter& out) const override {
    inner_->save_state(out);
  }
  void load_state(snapshot::ArchiveReader& in) override {
    inner_->load_state(in);
  }

  double threshold() const { return threshold_; }
  const Router& inner() const { return *inner_; }

 private:
  std::unique_ptr<Router> inner_;
  double threshold_;
  std::string name_;
};

}  // namespace dtn::pipeline
