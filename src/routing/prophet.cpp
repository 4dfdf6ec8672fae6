#include "src/routing/prophet.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/node.hpp"
#include "src/routing/routing_common.hpp"
#include "src/snapshot/archive.hpp"

namespace dtn {

void ProphetTable::age(const ProphetConfig& cfg, SimTime now) {
  if (now <= last_age_) return;
  const double steps = (now - last_age_) / cfg.aging_unit;
  const double factor = std::pow(cfg.gamma, steps);
  for (auto& [dest, p] : p_) p *= factor;
  last_age_ = now;
}

void ProphetTable::on_encounter(
    const ProphetConfig& cfg, NodeId peer,
    const std::unordered_map<NodeId, double>& peer_snapshot, SimTime now) {
  age(cfg, now);
  double& p_peer = p_[peer];
  p_peer += (1.0 - p_peer) * cfg.p_init;
  for (const auto& [dest, p_bc] : peer_snapshot) {
    if (dest == peer) continue;
    double& p_ac = p_[dest];
    p_ac += (1.0 - p_ac) * p_peer * p_bc * cfg.beta;
  }
}

double ProphetTable::predictability(NodeId dest) const {
  const auto it = p_.find(dest);
  return it != p_.end() ? it->second : 0.0;
}

void ProphetTable::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("prophet-table");
  std::vector<NodeId> dests;
  dests.reserve(p_.size());
  for (const auto& [dest, p] : p_) dests.push_back(dest);
  std::sort(dests.begin(), dests.end());
  out.u64(dests.size());
  for (NodeId dest : dests) {
    out.u32(dest);
    out.f64(p_.at(dest));
  }
  out.f64(last_age_);
  out.end_section();
}

void ProphetTable::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("prophet-table");
  p_.clear();
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const NodeId dest = in.u32();
    p_[dest] = in.f64();
  }
  last_age_ = in.f64();
  in.end_section();
}

void ProphetRouter::on_link_up(const Node& a, const Node& b,
                               SimTime now) const {
  ProphetTable& ta = tables_[a.id()];
  ProphetTable& tb = tables_[b.id()];
  ta.age(cfg_, now);
  tb.age(cfg_, now);
  // Snapshot both sides before mutating so the update is symmetric.
  const auto snap_a = ta.entries();
  const auto snap_b = tb.entries();
  ta.on_encounter(cfg_, b.id(), snap_b, now);
  tb.on_encounter(cfg_, a.id(), snap_a, now);
}

double ProphetRouter::predictability(NodeId owner, NodeId dest,
                                     SimTime now) const {
  ProphetTable& t = tables_[owner];
  t.age(cfg_, now);
  return t.predictability(dest);
}

std::optional<MessageId> ProphetRouter::next_to_send(
    const Node& self, const Node& peer, const PolicyContext& ctx) const {
  const auto deliverable = routing::deliverable_messages(self, peer, ctx);
  if (!deliverable.empty()) return deliverable.front()->id;

  std::vector<const Message*> candidates;
  for (const Message& m : self.buffer().messages()) {
    if (m.expired(ctx.now)) continue;
    if (m.destination == peer.id()) continue;
    if (!routing::peer_can_receive(peer, m)) continue;
    // Replicate only toward higher delivery predictability.
    if (predictability(peer.id(), m.destination, ctx.now) <=
        predictability(self.id(), m.destination, ctx.now)) {
      continue;
    }
    candidates.push_back(&m);
  }
  self.policy().order_for_sending(candidates, ctx);
  return routing::first_admittable(candidates, peer, ctx, *this);
}

bool ProphetRouter::on_sent(Message& copy, bool /*delivered*/,
                            SimTime /*now*/) const {
  ++copy.forwards;
  return true;  // PRoPHET replicates; the sender keeps its copy
}

void ProphetRouter::write_relay_copy(const Message& sender_copy,
                                     SimTime now, Message& relay) const {
  relay = sender_copy;
  relay.hops = sender_copy.hops + 1;
  relay.forwards = 0;
  relay.received = now;
}

void ProphetRouter::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("prophet");
  std::vector<NodeId> owners;
  owners.reserve(tables_.size());
  for (const auto& [owner, table] : tables_) owners.push_back(owner);
  std::sort(owners.begin(), owners.end());
  out.u64(owners.size());
  for (NodeId owner : owners) {
    out.u32(owner);
    tables_.at(owner).save_state(out);
  }
  out.end_section();
}

void ProphetRouter::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("prophet");
  tables_.clear();
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const NodeId owner = in.u32();
    tables_[owner].load_state(in);
  }
  in.end_section();
}

}  // namespace dtn
