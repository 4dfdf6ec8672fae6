#include "src/core/world.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <tuple>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

namespace {
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

World::World(const WorldConfig& cfg) : cfg_(cfg), tracker_(cfg.range) {
  DTN_REQUIRE(cfg.step > 0.0, "World: step must be positive");
  DTN_REQUIRE(cfg.duration > 0.0, "World: duration must be positive");
  DTN_REQUIRE(cfg.bandwidth > 0.0, "World: bandwidth must be positive");
  DTN_REQUIRE(cfg.occupancy_sample_interval > 0.0,
              "World: occupancy_sample_interval must be positive");
  DTN_REQUIRE(cfg.priority_refresh_s >= 0.0,
              "World: priority_refresh_s must be non-negative");
  next_occupancy_sample_ = cfg.occupancy_sample_interval;
}

void World::set_router(std::unique_ptr<Router> router) {
  DTN_REQUIRE(nodes_.empty(), "World: set_router before adding nodes");
  router_ = std::move(router);
}

void World::set_policy(std::unique_ptr<BufferPolicy> policy) {
  DTN_REQUIRE(nodes_.empty(), "World: set_policy before adding nodes");
  policy_ = std::move(policy);
}

NodeId World::add_node(MobilityPtr mobility, std::int64_t buffer_capacity,
                       const NodeEstimatorConfig& est_cfg) {
  DTN_REQUIRE(router_ != nullptr && policy_ != nullptr,
              "World: set router and policy before adding nodes");
  const auto id = static_cast<NodeId>(nodes_.size());
  hot_.add_node();
  nodes_.push_back(std::make_unique<Node>(id, std::move(mobility),
                                          buffer_capacity, router_.get(),
                                          policy_.get(), est_cfg, &hot_));
  mobility_raw_.push_back(&nodes_.back()->mobility());
  outgoing_.push_back(-1);
  kinetics_configured_ = false;  // fleet speed bound may have changed
  return id;
}

bool World::expiry_after(const ExpiryEvent& a, const ExpiryEvent& b) {
  return std::tie(a.expiry, a.node, a.msg) > std::tie(b.expiry, b.node, b.msg);
}

bool World::eta_after(const EtaEvent& a, const EtaEvent& b) {
  return std::tie(a.eta, a.from, a.seq) > std::tie(b.eta, b.from, b.seq);
}

void World::push_expiry(NodeId node_id, SimTime expiry, MessageId msg) {
  expiry_heap_.push_back(ExpiryEvent{expiry, node_id, msg});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), &expiry_after);
}

void World::configure_kinetics() {
  kinetics_configured_ = true;
  tracker_.reserve_nodes(nodes_.size());
  double v_max = 0.0;
  for (const auto& n : nodes_) {
    v_max = std::max(v_max, n->mobility().max_speed());
  }
  tracker_.set_motion_bound(std::isfinite(v_max) ? v_max * cfg_.step : -1.0);
}

void World::enable_traffic(const MessageGenConfig& cfg, std::uint64_t seed) {
  gen_ = std::make_unique<MessageGenerator>(cfg, nodes_.size(), Rng(seed));
}

void World::enable_faults(const FaultConfig& cfg, std::uint64_t seed) {
  DTN_REQUIRE(!nodes_.empty(), "enable_faults: add nodes first");
  DTN_REQUIRE(now_ == 0.0, "enable_faults: call before running");
  cfg.validate();
  if (!cfg.any_active()) return;  // inert: keep the fault-free hot path
  fault_ = std::make_unique<FaultPlan>(cfg, nodes_.size(), seed);
}

void World::add_observer(WorldObserver* observer) {
  DTN_REQUIRE(observer != nullptr, "add_observer: null observer");
  observers_.push_back(observer);
}

Node& World::node(NodeId id) {
  DTN_REQUIRE(id < nodes_.size(), "World: node id out of range");
  return *nodes_[id];
}

const Node& World::node(NodeId id) const {
  DTN_REQUIRE(id < nodes_.size(), "World: node id out of range");
  return *nodes_[id];
}

PolicyContext World::ctx_for(const Node& n) const {
  PolicyContext ctx;
  ctx.now = now_;
  ctx.n_nodes = nodes_.size();
  ctx.node = &n;
  ctx.oracle = &registry_;
  ctx.cache_enabled = cfg_.priority_cache;
  ctx.priority_refresh_s = cfg_.priority_refresh_s;
  ctx.scratch = &scheduling_scratch_;
  return ctx;
}

void World::advance_mobility() {
  // Each post-move position goes straight into the tracker's position
  // array, which takes the largest displacement in the same pass.
  tracker_.move(nodes_.size(), [this](std::size_t i) {
    MobilityModel* m = mobility_raw_[i];
    m->advance(cfg_.step);
    return m->position();
  });
}

void World::step() {
  DTN_REQUIRE(nodes_.size() >= 2, "World: need at least two nodes to run");
  if (!kinetics_configured_) configure_kinetics();
  const bool prof = cfg_.profile_phases;
  double t0 = prof ? wall_now() : 0.0;
  const auto stamp = [&](double& acc) {
    if (prof) {
      const double t1 = wall_now();
      acc += t1 - t0;
      t0 = t1;
    }
  };
  now_ += cfg_.step;
  advance_mobility();
  stamp(profile_.mobility_s);
  const ContactChurn& churn = tracker_.update();

  if (fault_ == nullptr) {
    for (const NodePair& p : churn.went_down) process_link_down(p);
    for (const NodePair& p : churn.went_up) process_link_up(p);
  } else {
    // Fault events land first so the availability flags are current for
    // this step; the live-set diff then replaces the raw tracker churn —
    // geometric and fault-induced link changes flow through the same
    // process_link_down/up handlers, in the same sorted order.
    apply_fault_events();
    refresh_live_contacts();
  }
  stamp(profile_.contacts_s);

  complete_due_transfers();
  if (gen_ != nullptr) generate_traffic();
  stamp(profile_.events_s);
  purge_ttl();
  stamp(profile_.ttl_s);
  start_transfers();
  stamp(profile_.transfers_s);
  ++profile_.steps;

  if (now_ + 1e-9 >= next_occupancy_sample_) {
    sample_occupancy();
    next_occupancy_sample_ += cfg_.occupancy_sample_interval;
  }
  notify([this](WorldObserver& o) { o.on_step_end(*this); });
}

void World::run_until(SimTime t) {
  while (now_ + cfg_.step <= t + 1e-9) step();
}

void World::run() { run_until(cfg_.duration); }

void World::apply_fault_events() {
  FaultPlan::Event e;
  while (fault_->pop_due(now_, &e)) {
    switch (e.kind) {
      case FaultPlan::Kind::kNodeDown:
        // Immediate abort (not deferred to the live-set diff) so even a
        // down+up pair landing within one step kills the transfer.
        abort_faulted_transfer_of(e.node);
        break;
      case FaultPlan::Kind::kNodeUp:
        stats_.downtime_s += e.down_duration;
        if (fault_->config().reboot_purge) purge_on_reboot(node(e.node));
        break;
      case FaultPlan::Kind::kLinkAbort:
        if (!transfers_.empty()) {
          // Uniform pick in sender order — transfers_ itself is unordered
          // (swap-pop), so index into a sorted view. No in-flight transfer
          // means no RNG draw; the stream stays state-deterministic.
          fault_senders_.clear();
          fault_senders_.reserve(transfers_.size());
          for (const Transfer& t : transfers_) fault_senders_.push_back(t.from);
          std::sort(fault_senders_.begin(), fault_senders_.end());
          const NodeId from =
              fault_senders_[fault_->pick_index(fault_senders_.size())];
          const Transfer t =
              transfers_[static_cast<std::size_t>(outgoing_[from])];
          ++stats_.faulted_aborts;
          abort_transfer_from(t.from, t.to);
        }
        break;
      case FaultPlan::Kind::kDegradeStart:
      case FaultPlan::Kind::kDegradeEnd:
        break;  // the plan flipped its own flag; the live set reads it
    }
  }
}

void World::abort_faulted_transfer_of(NodeId id) {
  // The radio serializes: a node participates in at most one transfer,
  // as sender or receiver.
  const std::int64_t idx = outgoing_[id];
  if (idx >= 0) {
    const Transfer t = transfers_[static_cast<std::size_t>(idx)];
    ++stats_.faulted_aborts;
    abort_transfer_from(t.from, t.to);
    return;
  }
  for (const Transfer& t : transfers_) {
    if (t.to == id) {
      const Transfer hit = t;
      ++stats_.faulted_aborts;
      abort_transfer_from(hit.from, hit.to);
      return;
    }
  }
}

void World::purge_on_reboot(Node& n) {
  // The node's transfers were aborted when it went down and none started
  // while it was severed from the live set, so nothing is pinned.
  DTN_REQUIRE(n.pinned().empty(), "reboot purge: down node holds pins");
  doomed_scratch_.clear();
  for (const Message& m : n.buffer().messages()) doomed_scratch_.push_back(m.id);
  for (MessageId id : doomed_scratch_) {
    n.buffer().take(id);
    n.priority_cache().invalidate(id);
    // Not a policy drop: no record_drop, no on_drop — the storage died.
    registry_.on_copy_removed(id, n.id(), /*dropped=*/false);
    ++stats_.reboot_purged;
  }
}

void World::compute_live_contacts(std::vector<NodePair>& out) const {
  // Reads the plan's flags and the tracker's position array (refreshed
  // by advance_mobility each step, restored with the tracker).
  out.clear();
  const std::vector<Vec2>& positions = tracker_.positions();
  for (const NodePair& p : tracker_.current()) {
    const auto a = static_cast<NodeId>(p.first);
    const auto b = static_cast<NodeId>(p.second);
    if (!fault_->is_up(a) || !fault_->is_up(b)) continue;
    const double f =
        std::min(fault_->range_factor(a), fault_->range_factor(b));
    if (f < 1.0) {
      const Vec2 pa = positions[a];
      const Vec2 pb = positions[b];
      const double dx = pa.x - pb.x;
      const double dy = pa.y - pb.y;
      const double r = cfg_.range * f;
      if (dx * dx + dy * dy > r * r) continue;
    }
    out.push_back(p);  // subsequence of a sorted set: stays sorted
  }
}

void World::refresh_live_contacts() {
  compute_live_contacts(live_scratch_);
  // Diff the sorted sets; downs first, then ups, matching the tracker
  // churn ordering of the fault-free path.
  auto old_it = live_contacts_.cbegin();
  auto new_it = live_scratch_.cbegin();
  while (old_it != live_contacts_.cend()) {
    if (new_it != live_scratch_.cend() && *new_it < *old_it) {
      ++new_it;
      continue;
    }
    if (new_it != live_scratch_.cend() && *new_it == *old_it) {
      ++old_it;
      ++new_it;
      continue;
    }
    const NodePair p = *old_it++;
    // A pair still geometrically in range was severed by the fault layer;
    // a transfer it carried is a fault-induced abort (geometric breakups
    // abort too, but those happen in the baseline world as well).
    if (tracker_.in_contact(p.first, p.second)) {
      const auto a = static_cast<NodeId>(p.first);
      const auto b = static_cast<NodeId>(p.second);
      const std::int64_t ia = outgoing_[a];
      const std::int64_t ib = outgoing_[b];
      if ((ia >= 0 && transfers_[static_cast<std::size_t>(ia)].to == b) ||
          (ib >= 0 && transfers_[static_cast<std::size_t>(ib)].to == a)) {
        ++stats_.faulted_aborts;
      }
    }
    process_link_down(p);
  }
  new_it = live_scratch_.cbegin();
  for (auto it = live_contacts_.cbegin(); new_it != live_scratch_.cend();
       ++new_it) {
    while (it != live_contacts_.cend() && *it < *new_it) ++it;
    if (it != live_contacts_.cend() && *it == *new_it) continue;
    process_link_up(*new_it);
  }
  live_contacts_.swap(live_scratch_);
}

void World::process_link_down(const NodePair& p) {
  abort_transfers_on(p);
  Node& a = node(static_cast<NodeId>(p.first));
  Node& b = node(static_cast<NodeId>(p.second));
  idle_memo_.erase(a.id(), b.id());
  idle_memo_.erase(b.id(), a.id());
  a.note_contact_end(p.second, now_);
  b.note_contact_end(p.first, now_);
  notify([&p, this](WorldObserver& o) { o.on_link_down(p, now_); });
  if (cfg_.collect_intermeeting) {
    pair_last_end_[p] = now_;
    const auto it = pair_up_since_.find(p);
    if (it != pair_up_since_.end()) {
      contact_samples_.push_back(now_ - it->second);
      pair_up_since_.erase(it);
    }
  }
}

void World::process_link_up(const NodePair& p) {
  Node& a = node(static_cast<NodeId>(p.first));
  Node& b = node(static_cast<NodeId>(p.second));
  a.note_contact_start(p.second, now_);
  b.note_contact_start(p.first, now_);
  router_->on_link_up(a, b, now_);
  if (cfg_.ack_gossip) {
    a.learn_delivered_from(b);
    b.learn_delivered_from(a);
    purge_acked(a);
    purge_acked(b);
  }
  if (policy_->uses_dropped_list()) {
    // Fig. 5 gossip: exchange and reconcile drop records on encounter.
    a.merge_dropped_from(b);
    b.merge_dropped_from(a);
  }
  if (cfg_.collect_intermeeting) {
    const auto it = pair_last_end_.find(p);
    if (it != pair_last_end_.end() && now_ > it->second) {
      imt_samples_.push_back(now_ - it->second);
    }
    pair_up_since_[p] = now_;
  }
  notify([&p, this](WorldObserver& o) { o.on_link_up(p, now_); });
}

void World::remove_transfer(NodeId from_id) {
  const std::int64_t idx = outgoing_[from_id];
  DTN_REQUIRE(idx >= 0, "remove_transfer: sender has no outgoing transfer");
  const auto i = static_cast<std::size_t>(idx);
  const std::size_t last = transfers_.size() - 1;
  if (i != last) {
    transfers_[i] = transfers_[last];
    outgoing_[transfers_[i].from] = static_cast<std::int64_t>(i);
  }
  transfers_.pop_back();
  outgoing_[from_id] = -1;
}

void World::abort_transfers_on(const NodePair& p) {
  // A pair carries at most one transfer (both radios are busy while it
  // runs), so two directional probes cover every case.
  abort_transfer_from(static_cast<NodeId>(p.first),
                      static_cast<NodeId>(p.second));
  abort_transfer_from(static_cast<NodeId>(p.second),
                      static_cast<NodeId>(p.first));
}

void World::abort_transfer_from(NodeId from_id, NodeId to_id) {
  const std::int64_t idx = outgoing_[from_id];
  if (idx < 0) return;
  const Transfer t = transfers_[static_cast<std::size_t>(idx)];
  if (t.to != to_id) return;
  Node& from = node(t.from);
  Node& to = node(t.to);
  from.unpin(t.msg);
  from.set_radio_busy(false);
  to.set_radio_busy(false);
  ++stats_.transfers_aborted;
  notify([&t](WorldObserver& o) { o.on_transfer_aborted(t); });
  // The ETA heap entry becomes a tombstone: its seq no longer resolves.
  remove_transfer(t.from);
}

void World::complete_due_transfers() {
  // Drains the ETA heap: due transfers complete in (eta, from) order —
  // the sender is unique among in-flight transfers, so the order is
  // total and the run deterministic. Stale entries — transfers aborted
  // since they were scheduled — fail the seq check and are discarded.
  while (!eta_heap_.empty() && eta_heap_.front().eta <= now_ + 1e-9) {
    std::pop_heap(eta_heap_.begin(), eta_heap_.end(), &eta_after);
    const EtaEvent e = eta_heap_.back();
    eta_heap_.pop_back();
    const std::int64_t idx = outgoing_[e.from];
    if (idx < 0 || transfers_[static_cast<std::size_t>(idx)].seq != e.seq) {
      continue;  // tombstone
    }
    const Transfer t = transfers_[static_cast<std::size_t>(idx)];
    remove_transfer(e.from);
    handle_completion(t);
  }
}

void World::handle_completion(const Transfer& t) {
  Node& from = node(t.from);
  Node& to = node(t.to);
  from.unpin(t.msg);
  from.set_radio_busy(false);
  to.set_radio_busy(false);

  Message* copy = from.buffer().find(t.msg);
  DTN_REQUIRE(copy != nullptr, "completion: sender copy vanished");

  if (copy->expired(now_)) {
    // Died in flight: the payload is useless on both ends.
    const Message dead = from.buffer().take(t.msg);
    from.priority_cache().invalidate(t.msg);
    registry_.on_copy_removed(t.msg, t.from, /*dropped=*/false);
    ++stats_.ttl_expired;
    ++stats_.transfers_aborted;
    notify([&](WorldObserver& o) {
      o.on_transfer_aborted(t);
      o.on_ttl_expired(t.from, dead, now_);
    });
    return;
  }

  const bool delivered = (t.to == copy->destination);
  if (delivered) {
    ++stats_.transfers_completed;
    notify([&t](WorldObserver& o) { o.on_transfer_completed(t, true); });
    if (!to.has_delivered(t.msg)) {
      to.mark_delivered(t.msg);
      ++stats_.delivered;
      stats_.hopcounts.add(static_cast<double>(copy->hops) + 1.0);
      stats_.latency.add(now_ - copy->created);
      notify([&](WorldObserver& o) {
        o.on_delivery(*copy, t.from, t.to, now_);
      });
      if (cfg_.ack_gossip) {
        // The destination acknowledges in-contact: both ends learn, and
        // the sender can free its now-useless copy immediately.
        to.learn_delivered(t.msg);
        from.learn_delivered(t.msg);
      }
    } else {
      ++stats_.duplicates;
    }
    const bool keep = router_->on_sent(*copy, /*delivered=*/true, now_);
    // Routers may mutate the sender copy in place on send.
    from.priority_cache().invalidate(t.msg);
    if (!keep) {
      from.buffer().take(t.msg);
      registry_.on_copy_removed(t.msg, t.from, /*dropped=*/false);
    } else if (cfg_.ack_gossip) {
      purge_acked(from);
    }
    return;
  }

  // Relay completion.
  if (to.buffer().has(t.msg)) {
    // The receiver obtained the message elsewhere mid-transfer. The
    // transfer still ran to completion — count it so
    // started == completed + aborted holds — but the arrival is a
    // duplicate: the sender keeps its copy budget untouched.
    ++stats_.duplicates;
    ++stats_.transfers_completed;
    notify([&t](WorldObserver& o) { o.on_transfer_completed(t, false); });
    return;
  }
  Message relay = router_->make_relay_copy(*copy, now_);
  const MessageId id = relay.id;
  const SimTime relay_expiry = relay.expiry();
  const Message* view =
      router_->rate_newcomer_as_sender_copy() ? copy : nullptr;
  Node::AdmitResult res = to.admit(std::move(relay), ctx_for(to), view);
  if (!res.admitted) {
    // Receiver-side state changed between the try_start precheck and
    // completion: the transfer ran but took no effect. It aborts (for the
    // started == completed + aborted invariant) and is additionally
    // tallied as an admission rejection.
    ++stats_.admission_rejected;
    ++stats_.transfers_aborted;
    notify([&t](WorldObserver& o) { o.on_transfer_aborted(t); });
    return;  // sender keeps its copies; bandwidth was wasted
  }
  ++stats_.transfers_completed;
  notify([&t](WorldObserver& o) { o.on_transfer_completed(t, false); });
  registry_.on_copy_received(id, t.to);
  push_expiry(t.to, relay_expiry, id);
  for (const Message& ev : res.evicted) handle_drop(to, ev);
  const bool keep = router_->on_sent(*copy, /*delivered=*/false, now_);
  // on_sent halves/decrements the sender's copy tokens and appends the
  // spray lineage: the memoized priority for this id is stale.
  from.priority_cache().invalidate(t.msg);
  if (!keep) {
    from.buffer().take(t.msg);
    registry_.on_copy_removed(t.msg, t.from, /*dropped=*/false);
  }
}

void World::generate_traffic() {
  gen_->poll(now_, traffic_scratch_);
  for (Message& m : traffic_scratch_) admit_at_source(std::move(m));
}

bool World::admit_at_source(Message&& m) {
  ++stats_.created;
  const MessageId id = m.id;
  const NodeId src = m.source;
  const SimTime expiry = m.expiry();
  registry_.on_created(id, src);
  notify([&m, this](WorldObserver& o) { o.on_message_created(m, now_); });
  if (fault_ != nullptr && !fault_->is_up(src)) {
    // The application layer produced the message (the generator's
    // schedule is fault-independent) but the node is down: it is lost
    // at the source. No record_drop — the policy never saw it.
    ++stats_.source_rejected;
    registry_.on_copy_removed(id, src, /*dropped=*/true);
    return false;
  }
  Node& source = node(src);
  Node::AdmitResult res = source.admit(std::move(m), ctx_for(source));
  if (!res.admitted) {
    ++stats_.source_rejected;
    registry_.on_copy_removed(id, src, /*dropped=*/true);
    // A source-side rejection is a local drop: SDSRP's d̂_i must not
    // depend on how the message entered the world.
    if (policy_->uses_dropped_list()) source.record_drop(id, now_);
    return false;
  }
  push_expiry(src, expiry, id);
  for (const Message& ev : res.evicted) handle_drop(source, ev);
  return true;
}

void World::purge_ttl() {
  // Only due entries are touched. A popped entry may be stale (the copy
  // was dropped, forwarded away or already purged — lazy invalidation)
  // or pinned by an in-flight transfer. A pinned copy is re-queued after
  // the drain: it dies when its transfer ends (handle_completion), or at
  // the first drain after an abort unpins it.
  expiry_deferred_.clear();
  while (!expiry_heap_.empty() && expiry_heap_.front().expiry <= now_) {
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), &expiry_after);
    const ExpiryEvent e = expiry_heap_.back();
    expiry_heap_.pop_back();
    Node& n = *nodes_[e.node];
    if (!n.buffer().has(e.msg)) continue;  // stale
    if (n.is_pinned(e.msg)) {
      expiry_deferred_.push_back(e);
      continue;
    }
    const Message dead = n.buffer().take(e.msg);
    n.priority_cache().invalidate(e.msg);
    registry_.on_copy_removed(e.msg, e.node, /*dropped=*/false);
    ++stats_.ttl_expired;
    notify([&](WorldObserver& o) { o.on_ttl_expired(e.node, dead, now_); });
  }
  for (const ExpiryEvent& e : expiry_deferred_) {
    push_expiry(e.node, e.expiry, e.msg);
  }
}

void World::start_transfers() {
  for (const NodePair& p : active_contacts()) {
    try_start(static_cast<NodeId>(p.first), static_cast<NodeId>(p.second));
    try_start(static_cast<NodeId>(p.second), static_cast<NodeId>(p.first));
  }
}

void World::try_start(NodeId from_id, NodeId to_id) {
  // Routers choose from the sender's buffer by contract: an empty buffer
  // can never yield a candidate, so skip the router (and the memo) — the
  // dominant case in sparse large-N fleets. Buffer admission rejects
  // size == 0, so used == 0 ⟺ empty and the hot-state byte count answers
  // it without touching the Node object. It is tested first: all three
  // early returns are free of side effects, and this one nearly always
  // decides alone, with one load instead of three.
  if (hot_.buffer_used[from_id] == 0) return;
  if (hot_.radio_busy[from_id] != 0 || hot_.radio_busy[to_id] != 0) return;
  Node& from = node(from_id);
  Node& to = node(to_id);
  if (cfg_.priority_cache) {
    if (const IdleMemo* m = idle_memo_.find(from_id, to_id)) {
      if (now_ - m->at <= cfg_.priority_refresh_s &&
          m->from_stamp == from.priority_cache().stamp() &&
          m->from_rev == from.buffer().revision() &&
          m->to_stamp == to.priority_cache().stamp() &&
          m->to_rev == to.buffer().revision()) {
        return;  // nothing was sendable and no priority input moved since
      }
      idle_memo_.erase(from_id, to_id);
    }
  }
  const auto msg = router_->next_to_send(from, to, ctx_for(from));
  if (!msg.has_value()) {
    if (cfg_.priority_cache) {
      idle_memo_.insert_or_assign(
          from_id, to_id,
          IdleMemo{now_, from.priority_cache().stamp(),
                   from.buffer().revision(), to.priority_cache().stamp(),
                   to.buffer().revision()});
    }
    return;
  }
  const Message* copy = from.buffer().find(*msg);
  DTN_REQUIRE(copy != nullptr, "router chose a message the node lacks");
  from.pin(*msg);
  from.set_radio_busy(true);
  to.set_radio_busy(true);
  Transfer t;
  t.from = from_id;
  t.to = to_id;
  t.msg = *msg;
  t.started = now_;
  double bandwidth = cfg_.bandwidth;
  if (fault_ != nullptr) {
    // Degraded endpoints throttle the link; the eta is fixed at start
    // (a window opening or closing mid-transfer does not retime it).
    bandwidth *= std::min(fault_->bitrate_factor(from_id),
                          fault_->bitrate_factor(to_id));
  }
  t.eta = now_ + static_cast<double>(copy->size) / bandwidth;
  t.seq = transfer_seq_++;
  outgoing_[from_id] = static_cast<std::int64_t>(transfers_.size());
  transfers_.push_back(t);
  eta_heap_.push_back(EtaEvent{t.eta, t.from, t.seq});
  std::push_heap(eta_heap_.begin(), eta_heap_.end(), &eta_after);
  ++stats_.transfers_started;
  notify([&t](WorldObserver& o) { o.on_transfer_started(t); });
}

void World::handle_drop(Node& n, const Message& m) {
  ++stats_.drops;
  registry_.on_copy_removed(m.id, n.id(), /*dropped=*/true);
  if (policy_->uses_dropped_list()) n.record_drop(m.id, now_);
  notify([&](WorldObserver& o) { o.on_drop(n.id(), m, now_); });
}

bool World::inject_message(Message m) {
  DTN_REQUIRE(m.source < nodes_.size(), "inject: source out of range");
  return admit_at_source(std::move(m));
}

void World::purge_acked(Node& n) {
  doomed_scratch_.clear();
  for (const Message& m : n.buffer().messages()) {
    if (n.knows_delivered(m.id) && !n.is_pinned(m.id)) {
      doomed_scratch_.push_back(m.id);
    }
  }
  for (MessageId id : doomed_scratch_) {
    n.buffer().take(id);
    n.priority_cache().invalidate(id);
    registry_.on_copy_removed(id, n.id(), /*dropped=*/false);
    ++stats_.ack_purged;
  }
}

void World::sample_occupancy() {
  // An empty buffer's term is +0.0, which leaves the sum unchanged, so
  // only nodes that hold bytes are read: at 100k nodes nearly none do.
  double total = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (hot_.buffer_used[i] != 0) total += nodes_[i]->buffer().occupancy();
  }
  stats_.buffer_occupancy.add(total / static_cast<double>(nodes_.size()));
}

namespace {

void write_pair_time_map(snapshot::ArchiveWriter& out,
                         const std::map<NodePair, double>& m) {
  out.u64(m.size());
  for (const auto& [p, t] : m) {  // std::map iterates sorted
    out.u64(p.first);
    out.u64(p.second);
    out.f64(t);
  }
}

void read_pair_time_map(snapshot::ArchiveReader& in, std::size_t n_nodes,
                        std::map<NodePair, double>& m) {
  m.clear();
  const std::size_t n = in.count(3 * snapshot::kTagged64Bytes);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = in.u64();
    const std::uint64_t b = in.u64();
    DTN_REQUIRE(a < b && b < n_nodes,
                "load_state: Fig. 3 pair is not two distinct node ids");
    const NodePair p{static_cast<std::size_t>(a), static_cast<std::size_t>(b)};
    // Saved strictly ascending; a repeat would collapse into one entry and
    // the restored world would re-save other bytes than it loaded.
    DTN_REQUIRE(m.empty() || std::prev(m.end())->first < p,
                "load_state: Fig. 3 pairs repeated or out of order");
    m.emplace_hint(m.end(), p, in.f64());
  }
}

void write_sample_vec(snapshot::ArchiveWriter& out,
                      const std::vector<double>& v) {
  out.u64(v.size());
  for (double s : v) out.f64(s);
}

void read_sample_vec(snapshot::ArchiveReader& in, std::vector<double>& v) {
  v.clear();
  const std::size_t n = in.count(snapshot::kTagged64Bytes);
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(in.f64());
}

}  // namespace

void World::save_state(snapshot::ArchiveWriter& out) const {
  DTN_REQUIRE(router_ != nullptr && policy_ != nullptr,
              "save_state: world not fully constructed");
  out.begin_section("world");
  out.f64(now_);
  out.f64(next_occupancy_sample_);
  out.u64(nodes_.size());
  // v7: a checkpoint writes each distinct drop record once, ahead of the
  // nodes, and each node names its records by table index. A digest
  // hashes every node's records in full (the v6 layout): which nodes
  // share a record depends on the run's history, not on its state.
  const bool shared_drops = !out.digest_only();
  sdsrp::DropRecordTable drops;
  if (shared_drops) {
    for (const auto& n : nodes_) drops.add(n->dropped_list());
    drops.save_state(out);
  }
  for (const auto& n : nodes_) {
    n->save_state(out, shared_drops ? &drops : nullptr);
  }
  tracker_.save_state(out);
  // Transfers are stored unordered (swap-pop removal); serialize sorted
  // by sender — unique per the radio-serialization invariant — so the
  // bytes depend only on simulation state, not removal history: a
  // restored run, which loads them in this order, hashes like the
  // uninterrupted one. `seq` is derived bookkeeping, reassigned on load.
  out.u64(transfers_.size());
  std::vector<std::size_t> order(transfers_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return transfers_[a].from < transfers_[b].from;
  });
  for (std::size_t i : order) {
    const Transfer& t = transfers_[i];
    out.u32(t.from);
    out.u32(t.to);
    out.u64(t.msg);
    out.f64(t.started);
    out.f64(t.eta);
  }
  out.boolean(gen_ != nullptr);
  if (gen_ != nullptr) gen_->save_state(out);
  registry_.save_state(out);
  stats_.save_state(out);
  router_->save_state(out);
  policy_->save_state(out);
  write_pair_time_map(out, pair_last_end_);
  write_pair_time_map(out, pair_up_since_);
  write_sample_vec(out, imt_samples_);
  write_sample_vec(out, contact_samples_);
  // v4: the fault plan is semantic state (hashed into digests) — two
  // worlds mid-outage differ even when their buffers agree. The live
  // contact set is derived (tracker ∩ plan flags ∩ positions) and is
  // recomputed on load.
  out.boolean(fault_ != nullptr);
  if (fault_ != nullptr) fault_->save_state(out);
  // The idle memo is a pure function of serialized state (same argument
  // as PriorityCache): skipped in digests, carried in checkpoints so a
  // restored run skips the same try_start calls an uninterrupted one does.
  if (!out.digest_only()) {
    out.u64(idle_memo_.size());
    idle_memo_.for_each_sorted(
        [&out](NodeId from, NodeId to, const IdleMemo& m) {
          out.u32(from);
          out.u32(to);
          out.f64(m.at);
          out.u64(m.from_stamp);
          out.u64(m.from_rev);
          out.u64(m.to_stamp);
          out.u64(m.to_rev);
        });
    // v5: the hint fields, written as (copies the fleet holds, 0 free).
    // Derived state: never hashed, and a restore only checks them against
    // the messages it restored (load_state).
    out.u64(copies_held());
    out.u64(0);
  }
  out.end_section();
}

void World::load_state(snapshot::ArchiveReader& in) {
  DTN_REQUIRE(router_ != nullptr && policy_ != nullptr,
              "load_state: world not fully constructed");
  in.begin_section("world");
  now_ = in.f64();
  next_occupancy_sample_ = in.f64();
  const std::uint64_t n_nodes = in.u64();
  DTN_REQUIRE(n_nodes == nodes_.size(),
              "load_state: node count does not match this world");
  // Every node that names a table entry gets the same record, so the
  // restored nodes share what the saved ones shared.
  const bool shared_drops = in.version() >= 7;
  sdsrp::DropRecordTable drops;
  if (shared_drops) drops.load_state(in, nodes_.size());
  for (auto& n : nodes_) n->load_state(in, shared_drops ? &drops : nullptr);
  if (shared_drops) drops.require_all_named();
  tracker_.load_state(in, nodes_.size());
  transfers_.clear();
  // from, to, msg, started, eta
  const std::size_t n_transfers = in.count(2 * snapshot::kTaggedU32Bytes +
                                           3 * snapshot::kTagged64Bytes);
  transfers_.reserve(n_transfers);
  for (std::size_t i = 0; i < n_transfers; ++i) {
    Transfer t;
    t.from = in.u32();
    t.to = in.u32();
    t.msg = in.u64();
    t.started = in.f64();
    t.eta = in.f64();
    transfers_.push_back(t);
  }
  const bool has_gen = in.boolean();
  DTN_REQUIRE(has_gen == (gen_ != nullptr),
              "load_state: traffic generator presence does not match");
  if (gen_ != nullptr) gen_->load_state(in);
  registry_.load_state(in);
  stats_.load_state(in);
  router_->load_state(in);
  policy_->load_state(in);
  read_pair_time_map(in, nodes_.size(), pair_last_end_);
  read_pair_time_map(in, nodes_.size(), pair_up_since_);
  read_sample_vec(in, imt_samples_);
  read_sample_vec(in, contact_samples_);
  if (in.version() >= 4) {
    const bool has_fault = in.boolean();
    DTN_REQUIRE(has_fault == (fault_ != nullptr),
                "load_state: fault plan presence does not match this world");
    if (fault_ != nullptr) fault_->load_state(in);
  } else {
    DTN_REQUIRE(fault_ == nullptr,
                "load_state: pre-v4 archive cannot restore a faulty world");
  }
  idle_memo_.clear();
  if (in.version() >= 2) {
    // from, to, at, two stamps and two revisions
    const std::size_t n_memo = in.count(2 * snapshot::kTaggedU32Bytes +
                                        5 * snapshot::kTagged64Bytes);
    idle_memo_.reserve(n_memo);
    for (std::size_t i = 0; i < n_memo; ++i) {
      const NodeId a = in.u32();
      const NodeId b = in.u32();
      IdleMemo m;
      m.at = in.f64();
      m.from_stamp = in.u64();
      m.from_rev = in.u64();
      m.to_stamp = in.u64();
      m.to_rev = in.u64();
      idle_memo_.insert_or_assign(a, b, m);
    }
  }
  if (in.version() >= 5) {
    // A high water and a free count: their difference is the copies the
    // buffers have just restored, or the hint is corrupt. Files written
    // while a slab arena held the copies may carry free slots. The hint
    // sizes nothing.
    const std::uint64_t high_water = in.u64();
    const std::uint64_t free_slots = in.u64();
    DTN_REQUIRE(
        free_slots <= high_water && high_water - free_slots == copies_held(),
        "load_state: copy hint does not match the restored messages");
  }
  in.end_section();
  rebuild_event_queues();
}

void World::rebuild_event_queues() {
  // The heaps are derived state: every live obligation is recoverable
  // from the restored buffers and transfer list, and the rebuilt heaps
  // are decision-equivalent to the originals — stale tombstones only
  // ever cause pops to be skipped, and pop order is defined by the
  // (strict, total) comparator key, not by heap layout.
  outgoing_.assign(nodes_.size(), -1);
  transfer_seq_ = 0;
  eta_heap_.clear();
  // The radio serializes: a node takes part in at most one transfer, as
  // sender or receiver.
  std::vector<std::uint8_t> busy(nodes_.size(), 0);
  for (std::size_t i = 0; i < transfers_.size(); ++i) {
    Transfer& t = transfers_[i];
    t.seq = transfer_seq_++;
    DTN_REQUIRE(t.from < nodes_.size() && t.to < nodes_.size() &&
                    t.to != t.from,
                "load_state: in-flight transfer is not between two fleet "
                "nodes");
    DTN_REQUIRE(busy[t.from] == 0 && busy[t.to] == 0,
                "load_state: a node takes part in two in-flight transfers");
    busy[t.from] = busy[t.to] = 1;
    // Completion and abort both read the sender's copy and drop its pin.
    const Node& from = *nodes_[t.from];
    DTN_REQUIRE(from.buffer().has(t.msg) && from.is_pinned(t.msg),
                "load_state: in-flight transfer's sender does not hold and "
                "pin its message");
    outgoing_[t.from] = static_cast<std::int64_t>(i);
    eta_heap_.push_back(EtaEvent{t.eta, t.from, t.seq});
  }
  std::make_heap(eta_heap_.begin(), eta_heap_.end(), &eta_after);
  // Pins and radio flags are derived from the transfers. A pin no
  // transfer drops keeps its copy past its TTL for good (purge_ttl
  // re-queues pinned copies); a busy flag on an idle node silences it; a
  // cleared flag on a sender lets it start a second transfer over the
  // first one's outgoing_ entry.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = *nodes_[i];
    DTN_REQUIRE(n.pinned().size() == (outgoing_[i] >= 0 ? 1u : 0u),
                "load_state: a node pins a copy no in-flight transfer sends");
    DTN_REQUIRE(n.radio_busy() == (busy[i] != 0),
                "load_state: a node's radio flag disagrees with the in-flight "
                "transfers");
  }
  expiry_heap_.clear();
  for (const auto& n : nodes_) {
    for (const Message& m : n->buffer().messages()) {
      expiry_heap_.push_back(ExpiryEvent{m.expiry(), n->id(), m.id});
    }
  }
  std::make_heap(expiry_heap_.begin(), expiry_heap_.end(), &expiry_after);
  // The live contact set is derived: the restored tracker pairs filtered
  // through the restored plan flags at the restored positions reproduce
  // exactly the set the interrupted run held.
  if (fault_ != nullptr) compute_live_contacts(live_contacts_);
}

std::uint64_t World::copies_held() const {
  std::uint64_t copies = 0;
  for (const auto& n : nodes_) copies += n->buffer().count();
  return copies;
}

std::uint64_t World::digest() const {
  snapshot::ArchiveWriter w(snapshot::ArchiveWriter::Mode::kDigestOnly);
  save_state(w);
  return w.digest();
}

}  // namespace dtn
