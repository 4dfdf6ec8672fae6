#include "src/fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

namespace {

bool event_after(const FaultPlan::Event& a, const FaultPlan::Event& b) {
  // std::push_heap et al. expect "less", so order *after*; ties break on
  // the full key for determinism (kind before node: a down always
  // precedes an up scheduled for the same instant).
  return std::tie(a.at, a.kind, a.node) > std::tie(b.at, b.kind, b.node);
}

}  // namespace

void FaultConfig::validate() const {
  DTN_REQUIRE(churn_fraction >= 0.0 && churn_fraction <= 1.0,
              "Fault.churnFraction must be in [0, 1]");
  DTN_REQUIRE(mean_up_s > 0.0, "Fault.meanUpS must be positive");
  DTN_REQUIRE(mean_down_s > 0.0, "Fault.meanDownS must be positive");
  DTN_REQUIRE(link_abort_rate_per_hour >= 0.0,
              "Fault.linkAbortRatePerHour must be non-negative");
  DTN_REQUIRE(degrade_rate_per_hour >= 0.0,
              "Fault.degradeRatePerHour must be non-negative");
  DTN_REQUIRE(degrade_duration_s > 0.0,
              "Fault.degradeDurationS must be positive");
  DTN_REQUIRE(degrade_range_factor > 0.0 && degrade_range_factor <= 1.0,
              "Fault.degradeRangeFactor must be in (0, 1]");
  DTN_REQUIRE(degrade_bitrate_factor > 0.0 && degrade_bitrate_factor <= 1.0,
              "Fault.degradeBitrateFactor must be in (0, 1]");
}

FaultPlan::FaultPlan(const FaultConfig& cfg, std::size_t n_nodes,
                     std::uint64_t seed)
    : cfg_(cfg),
      rng_(seed),
      up_(n_nodes, 1),
      degraded_(n_nodes, 0),
      down_since_(n_nodes, 0.0) {
  cfg_.validate();
  DTN_REQUIRE(n_nodes > 0, "FaultPlan: need at least one node");
  schedule_initial();
}

double FaultPlan::holding(double mean_s) {
  return rng_.exponential(1.0 / mean_s);
}

void FaultPlan::push(SimTime at, Kind kind, NodeId node) {
  heap_.push_back(Event{at, kind, node, 0.0});
  std::push_heap(heap_.begin(), heap_.end(), &event_after);
}

void FaultPlan::schedule_initial() {
  const auto n = static_cast<NodeId>(up_.size());
  // Fixed draw order: churn participation + first down per node, then
  // first degradation window per node, then the first global link abort.
  if (cfg_.churn_fraction > 0.0) {
    for (NodeId i = 0; i < n; ++i) {
      if (rng_.bernoulli(cfg_.churn_fraction)) {
        push(holding(cfg_.mean_up_s), Kind::kNodeDown, i);
      }
    }
  }
  if (cfg_.degrade_rate_per_hour > 0.0) {
    const double mean = 3600.0 / cfg_.degrade_rate_per_hour;
    for (NodeId i = 0; i < n; ++i) {
      push(holding(mean), Kind::kDegradeStart, i);
    }
  }
  if (cfg_.link_abort_rate_per_hour > 0.0) {
    push(holding(3600.0 / cfg_.link_abort_rate_per_hour), Kind::kLinkAbort,
         kNoNode);
  }
}

bool FaultPlan::pop_due(SimTime now, Event* out) {
  if (heap_.empty() || heap_.front().at > now) return false;
  std::pop_heap(heap_.begin(), heap_.end(), &event_after);
  Event e = heap_.back();
  heap_.pop_back();
  switch (e.kind) {
    case Kind::kNodeDown:
      DTN_REQUIRE(up_[e.node], "fault: down event for a down node");
      up_[e.node] = 0;
      ++down_count_;
      down_since_[e.node] = e.at;
      push(e.at + holding(cfg_.mean_down_s), Kind::kNodeUp, e.node);
      break;
    case Kind::kNodeUp:
      DTN_REQUIRE(!up_[e.node], "fault: up event for an up node");
      up_[e.node] = 1;
      --down_count_;
      e.down_duration = e.at - down_since_[e.node];
      push(e.at + holding(cfg_.mean_up_s), Kind::kNodeDown, e.node);
      break;
    case Kind::kLinkAbort:
      push(e.at + holding(3600.0 / cfg_.link_abort_rate_per_hour),
           Kind::kLinkAbort, kNoNode);
      break;
    case Kind::kDegradeStart:
      DTN_REQUIRE(!degraded_[e.node], "fault: degrade start while degraded");
      degraded_[e.node] = 1;
      ++degraded_count_;
      // Windows never overlap per node: the next arrival is drawn when
      // this window closes.
      push(e.at + cfg_.degrade_duration_s, Kind::kDegradeEnd, e.node);
      break;
    case Kind::kDegradeEnd:
      DTN_REQUIRE(degraded_[e.node], "fault: degrade end while healthy");
      degraded_[e.node] = 0;
      --degraded_count_;
      push(e.at + holding(3600.0 / cfg_.degrade_rate_per_hour),
           Kind::kDegradeStart, e.node);
      break;
  }
  *out = e;
  return true;
}

std::size_t FaultPlan::pick_index(std::size_t n) {
  DTN_REQUIRE(n > 0, "fault: pick_index over empty set");
  return static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

void FaultPlan::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("fault-plan");
  snapshot::write_rng(out, rng_);
  out.u64(up_.size());
  for (std::size_t i = 0; i < up_.size(); ++i) {
    out.boolean(up_[i] != 0);
    out.boolean(degraded_[i] != 0);
    out.f64(down_since_[i]);
  }
  // Canonical order: the heap layout depends on push history, the sorted
  // event list only on the pending schedule.
  std::vector<Event> events = heap_;
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return event_after(b, a); });
  out.u64(events.size());
  for (const Event& e : events) {
    out.f64(e.at);
    out.u8(static_cast<std::uint8_t>(e.kind));
    out.u32(e.node);
  }
  out.end_section();
}

void FaultPlan::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("fault-plan");
  snapshot::read_rng(in, rng_);
  const std::uint64_t n = in.u64();
  DTN_REQUIRE(n == up_.size(),
              "fault-plan: snapshot node count does not match this plan");
  down_count_ = 0;
  degraded_count_ = 0;
  for (std::size_t i = 0; i < up_.size(); ++i) {
    up_[i] = in.boolean() ? 1 : 0;
    degraded_[i] = in.boolean() ? 1 : 0;
    down_since_[i] = in.f64();
    if (!up_[i]) ++down_count_;
    if (degraded_[i]) ++degraded_count_;
  }
  heap_.clear();
  // at, kind, node
  const std::size_t ne =
      in.count(snapshot::kTagged64Bytes + snapshot::kTaggedU8Bytes +
               snapshot::kTaggedU32Bytes);
  heap_.reserve(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    Event e;
    e.at = in.f64();
    const std::uint8_t kind = in.u8();
    DTN_REQUIRE(kind <= static_cast<std::uint8_t>(Kind::kDegradeEnd),
                "fault-plan: unknown event kind in snapshot");
    e.kind = static_cast<Kind>(kind);
    e.node = in.u32();
    heap_.push_back(e);
  }
  std::make_heap(heap_.begin(), heap_.end(), &event_after);
  in.end_section();
}

}  // namespace dtn
