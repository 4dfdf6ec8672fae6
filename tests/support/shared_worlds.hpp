// Worlds that a test file checks in its own right and that
// tests/golden/trajectories.txt also pins (test_golden_digests.cpp),
// built in one place so the pins and the tests watch the same world.
#pragma once

#include <memory>
#include <string>

#include "src/buffer/fifo.hpp"
#include "src/config/scenario.hpp"
#include "src/core/world.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"
#include "src/util/error.hpp"

namespace dtn {

/// Scaled-down Table II world with every fault mechanism active
/// (test_faults).
inline Scenario faulty_scenario(const std::string& policy) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 24;
  sc.world.duration = 4000.0;
  sc.rwp.area = Rect::sized(1500.0, 1200.0);
  sc.traffic.interval_min = 30.0;
  sc.traffic.interval_max = 40.0;
  sc.traffic.ttl = 2000.0;
  sc.traffic.initial_copies = 8;
  sc.policy = policy;
  sc.seed = 7;
  sc.fault.enabled = true;
  sc.fault.churn_fraction = 0.5;
  sc.fault.mean_up_s = 600.0;
  sc.fault.mean_down_s = 300.0;
  sc.fault.link_abort_rate_per_hour = 60.0;
  sc.fault.degrade_rate_per_hour = 6.0;
  sc.fault.degrade_duration_s = 120.0;
  sc.fault.degrade_range_factor = 0.6;
  sc.fault.degrade_bitrate_factor = 0.5;
  return sc;
}

/// Eight stationary nodes 1 km apart, far out of range, each holding 40
/// single-copy messages: no transfer ever starts, and all 320 copies
/// expire together at t = 50 (test_step_loop's MassExpiry).
inline std::unique_ptr<World> mass_expiry_world() {
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 200.0;
  cfg.range = 10.0;
  cfg.bandwidth = 1e9;
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  for (int i = 0; i < 8; ++i) {
    w->add_node(std::make_unique<StationaryModel>(
                    Vec2{static_cast<double>(i) * 1000.0, 0.0}),
                1'000'000);
  }
  MessageId id = 1;
  for (NodeId n = 0; n < 8; ++n) {
    for (int k = 0; k < 40; ++k) {
      Message m;
      m.id = id++;
      m.source = n;
      m.destination = (n + 1) % 8;
      m.size = 10;
      m.ttl = 50.0;
      m.copies = 1;  // wait phase: no spraying, buffers stay put
      m.initial_copies = 1;
      DTN_REQUIRE(w->inject_message(m), "mass_expiry_world: admission");
    }
  }
  return w;
}

}  // namespace dtn
