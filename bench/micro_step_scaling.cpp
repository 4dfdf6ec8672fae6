// Step-loop scaling microbenchmark: random-waypoint worlds with the
// Table II parameters at growing fleet sizes, legacy scan-based step loop
// vs the event-driven core (expiry/ETA heaps + kinetic contact
// skipping), for FIFO and SDSRP. The two paths are decision-identical by
// construction, so each (N, policy) cell also compares end-of-run
// digests — `event_digest_matches_legacy` in the JSON is the AND over
// every cell and is gated by CI.
//
// Each row's `mode` names the world it builds (`area_w_m`/`area_h_m`
// record its area):
//   * `table2` (100 nodes): the Table II scenario as-is;
//   * `constant-density` (126/500/2000 nodes): the area grows with N so
//     node density stays at Table II's; both paths are timed over the
//     full horizon;
//   * `large-n-constant-density` (10k/100k nodes): the same density,
//     exercising the data-oriented core — SoA hot state, arena-pooled
//     messages, dense spatial grid (DESIGN.md §14). The legacy path's
//     O(N·messages) scans make full horizons impractical there, so the
//     digest gate runs both paths over a short window and only the event
//     path is timed in full.
//
//   ./micro_step_scaling [warm_s] [measure_s] [out.json]
//
// Writes a JSON report (default BENCH_step_scaling.json); the committed
// copy at the repo root is produced with the default full horizons.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/fig_common.hpp"
#include "src/config/scenario.hpp"

namespace {

struct RunResult {
  double steps_per_sec = 0.0;
  double wall_s = 0.0;
  std::size_t delivered = 0;
  std::uint64_t digest = 0;
};

dtn::Scenario scaled_scenario(std::size_t nodes, const std::string& policy,
                              bool legacy) {
  dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
  if (nodes > sc.n_nodes) {
    // Constant density: grow the area with the fleet so contact rates per
    // node (and thus per-step work per node) match the paper scenario.
    const double scale = std::sqrt(static_cast<double>(nodes) /
                                   static_cast<double>(sc.n_nodes));
    sc.rwp.area = dtn::Rect::sized(sc.rwp.area.width() * scale,
                                   sc.rwp.area.height() * scale);
  }
  sc.n_nodes = nodes;
  sc.policy = policy;
  sc.world.legacy_step = legacy;
  return sc;
}

/// The `mode` label of the world scaled_scenario builds for `nodes`.
const char* world_label(std::size_t nodes) {
  return nodes <= dtn::Scenario::random_waypoint_paper().n_nodes
             ? "table2"
             : "constant-density";
}

RunResult run_one(std::size_t nodes, const std::string& policy, bool legacy,
                  double warm_s, double measure_s) {
  dtn::Scenario sc = scaled_scenario(nodes, policy, legacy);
  sc.world.duration = warm_s + measure_s;
  auto world = dtn::build_world(sc);
  world->run_until(warm_s);
  const auto t0 = std::chrono::steady_clock::now();
  world->run_until(warm_s + measure_s);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  const double steps = measure_s / sc.world.step;
  r.steps_per_sec = r.wall_s > 0.0 ? steps / r.wall_s : 0.0;
  r.delivered = world->stats().delivered;
  r.digest = world->digest();
  return r;
}

std::string row_json(std::size_t n, const std::string& policy,
                     const char* mode, double legacy_sps, double event_sps,
                     std::size_t delivered, bool match) {
  const double speedup = legacy_sps > 0.0 ? event_sps / legacy_sps : 0.0;
  const dtn::Rect area = scaled_scenario(n, policy, false).rwp.area;
  return "    {\"nodes\": " + std::to_string(n) + ", \"policy\": \"" +
         policy + "\", \"mode\": \"" + mode +
         "\", \"area_w_m\": " + std::to_string(area.width()) +
         ", \"area_h_m\": " + std::to_string(area.height()) +
         ", \"legacy_steps_per_sec\": " + std::to_string(legacy_sps) +
         ", \"event_steps_per_sec\": " + std::to_string(event_sps) +
         ", \"speedup\": " + std::to_string(speedup) +
         ", \"delivered\": " + std::to_string(delivered) +
         ", \"digest_match\": " + (match ? "true" : "false") + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const double warm_s = argc > 1 ? std::strtod(argv[1], nullptr) : 300.0;
  const double measure_s = argc > 2 ? std::strtod(argv[2], nullptr) : 1500.0;
  const std::string out_path = argc > 3 ? argv[3] : "BENCH_step_scaling.json";

  const std::vector<std::size_t> fleet_sizes{100, 126, 500, 2000};
  const std::vector<std::string> policies{"fifo", "sdsrp"};

  std::cout << "RWP step scaling (Table II parameters), warm " << warm_s
            << " s, measure " << measure_s << " s\n";

  bool all_digests_match = true;
  std::string rows;
  for (const std::size_t n : fleet_sizes) {
    for (const std::string& policy : policies) {
      const RunResult legacy = run_one(n, policy, true, warm_s, measure_s);
      const RunResult event = run_one(n, policy, false, warm_s, measure_s);
      const bool match = legacy.digest == event.digest;
      all_digests_match = all_digests_match && match;
      std::cout << "  N=" << n << " " << policy << " (" << world_label(n)
                << "): legacy " << legacy.steps_per_sec << " steps/s, event "
                << event.steps_per_sec << " steps/s, speedup "
                << (legacy.steps_per_sec > 0.0
                        ? event.steps_per_sec / legacy.steps_per_sec
                        : 0.0)
                << "x, digest " << (match ? "match" : "MISMATCH") << "\n";
      if (!rows.empty()) rows += ",\n";
      rows += row_json(n, policy, world_label(n), legacy.steps_per_sec,
                       event.steps_per_sec, event.delivered, match);
    }
  }

  // Large-N constant-density rows. The digest gate compares both paths
  // over a window the legacy path can afford; the event path is then
  // timed over the (longer) measure horizon on its own.
  struct LargeRow {
    std::size_t nodes;
    double gate_s;     ///< digest-gate window (both paths)
    double warm_s;
    double measure_s;  ///< event-path timing window
  };
  const std::vector<LargeRow> large{
      {10'000, std::min(measure_s, 120.0), std::min(warm_s, 60.0),
       std::min(measure_s, 300.0)},
      {100'000, std::min(measure_s, 30.0), std::min(warm_s, 20.0),
       std::min(measure_s, 120.0)},
  };
  for (const LargeRow& lr : large) {
    const std::string policy = "fifo";
    const RunResult legacy_gate =
        run_one(lr.nodes, policy, true, 0.0, lr.gate_s);
    const RunResult event_gate =
        run_one(lr.nodes, policy, false, 0.0, lr.gate_s);
    const bool match = legacy_gate.digest == event_gate.digest;
    all_digests_match = all_digests_match && match;
    const RunResult event =
        run_one(lr.nodes, policy, false, lr.warm_s, lr.measure_s);
    std::cout << "  N=" << lr.nodes << " " << policy
              << " (constant density): event " << event.steps_per_sec
              << " steps/s, gate window " << lr.gate_s << " s digest "
              << (match ? "match" : "MISMATCH") << "\n";
    rows += ",\n" + row_json(lr.nodes, policy, "large-n-constant-density",
                             0.0, event.steps_per_sec, event.delivered,
                             match);
  }

  std::ofstream out(out_path);
  out << "{\n"
      << dtn::bench::bench_env_json_fields()
      << "  \"warm_s\": " << warm_s << ",\n"
      << "  \"measure_s\": " << measure_s << ",\n"
      << "  \"results\": [\n"
      << rows << "\n"
      << "  ],\n"
      << "  \"event_digest_matches_legacy\": "
      << (all_digests_match ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return all_digests_match ? 0 : 1;
}
