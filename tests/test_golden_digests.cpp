// Golden digest pins.
//
// The paper's four policies on both paper scenarios (scaled down) are run
// to completion and their World::digest() compared against the committed
// fixture tests/golden/digests.txt. Any behavior change — intended or not
// — moves a digest and fails here, so silent drift is caught by ctest
// instead of surfacing later in EXPERIMENTS.md reruns.
//
// tests/golden/trajectories.txt pins digest *trajectories* — digests at
// several times of one run — for the worlds the step loop's correctness
// rests on, and the StepOracle (tests/support/step_oracle.hpp) checks
// every step of each small one against a brute-force re-derivation.
//
// Regenerating after an *intended* change:
//   DTN_REGEN_GOLDEN=1 ./build/tests/test_golden_digests
// rewrites both fixtures in the source tree; commit the diff with the
// change that moved it. The pins hash IEEE-754 arithmetic, so they are
// compiler/libm-sensitive in principle; CI and the dev container share a
// toolchain, and a mismatch from a toolchain change is also worth seeing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/config/scenario.hpp"
#include "tests/support/shared_worlds.hpp"
#include "tests/support/step_oracle.hpp"

#ifndef DTN_GOLDEN_DIR
#error "DTN_GOLDEN_DIR must point at tests/golden"
#endif

namespace dtn {
namespace {

const char* const kPolicies[] = {"fifo", "ttl-ratio", "copies-ratio",
                                 "sdsrp"};
const char* const kScenarios[] = {"rwp", "taxi"};

Scenario pinned_scenario(const std::string& which, const std::string& policy) {
  Scenario sc = which == "taxi" ? Scenario::taxi_paper()
                                : Scenario::random_waypoint_paper();
  sc.n_nodes = 24;
  sc.world.duration = 4000.0;
  sc.rwp.area = Rect::sized(1500.0, 1200.0);
  sc.traffic.interval_min = 30.0;
  sc.traffic.interval_max = 40.0;
  sc.traffic.ttl = 2000.0;
  sc.traffic.initial_copies = 8;
  sc.policy = policy;
  sc.seed = 7;
  return sc;
}

std::string fixture_path() {
  return std::string(DTN_GOLDEN_DIR) + "/digests.txt";
}

std::string key_of(const std::string& scenario, const std::string& policy) {
  return scenario + " " + policy;
}

std::string hex_of(std::uint64_t digest) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  return hex;
}

/// A fixture line is its key, a space and a hex digest; '#' starts a
/// comment line.
std::map<std::string, std::uint64_t> load_pins(const std::string& path) {
  std::map<std::string, std::uint64_t> pins;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    pins[line.substr(0, space)] =
        std::stoull(line.substr(space + 1), nullptr, 16);
  }
  return pins;
}

std::uint64_t run_digest(const std::string& scenario,
                         const std::string& policy) {
  auto world = build_world(pinned_scenario(scenario, policy));
  world->run();
  return world->digest();
}

TEST(GoldenDigests, EndOfRunDigestsMatchPins) {
  if (std::getenv("DTN_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(fixture_path(), std::ios::trunc);
    ASSERT_TRUE(os.good()) << "cannot write " << fixture_path();
    os << "# End-of-run World::digest() pins (see test_golden_digests.cpp).\n"
       << "# Regenerate with: DTN_REGEN_GOLDEN=1 ./test_golden_digests\n";
    for (const char* scenario : kScenarios) {
      for (const char* policy : kPolicies) {
        os << key_of(scenario, policy) << " "
           << hex_of(run_digest(scenario, policy)) << "\n";
      }
    }
    GTEST_SKIP() << "regenerated " << fixture_path();
  }

  const auto pins = load_pins(fixture_path());
  ASSERT_EQ(pins.size(), 8u) << "fixture missing or incomplete: "
                             << fixture_path();
  for (const char* scenario : kScenarios) {
    for (const char* policy : kPolicies) {
      const auto it = pins.find(key_of(scenario, policy));
      ASSERT_NE(it, pins.end()) << "no pin for " << scenario << "/" << policy;
      EXPECT_EQ(run_digest(scenario, policy), it->second)
          << scenario << "/" << policy
          << " drifted; if intended, regenerate with DTN_REGEN_GOLDEN=1";
    }
  }
}

// --- digest trajectories ---

/// A world tests/golden/trajectories.txt pins: its digest at each time
/// in `at`, keyed "<name> <t>".
struct PinnedWorld {
  std::string name;
  std::function<std::unique_ptr<World>()> build;
  std::vector<double> at;
};

std::vector<double> every(double period, double until) {
  std::vector<double> at;
  for (double t = period; t <= until + 1e-9; t += period) at.push_back(t);
  return at;
}

PinnedWorld scenario_world(std::string name, const Scenario& sc,
                           std::vector<double> at) {
  return {std::move(name), [sc] { return build_world(sc); }, std::move(at)};
}

/// The paper scenarios under the four paper policies; a saturated buffer
/// that drives evictions, source rejections and drop-list gossip; the
/// four fault worlds; a mass TTL expiry; and 10,000 nodes at Table II
/// density (the area grows by √(N/100)), where the dense grid and the
/// kinetic skip run at scale.
std::vector<PinnedWorld> pinned_worlds() {
  std::vector<PinnedWorld> worlds;
  for (const char* which : kScenarios) {
    for (const char* policy : kPolicies) {
      const bool taxi = std::string(which) == "taxi";
      Scenario sc =
          taxi ? Scenario::taxi_paper() : Scenario::random_waypoint_paper();
      sc.policy = policy;
      sc.world.duration = taxi ? 1500.0 : 1800.0;
      worlds.push_back(
          scenario_world(std::string("paper-") + which + "-" + policy, sc,
                         every(300.0, sc.world.duration)));
    }
  }
  Scenario tight = Scenario::random_waypoint_paper();
  tight.world.duration = 1500.0;
  tight.buffer_capacity = 1'250'000;
  worlds.push_back(
      scenario_world("paper-rwp-tight-buffer", tight, every(300.0, 1500.0)));
  for (const char* policy : kPolicies) {
    const Scenario sc = faulty_scenario(policy);
    worlds.push_back(scenario_world(std::string("faults-rwp-") + policy, sc,
                                    every(300.0, sc.world.duration)));
  }
  worlds.push_back({"mass-expiry", mass_expiry_world, every(10.0, 60.0)});
  Scenario large = Scenario::random_waypoint_paper();
  const double scale = std::sqrt(10'000.0 / static_cast<double>(large.n_nodes));
  large.rwp.area = Rect::sized(large.rwp.area.width() * scale,
                               large.rwp.area.height() * scale);
  large.n_nodes = 10'000;
  large.policy = "fifo";
  large.world.duration = 120.0;
  worlds.push_back(scenario_world("const-density-10k-fifo", large, {120.0}));
  return worlds;
}

std::string trajectory_path() {
  return std::string(DTN_GOLDEN_DIR) + "/trajectories.txt";
}

std::string sample_key(const PinnedWorld& pw, double t) {
  char at[32];
  std::snprintf(at, sizeof at, "%g", t);
  return pw.name + " " + at;
}

/// The oracle's brute-force pass is O(N²) per step: fleets above this
/// size run on their pins alone.
constexpr std::size_t kOracleMaxNodes = 200;

TEST(GoldenTrajectories, DigestsMatchPinsUnderStepOracle) {
  const std::vector<PinnedWorld> worlds = pinned_worlds();
  if (std::getenv("DTN_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(trajectory_path(), std::ios::trunc);
    ASSERT_TRUE(os.good()) << "cannot write " << trajectory_path();
    os << "# World::digest() trajectories (see test_golden_digests.cpp):\n"
       << "# <world> <t> <digest at t>.\n"
       << "# Regenerate with: DTN_REGEN_GOLDEN=1 ./test_golden_digests\n";
    for (const PinnedWorld& pw : worlds) {
      auto w = pw.build();
      for (const double t : pw.at) {
        w->run_until(t);
        os << sample_key(pw, t) << " " << hex_of(w->digest()) << "\n";
      }
    }
    GTEST_SKIP() << "regenerated " << trajectory_path();
  }

  const auto pins = load_pins(trajectory_path());
  std::size_t samples = 0;
  for (const PinnedWorld& pw : worlds) samples += pw.at.size();
  ASSERT_EQ(pins.size(), samples)
      << "fixture missing or incomplete: " << trajectory_path();
  for (const PinnedWorld& pw : worlds) {
    auto w = pw.build();
    StepOracle oracle;
    const bool watched = w->node_count() <= kOracleMaxNodes;
    if (watched) w->add_observer(&oracle);
    for (const double t : pw.at) {
      w->run_until(t);
      const auto it = pins.find(sample_key(pw, t));
      ASSERT_NE(it, pins.end()) << "no pin for " << sample_key(pw, t);
      EXPECT_EQ(w->digest(), it->second)
          << sample_key(pw, t)
          << " drifted; if intended, regenerate with DTN_REGEN_GOLDEN=1";
    }
    if (watched) {
      EXPECT_EQ(oracle.steps(), static_cast<std::size_t>(std::llround(
                                    pw.at.back() / w->config().step)))
          << pw.name;
      EXPECT_EQ(oracle.violations(), 0u) << pw.name << oracle.report();
    }
  }
}

}  // namespace
}  // namespace dtn
