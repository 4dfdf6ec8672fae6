// Archive backward compatibility.
//
// tests/fixtures/ holds small checkpoints written by the actual v1–v6
// code (generated from the historical commits; see fixtures/manifest.txt).
// The current reader must restore each one bit-for-bit (pinned restore
// digest) and resume it to the end of the run deterministically (pinned
// end digest).
//
// v2–v6 additionally must finish *equal to a current cold run*: what
// those versions added (idle memo, kinetic contact bookkeeping, fault
// state defaults, arena sizing hints) is derived-but-deterministic
// state, so losing it cannot change decisions. v6 is the current
// version, so the current writer must also reproduce it byte for byte.
// v1 predates the priority cache, so a v1 resume legitimately diverges
// from a warm-cache cold run (staleness within the refresh quantum); its
// end digest is pinned instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/snapshot/checkpoint.hpp"

#ifndef DTN_FIXTURE_DIR
#error "DTN_FIXTURE_DIR must point at tests/fixtures"
#endif

namespace dtn {
namespace {

struct Pinned {
  std::uint64_t restore_digest = 0;
  std::uint64_t end_digest = 0;
};

std::map<std::string, Pinned> load_manifest() {
  std::map<std::string, Pinned> pins;
  std::ifstream is(std::string(DTN_FIXTURE_DIR) + "/manifest.txt");
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string file, restore_hex, end_hex;
    ls >> file >> restore_hex >> end_hex;
    pins[file] = Pinned{std::stoull(restore_hex, nullptr, 16),
                        std::stoull(end_hex, nullptr, 16)};
  }
  return pins;
}

// The scenario the fixtures were generated from (the historical
// generators used the same literals; the checkpoint embeds it anyway).
Scenario fixture_scenario() {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 24;
  sc.world.duration = 4000.0;
  sc.rwp.area = Rect::sized(1500.0, 1200.0);
  sc.traffic.interval_min = 30.0;
  sc.traffic.interval_max = 40.0;
  sc.traffic.ttl = 2000.0;
  sc.traffic.initial_copies = 8;
  sc.policy = "sdsrp";
  sc.seed = 7;
  return sc;
}

class ArchiveCompat : public ::testing::TestWithParam<const char*> {};

TEST_P(ArchiveCompat, OldCheckpointRestoresAndResumes) {
  const std::string file = GetParam();
  const auto pins = load_manifest();
  const auto it = pins.find(file);
  ASSERT_NE(it, pins.end()) << "no manifest entry for " << file;

  auto restored = snapshot::restore_checkpoint(
      std::string(DTN_FIXTURE_DIR) + "/" + file);
  EXPECT_EQ(restored.scenario.seed, 7u);
  EXPECT_EQ(restored.scenario.policy, "sdsrp");
  EXPECT_EQ(restored.world->now(), 2000.0);
  EXPECT_EQ(restored.world->digest(), it->second.restore_digest)
      << file << ": restored state drifted";

  restored.world->run();
  EXPECT_EQ(restored.world->digest(), it->second.end_digest)
      << file << ": resumed run drifted";
}

INSTANTIATE_TEST_SUITE_P(Versions, ArchiveCompat,
                         ::testing::Values("v1_rwp_sdsrp.ckpt",
                                           "v2_rwp_sdsrp.ckpt",
                                           "v3_rwp_sdsrp.ckpt",
                                           "v4_rwp_sdsrp.ckpt",
                                           "v5_rwp_sdsrp.ckpt",
                                           "v6_rwp_sdsrp.ckpt"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param).substr(0, 2);
                         });

TEST(ArchiveCompat, DerivedStateVersionsFinishEqualToColdRun) {
  auto cold = build_world(fixture_scenario());
  cold->run();
  const std::uint64_t cold_digest = cold->digest();
  for (const char* file :
       {"v2_rwp_sdsrp.ckpt", "v3_rwp_sdsrp.ckpt", "v4_rwp_sdsrp.ckpt",
        "v5_rwp_sdsrp.ckpt", "v6_rwp_sdsrp.ckpt"}) {
    auto restored = snapshot::restore_checkpoint(
        std::string(DTN_FIXTURE_DIR) + "/" + file);
    restored.world->run();
    EXPECT_EQ(restored.world->digest(), cold_digest)
        << file << ": losing derived state changed decisions";
  }
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
}

// v6 is the current format: saving the fixture world at the fixture's
// time must reproduce the committed file byte for byte, trailer included,
// so any change to the writer that moves a byte fails here.
TEST(ArchiveCompat, CurrentWriterReproducesV6Fixture) {
  const Scenario sc = fixture_scenario();
  auto world = build_world(sc);
  world->run_until(2000.0);
  const std::string path = ::testing::TempDir() + "v6_rewrite.ckpt";
  snapshot::save_checkpoint(path, sc, *world);
  const std::vector<char> fixture =
      file_bytes(std::string(DTN_FIXTURE_DIR) + "/v6_rwp_sdsrp.ckpt");
  ASSERT_FALSE(fixture.empty());
  EXPECT_TRUE(file_bytes(path) == fixture)
      << "current writer no longer reproduces v6_rwp_sdsrp.ckpt";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dtn
