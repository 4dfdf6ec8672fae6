// Click-style pipeline tests (DESIGN.md §15).
//
// The heart of this file is the golden identity proof: an element-graph
// build of each paper policy (FIFO, Random, GBSD, SDSRP) must be
// digest-*identical* to the legacy closed-class build — not "close", the
// same FNV-1a trajectory through the whole run — on both paper
// scenarios. The pipeline pins live in tests/golden/pipeline_digests.txt
// (regenerate with DTN_REGEN_GOLDEN=1 after an intended change); where a
// legacy pin exists in digests.txt the pipeline pin must equal it.
//
// Around that: parser diagnostics (position-bearing rejection of
// malformed graphs), ScenarioSettings round-trips, the CongestionGate
// element (inert above threshold 1, active below, deterministic), and
// composite checkpoint save/restore under archive v6.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/config/scenario.hpp"
#include "src/pipeline/compile.hpp"
#include "src/pipeline/composite_policy.hpp"
#include "src/pipeline/congestion_gate.hpp"
#include "src/pipeline/parser.hpp"
#include "src/snapshot/checkpoint.hpp"
#include "src/util/settings.hpp"

#ifndef DTN_GOLDEN_DIR
#error "DTN_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef DTN_SCENARIO_DIR
#error "DTN_SCENARIO_DIR must point at scenarios/"
#endif

namespace dtn {
namespace {

// The four paper policies as element graphs. DropTail(lowest) flattens
// to the scalar's closed class; fifo/random use their canonical drop
// elements.
struct PolicyPipeline {
  const char* key;   ///< legacy Policy.name
  const char* spec;  ///< equivalent element graph
};
const PolicyPipeline kPolicyPipelines[] = {
    {"fifo", "SprayAndWait -> PriorityQueue(fifo) -> DropHead"},
    {"random", "SprayAndWait -> PriorityQueue(random) -> DropRandom"},
    {"gbsd", "SprayAndWait -> PriorityQueue(gbsd) -> DropTail(lowest)"},
    {"sdsrp", "SprayAndWait -> PriorityQueue(sdsrp) -> DropTail(lowest)"},
};
const char* const kScenarios[] = {"rwp", "taxi"};

// Same literals as test_golden_digests.cpp's pinned scenario.
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

Scenario pipeline_scenario(const std::string& which, const std::string& spec) {
  Scenario sc = pinned_scenario(which, "sdsrp");
  sc.pipeline = spec;
  return sc;
}

std::uint64_t end_digest(const Scenario& sc) {
  auto world = build_world(sc);
  world->run();
  return world->digest();
}

std::map<std::string, std::uint64_t> load_pin_file(const std::string& path) {
  std::map<std::string, std::uint64_t> pins;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string scenario, policy, hex;
    ls >> scenario >> policy >> hex;
    pins[scenario + " " + policy] = std::stoull(hex, nullptr, 16);
  }
  return pins;
}

std::string pipeline_fixture_path() {
  return std::string(DTN_GOLDEN_DIR) + "/pipeline_digests.txt";
}

// --- tentpole: element graphs are digest-identical to closed classes ---

using PipelineCase = std::tuple<const char*, const PolicyPipeline*>;

class PipelineIdentity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelineIdentity, TrajectoryMatchesLegacyBuild) {
  const char* scenario = kScenarios[std::get<0>(GetParam())];
  const PolicyPipeline& pp = kPolicyPipelines[std::get<1>(GetParam())];

  auto legacy = build_world(pinned_scenario(scenario, pp.key));
  auto piped = build_world(pipeline_scenario(scenario, pp.spec));
  ASSERT_EQ(legacy->digest(), piped->digest())
      << pp.key << ": initial states differ";

  // Lockstep digest trajectory — not just the endpoint, so a transient
  // divergence that happens to re-converge still fails.
  while (legacy->now() < 4000.0) {
    legacy->run_until(legacy->now() + 500.0);
    piped->run_until(piped->now() + 500.0);
    ASSERT_EQ(legacy->digest(), piped->digest())
        << pp.key << "/" << scenario << " diverged at t=" << legacy->now();
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, PipelineIdentity,
                         ::testing::Combine(::testing::Range(0, 2),
                                            ::testing::Range(0, 4)),
                         [](const auto& info) {
                           return std::string(
                                      kScenarios[std::get<0>(info.param)]) +
                                  "_" +
                                  kPolicyPipelines[std::get<1>(info.param)]
                                      .key;
                         });

TEST(PipelineGolden, EndOfRunDigestsMatchPins) {
  if (std::getenv("DTN_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(pipeline_fixture_path(), std::ios::trunc);
    ASSERT_TRUE(os.good()) << "cannot write " << pipeline_fixture_path();
    os << "# End-of-run World::digest() pins for element-graph builds\n"
       << "# (see test_pipeline.cpp). Keys are the legacy policy each\n"
       << "# graph flattens to; values must stay equal to digests.txt\n"
       << "# where that file pins the same policy.\n"
       << "# Regenerate with: DTN_REGEN_GOLDEN=1 ./test_pipeline\n";
    for (const char* scenario : kScenarios) {
      for (const PolicyPipeline& pp : kPolicyPipelines) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(end_digest(
                          pipeline_scenario(scenario, pp.spec))));
        os << scenario << " " << pp.key << " " << hex << "\n";
      }
    }
    GTEST_SKIP() << "regenerated " << pipeline_fixture_path();
  }

  const auto pins = load_pin_file(pipeline_fixture_path());
  ASSERT_EQ(pins.size(), 8u) << "fixture missing or incomplete: "
                             << pipeline_fixture_path();
  const auto legacy_pins =
      load_pin_file(std::string(DTN_GOLDEN_DIR) + "/digests.txt");
  for (const char* scenario : kScenarios) {
    for (const PolicyPipeline& pp : kPolicyPipelines) {
      const std::string key = std::string(scenario) + " " + pp.key;
      const auto it = pins.find(key);
      ASSERT_NE(it, pins.end()) << "no pipeline pin for " << key;
      EXPECT_EQ(end_digest(pipeline_scenario(scenario, pp.spec)), it->second)
          << key << " drifted; if intended, DTN_REGEN_GOLDEN=1";
      // Cross-pin: where the legacy fixture pins the same policy, the
      // element-graph build must land on the identical digest.
      const auto legacy_it = legacy_pins.find(key);
      if (legacy_it != legacy_pins.end()) {
        EXPECT_EQ(it->second, legacy_it->second)
            << key << ": pipeline pin != legacy closed-class pin";
      }
    }
  }
}

// --- parser & compiler diagnostics ---

struct BadSpec {
  const char* spec;
  int line;  ///< expected 1-based diagnostic line
  int col;   ///< expected column, -1 = don't check
  const char* needle;
};

class PipelineParserRejects : public ::testing::TestWithParam<BadSpec> {};

TEST_P(PipelineParserRejects, WithPositionedDiagnostic) {
  const BadSpec& bad = GetParam();
  try {
    (void)pipeline::parse(bad.spec);
    FAIL() << "accepted malformed spec: " << bad.spec;
  } catch (const pipeline::PipelineError& e) {
    EXPECT_EQ(e.pos().line, bad.line) << e.what();
    if (bad.col >= 0) {
      EXPECT_EQ(e.pos().col, bad.col) << e.what();
    }
    EXPECT_NE(std::string(e.what()).find(bad.needle), std::string::npos)
        << "diagnostic \"" << e.what() << "\" lacks \"" << bad.needle << "\"";
    // Machine-checkable prefix: pipeline:LINE:COL:
    std::ostringstream prefix;
    prefix << "pipeline:" << e.pos().line << ":" << e.pos().col << ":";
    EXPECT_EQ(std::string(e.what()).rfind(prefix.str(), 0), 0u) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, PipelineParserRejects,
    ::testing::Values(
        // Unknown names.
        BadSpec{"SprayAndWait -> Foo -> PriorityQueue(fifo) -> DropHead", 1,
                17, "unknown element class or instance 'Foo'"},
        BadSpec{"q :: Bogus(fifo)", 1, 6, "unknown element class 'Bogus'"},
        // Arity and typing.
        BadSpec{"SprayAndWait -> PriorityQueue() -> DropHead", 1, 17,
                "needs a 'scalar' argument"},
        BadSpec{"SprayAndWait -> PriorityQueue(fifo, extra) -> DropHead", 1,
                37, "too many arguments"},
        BadSpec{"SprayAndWait(copies) -> PriorityQueue(fifo) -> DropHead", 1,
                14, "argument 'copies' needs a value"},
        BadSpec{"SprayAndWait(copies x) -> PriorityQueue(fifo) -> DropHead",
                1, 21, "invalid value 'x'"},
        BadSpec{"SprayAndWait(splat 3) -> PriorityQueue(fifo) -> DropHead", 1,
                14, "unknown argument 'splat'"},
        BadSpec{"SprayAndWait -> PriorityQueue(bogus) -> DropHead", 1, 31,
                "expected one of"},
        BadSpec{"SprayAndWait -> CongestionGate(threshold x) "
                "-> PriorityQueue(fifo) -> DropHead",
                1, 42, "invalid value 'x'"},
        // Graph shape.
        BadSpec{"SprayAndWait -> PriorityQueue(fifo)", 1, 17, "dangles"},
        BadSpec{"SprayAndWait -> DropHead", 1, 17,
                "expected a scheduling queue"},
        BadSpec{"SprayAndWait -> PriorityQueue(fifo) -> "
                "PriorityQueue(fifo) -> DropHead",
                1, 40, "exactly one scheduling queue"},
        BadSpec{"SprayAndWait -> PriorityQueue(fifo) -> CongestionGate "
                "-> DropHead",
                1, 40, "must sit between the router and the queue"},
        BadSpec{"SprayAndWait -> PriorityQueue(fifo) -> DropHead; "
                "Epidemic -> PriorityQueue(fifo) -> DropHead",
                1, -1, "second routing element"},
        BadSpec{"PriorityQueue(fifo) -> DropHead", 1, 1,
                "needs a routing element"},
        BadSpec{"DropHead -> PriorityQueue(fifo)", 1, -1,
                "drop element"},
        // Dangling port (reuse): two chains feed the same queue input.
        BadSpec{"q :: PriorityQueue(fifo); SprayAndWait -> q -> DropHead; "
                "Epidemic -> q -> DropHead",
                1, -1, "input port of 'q' is already connected"},
        // Dangling declared element.
        BadSpec{"c :: CongestionGate\n"
                "SprayAndWait -> PriorityQueue(fifo) -> DropHead",
                1, 1, "never connected"},
        // Disjoint cycle (line-accurate diagnostic on line 2).
        BadSpec{"SprayAndWait -> PriorityQueue(fifo) -> DropHead\n"
                "a :: CongestionGate\n"
                "b :: CongestionGate\n"
                "a -> b\n"
                "b -> a",
                2, 1, "cycle detected"},
        // Duplicate declaration.
        BadSpec{"q :: PriorityQueue(fifo)\n"
                "q :: PriorityQueue(sdsrp)\n"
                "SprayAndWait -> q -> DropHead",
                2, 1, "duplicate declaration of 'q'"}));

TEST(PipelineCompile, RejectsLowestDropUnderRandomOrdering) {
  const auto g = pipeline::parse(
      "SprayAndWait -> PriorityQueue(random) -> DropTail(lowest)");
  try {
    (void)pipeline::compile(g, {});
    FAIL() << "compiled a lowest-priority drop under a random ordering";
  } catch (const pipeline::PipelineError& e) {
    EXPECT_NE(std::string(e.what()).find("use DropRandom"),
              std::string::npos);
  }
}

TEST(PipelineCompile, RejectsNonPositiveCopies) {
  const auto g = pipeline::parse(
      "SprayAndWait(copies 0) -> PriorityQueue(sdsrp) -> DropTail(lowest)");
  EXPECT_THROW((void)pipeline::compile(g, {}), pipeline::PipelineError);
}

// --- named-declaration syntax is equivalent to inline chains ---

TEST(PipelineParser, NamedDeclsEquivalentToInline) {
  const char* named =
      "router :: SprayAndWait(copies 16)\n"
      "q :: PriorityQueue(sdsrp)  # the paper's Eq. 10 ordering\n"
      "tail :: DropTail(lowest)\n"
      "router -> q -> tail\n";
  const char* inline_form =
      "SprayAndWait(copies 16) -> PriorityQueue(sdsrp) -> DropTail(lowest)";
  Scenario a = pipeline_scenario("rwp", named);
  Scenario b = pipeline_scenario("rwp", inline_form);
  auto wa = build_world(a);
  auto wb = build_world(b);
  wa->run_until(1000.0);
  wb->run_until(1000.0);
  EXPECT_EQ(wa->digest(), wb->digest());
}

TEST(PipelineCompile, FlattensCanonicalPairsToClosedClasses) {
  for (const PolicyPipeline& pp : kPolicyPipelines) {
    const auto c = pipeline::compile(pipeline::parse(pp.spec), {});
    EXPECT_TRUE(c.flattened) << pp.spec;
    EXPECT_EQ(c.policy_equiv, pp.key) << pp.spec;
    EXPECT_EQ(std::string(c.policy->name()), pp.key) << pp.spec;
    EXPECT_EQ(c.router_equiv, "spray-and-wait");
  }
  // A non-canonical pair gets the generic composite, which must opt out
  // of the per-node priority memo (two sub-policies, one memo key space).
  const auto c = pipeline::compile(
      pipeline::parse("SprayAndWait -> PriorityQueue(sdsrp) -> DropRandom"),
      {});
  EXPECT_FALSE(c.flattened);
  const auto* composite =
      dynamic_cast<const pipeline::CompositePolicy*>(c.policy.get());
  ASSERT_NE(composite, nullptr);
  EXPECT_FALSE(composite->cache_safe());
  EXPECT_TRUE(composite->uses_dropped_list());
  EXPECT_EQ(std::string(c.policy->name()), "pipeline(sdsrp+random)");
}

TEST(PipelineCompile, CopiesArgumentOverridesTrafficCopies) {
  // copies 16 in the element graph == Traffic.copies = 16 in the legacy
  // build; the pinned scenario's own Traffic.copies (8) must be ignored.
  Scenario legacy = pinned_scenario("rwp", "sdsrp");
  legacy.traffic.initial_copies = 16;
  const Scenario piped = pipeline_scenario(
      "rwp",
      "SprayAndWait(copies 16) -> PriorityQueue(sdsrp) -> DropTail(lowest)");
  EXPECT_EQ(end_digest(legacy), end_digest(piped));
}

// --- ScenarioSettings round-trip ---

TEST(PipelineSettings, RoundTripsThroughScenarioSettings) {
  Scenario sc = pipeline_scenario(
      "rwp",
      "SprayAndWait(copies 16) -> CongestionGate(threshold 0.8) "
      "-> PriorityQueue(sdsrp) -> DropTail(lowest)");
  const Settings s = sc.to_settings();
  EXPECT_TRUE(s.has("Pipeline.spec"));
  const Scenario back = Scenario::from_settings(s);
  EXPECT_EQ(back.pipeline, sc.pipeline);
  // Full fixed point: settings -> scenario -> settings is unchanged.
  EXPECT_EQ(back.to_settings().to_text(), s.to_text());
}

TEST(PipelineSettings, LegacyScenarioHasNoPipelineKey) {
  const Settings s = pinned_scenario("rwp", "sdsrp").to_settings();
  EXPECT_FALSE(s.has("Pipeline.spec"));
}

TEST(PipelineSettings, MalformedSpecFailsAtLoadTime) {
  Settings s = pinned_scenario("rwp", "sdsrp").to_settings();
  s.set("Pipeline.spec", "SprayAndWait -> PriorityQueue(fifo)");
  EXPECT_THROW((void)Scenario::from_settings(s), pipeline::PipelineError);
}

TEST(PipelineSettings, ExemplarScenarioFileLoadsAndCompiles) {
  const Settings s =
      Settings::load(std::string(DTN_SCENARIO_DIR) + "/pipeline_sdsrp.txt");
  const Scenario sc = Scenario::from_settings(s);
  ASSERT_FALSE(sc.pipeline.empty());
  const auto c =
      pipeline::compile(pipeline::parse(sc.pipeline), {});
  ASSERT_TRUE(c.initial_copies.has_value());
  EXPECT_EQ(*c.initial_copies, 16);
  EXPECT_NE(dynamic_cast<const pipeline::GatedRouter*>(c.router.get()),
            nullptr)
      << "exemplar should wrap the router in a congestion gate";
  EXPECT_TRUE(c.flattened);
  EXPECT_EQ(c.policy_equiv, "sdsrp");
}

// --- CongestionGate ---

const char* kUngated =
    "SprayAndWait -> PriorityQueue(sdsrp) -> DropTail(lowest)";

std::string gated(double threshold) {
  std::ostringstream os;
  os << "SprayAndWait -> CongestionGate(threshold " << threshold
     << ") -> PriorityQueue(sdsrp) -> DropTail(lowest)";
  return os.str();
}

TEST(CongestionGate, InertAboveFullOccupancyIsDigestIdentical) {
  // occupancy() <= 1.0 < 2.0, so the gate never closes; the wrapper adds
  // no archive bytes, so the whole run is byte-identical to ungated.
  EXPECT_EQ(end_digest(pipeline_scenario("rwp", gated(2.0))),
            end_digest(pipeline_scenario("rwp", kUngated)));
}

TEST(CongestionGate, ActiveGateChangesOutcomeDeterministically) {
  // 5 buffer slots (2.5 MB / 0.5 MB): occupancy crosses 0.3 at the
  // second resident, so the gate must bite under the pinned load.
  const std::uint64_t gated_digest =
      end_digest(pipeline_scenario("rwp", gated(0.3)));
  EXPECT_NE(gated_digest, end_digest(pipeline_scenario("rwp", kUngated)))
      << "gate at 0.3 occupancy never suppressed a replication";
  EXPECT_EQ(gated_digest, end_digest(pipeline_scenario("rwp", gated(0.3))))
      << "gated build is not deterministic";
}

// --- composite checkpoint round-trip (archive v6) ---

TEST(PipelineCheckpoint, CompositeStateSurvivesSaveRestore) {
  const Scenario sc = pipeline_scenario(
      "rwp", "SprayAndWait -> PriorityQueue(sdsrp) -> DropRandom");
  auto world = build_world(sc);
  world->run_until(2000.0);
  const std::uint64_t mid_digest = world->digest();

  const std::string path =
      ::testing::TempDir() + "/pipeline_composite.ckpt";
  snapshot::save_checkpoint(path, sc, *world);

  // The checkpoint carries element-framed composite state — the layout
  // the v6 version bump exists for.
  EXPECT_EQ(snapshot::read_archive_file(path).version(),
            snapshot::kArchiveVersion);

  auto restored = snapshot::restore_checkpoint(path);
  EXPECT_EQ(restored.scenario.pipeline, sc.pipeline);
  EXPECT_EQ(restored.world->now(), 2000.0);
  ASSERT_EQ(restored.world->digest(), mid_digest)
      << "restored composite state drifted";

  // The RandomPolicy drop stream must resume mid-sequence: running both
  // to the end lands on the same digest.
  world->run();
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), world->digest());
  std::remove(path.c_str());
}

TEST(PipelineCheckpoint, FlattenedPipelineRestoresLikeLegacy) {
  // A flattened pipeline checkpoint embeds Pipeline.spec in its settings
  // and restores through the pipeline build path.
  const Scenario sc = pipeline_scenario("rwp", kUngated);
  auto world = build_world(sc);
  world->run_until(1000.0);
  const std::string path = ::testing::TempDir() + "/pipeline_flat.ckpt";
  snapshot::save_checkpoint(path, sc, *world);
  auto restored = snapshot::restore_checkpoint(path);
  EXPECT_EQ(restored.scenario.pipeline, sc.pipeline);
  EXPECT_EQ(restored.world->digest(), world->digest());
  world->run();
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), world->digest());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dtn
