#include "src/config/scenario.hpp"
#include "src/mobility/stationary.hpp"
#include "src/pipeline/compile.hpp"
#include "src/pipeline/elements.hpp"
#include "src/pipeline/parser.hpp"
#include "src/routing/spray_and_wait.hpp"
#include "src/util/error.hpp"

namespace dtn {

namespace {

SdsrpParams sdsrp_params(const Scenario& sc) {
  return SdsrpParams{sc.sdsrp_taylor_terms, sc.sdsrp_anchor_last_spray,
                     sc.sdsrp_reject_newcomer, sc.sdsrp_reject_dropped};
}

}  // namespace

std::unique_ptr<Router> make_router(const Scenario& sc) {
  return pipeline::make_router_by_name(
      sc.router, SprayAndWaitConfig{/*binary=*/true, sc.precheck_admission,
                                    sc.presplit_admission_view});
}

std::unique_ptr<BufferPolicy> make_policy(const Scenario& sc,
                                          std::uint64_t seed) {
  return pipeline::make_policy_by_name(sc.policy, sdsrp_params(sc), seed);
}

MobilityPtr make_mobility(const Scenario& sc, Rng rng,
                          std::size_t /*node_index*/) {
  if (sc.mobility == "random-waypoint") {
    return std::make_unique<RandomWaypointModel>(sc.rwp, rng);
  }
  if (sc.mobility == "random-walk") {
    return std::make_unique<RandomWalkModel>(sc.walk, rng);
  }
  if (sc.mobility == "random-direction") {
    return std::make_unique<RandomDirectionModel>(sc.direction, rng);
  }
  if (sc.mobility == "taxi-fleet") {
    return std::make_unique<TaxiFleetModel>(sc.taxi, rng);
  }
  if (sc.mobility == "manhattan-grid") {
    return std::make_unique<ManhattanGridModel>(sc.manhattan, rng);
  }
  DTN_REQUIRE(false, "unknown mobility model: " + sc.mobility);
  return nullptr;
}

std::unique_ptr<World> build_world(const Scenario& sc) {
  DTN_REQUIRE(sc.n_nodes >= 2, "scenario: need at least two nodes");
  auto world = std::make_unique<World>(sc.world);

  // The master fork order below (policy 0xB0, mobility i+1, traffic
  // 0xA11CE, fault 0xFA00FA) is shared by both build paths, so a
  // pipeline build of a closed-class policy consumes the exact same
  // random streams as its legacy `Policy.name` build — the golden
  // digest-identity tests pin this.
  Rng master(sc.seed);
  const std::uint64_t policy_seed = master.fork(0xB0).next_u64();
  MessageGenConfig traffic = sc.traffic;
  if (sc.pipeline.empty()) {
    world->set_router(make_router(sc));
    world->set_policy(make_policy(sc, policy_seed));
  } else {
    const pipeline::Graph graph = pipeline::parse(sc.pipeline);
    pipeline::CompileOptions opts;
    opts.sdsrp = sdsrp_params(sc);
    opts.precheck_admission = sc.precheck_admission;
    opts.presplit_admission_view = sc.presplit_admission_view;
    opts.policy_seed = policy_seed;
    pipeline::Compiled compiled = pipeline::compile(graph, opts);
    world->set_router(std::move(compiled.router));
    world->set_policy(std::move(compiled.policy));
    if (compiled.initial_copies.has_value()) {
      traffic.initial_copies = *compiled.initial_copies;
    }
  }
  // Every model is created before any node, so consecutive same-size
  // allocations lay them out back to back in node order and the per-step
  // mobility passes stream through them instead of striding across
  // interleaved Node objects. That relies on the model constructors
  // allocating nothing of their own (true of all but the taxi fleet,
  // which copies its hotspot list). Random-waypoint models share one
  // config, allocated before them, rather than each carrying a copy. The
  // fork order (i + 1, node order) is unchanged, so every random stream
  // and digest is too.
  std::shared_ptr<const RandomWaypointConfig> rwp;
  if (sc.mobility == "random-waypoint") {
    rwp = std::make_shared<const RandomWaypointConfig>(sc.rwp);
  }
  std::vector<MobilityPtr> models;
  models.reserve(sc.n_nodes);
  for (std::size_t i = 0; i < sc.n_nodes; ++i) {
    Rng rng = master.fork(i + 1);
    models.push_back(rwp != nullptr
                         ? std::make_unique<RandomWaypointModel>(rwp, rng)
                         : make_mobility(sc, rng, i));
  }
  for (MobilityPtr& m : models) {
    world->add_node(std::move(m), sc.buffer_capacity, sc.estimator);
  }
  world->enable_traffic(traffic, master.fork(0xA11CE).next_u64());
  // The fault stream forks with a tag no other consumer uses (0xB0,
  // node index + 1, 0xA11CE above; this one sits far above any node
  // count), so toggling faults never perturbs policy, mobility or
  // traffic randomness.
  if (sc.fault.enabled) {
    world->enable_faults(sc.fault, master.fork(0xFA00FA).next_u64());
  }
  return world;
}

}  // namespace dtn
