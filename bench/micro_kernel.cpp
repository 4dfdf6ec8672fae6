// Micro-benchmarks (google-benchmark) for the simulator's hot kernels:
// spatial-grid contact detection (fixed area, and constant density up to
// 100k nodes), the random-waypoint mobility pass at the same densities,
// the inter-meeting estimators' contact churn, priority evaluation (closed form vs Taylor), buffer admission,
// dropped-list merge, checkpoint serialization, the checkpoint hash, a
// checkpoint restore and the state digest, SDSRP's per-message rating and candidate selection on
// a paused Table II world, and a full world-step at paper scale.
//
//   ./micro_kernel --benchmark_out=BENCH_micro_kernel.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/buffer/fifo.hpp"
#include "src/buffer/sdsrp_policy.hpp"
#include "src/config/scenario.hpp"
#include "src/geo/spatial_grid.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"
#include "src/sdsrp/dropped_list.hpp"
#include "src/sdsrp/intermeeting_estimator.hpp"
#include "src/sdsrp/priority_model.hpp"
#include "src/snapshot/checkpoint.hpp"
#include "src/util/rng.hpp"
#include "src/util/units.hpp"

namespace {

// The environment stamp every BENCH_*.json report carries, here in the
// "context" object of google-benchmark's JSON output.
[[maybe_unused]] const bool kEnvStamp = [] {
  benchmark::AddCustomContext(
      "hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("git_describe", DTN_GIT_DESCRIBE);
  benchmark::AddCustomContext("build_type", DTN_BUILD_TYPE);
  return true;
}();

void BM_SpatialGridRebuildAndPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dtn::Rng rng(7);
  std::vector<dtn::Vec2> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(0, 4500), rng.uniform(0, 3400)});
  }
  dtn::SpatialGrid grid(100.0);
  std::size_t pairs = 0;
  for (auto _ : state) {
    grid.rebuild(pos);
    grid.for_each_pair_within(
        100.0, [&pairs](std::size_t, std::size_t) { ++pairs; });
  }
  benchmark::DoNotOptimize(pairs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpatialGridRebuildAndPairs)->Arg(100)->Arg(200)->Arg(1000);

/// The contact layer's grid work at scale: n uniform positions at Table II
/// density (100 nodes in 4500 x 3400 m, area scaled with n), one rebuild
/// and one full pair collection at the tracker's 164 m cell (100 m range
/// plus 64 m kinetic slack). Items are nodes.
void BM_SpatialGridConstDensity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double scale = std::sqrt(static_cast<double>(n) / 100.0);
  const double reach = 164.0;
  dtn::Rng rng(7);
  std::vector<dtn::Vec2> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(0, 4500 * scale), rng.uniform(0, 3400 * scale)});
  }
  dtn::SpatialGrid grid(reach);
  grid.reserve_nodes(n);
  std::vector<dtn::SpatialGrid::PairHit> hits;
  for (auto _ : state) {
    grid.rebuild(pos);
    hits.clear();
    grid.collect_pairs_within(reach, 0, n, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.counters["pairs"] = static_cast<double>(hits.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpatialGridConstDensity)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// The large world's other per-node pass: advance every random-waypoint
/// model one 1 s step and sample its position, as World::advance_mobility
/// does. build_world allocates the models (n nodes at Table II density,
/// area scaled with n), so they are laid out as in a real run. Items are
/// nodes.
void BM_MobilityPassConstDensity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
  const double scale = std::sqrt(static_cast<double>(n) /
                                 static_cast<double>(sc.n_nodes));
  sc.rwp.area = dtn::Rect::sized(sc.rwp.area.width() * scale,
                                 sc.rwp.area.height() * scale);
  sc.n_nodes = n;
  const auto world = dtn::build_world(sc);
  std::vector<dtn::MobilityModel*> models(n);
  for (std::size_t i = 0; i < n; ++i) {
    models[i] = &world->node(static_cast<dtn::NodeId>(i)).mobility();
  }
  std::vector<dtn::Vec2> positions(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      models[i]->advance(1.0);
      positions[i] = models[i]->position();
    }
    benchmark::DoNotOptimize(positions.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MobilityPassConstDensity)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// SDSRP's link churn: the inter-meeting estimators' contact start/end
/// cycles over one run, on n fresh estimators (built untimed). Each
/// estimator meets `peers` distinct peers in `cycles` contacts, in time
/// order across the fleet. Table II density sets both: the 100-node world
/// of seed 1 averages 57 distinct peers and 82 contacts per node over its
/// 18,000 s; the 100,000-node world averages 0.94 of each over its
/// 300-step window. Items are contact cycles.
void BM_IntermeetingContactChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto peers = static_cast<std::size_t>(state.range(1));
  const auto cycles = static_cast<std::size_t>(state.range(2));
  // Estimator i's peers: `peers` distinct other node ids, in meeting order.
  dtn::Rng rng(7);
  std::vector<std::size_t> met(n * peers);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < peers; ++k) {
      std::size_t peer = i;
      while (peer == i ||
             std::find(&met[i * peers], &met[i * peers + k], peer) !=
                 &met[i * peers + k]) {
        peer = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      }
      met[i * peers + k] = peer;
    }
  }
  std::vector<dtn::sdsrp::IntermeetingEstimator> est;
  for (auto _ : state) {
    state.PauseTiming();
    est.assign(n, dtn::sdsrp::IntermeetingEstimator());
    state.ResumeTiming();
    double t = 0.0;
    for (std::size_t c = 0; c < cycles; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t peer = met[i * peers + c % peers];
        est[i].on_contact_start(peer, t);
        est[i].on_contact_end(peer, t + 20.0);
      }
      t += 200.0;
    }
    benchmark::DoNotOptimize(est.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * cycles));
}
BENCHMARK(BM_IntermeetingContactChurn)
    ->ArgNames({"n", "peers", "cycles"})
    ->Args({100, 57, 82})
    ->Args({100000, 1, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_PriorityEq10(benchmark::State& state) {
  dtn::sdsrp::PriorityInputs in;
  in.n_nodes = 100;
  in.lambda = 1.0 / 5500.0;
  in.copies = 8;
  in.remaining_ttl = 9000;
  in.m_seen = 5;
  in.n_holding = 4;
  double acc = 0;
  for (auto _ : state) {
    in.remaining_ttl += 1.0;  // defeat constant folding
    acc += dtn::sdsrp::priority_eq10(in);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PriorityEq10);

void BM_PriorityTaylor(benchmark::State& state) {
  const auto terms = static_cast<std::size_t>(state.range(0));
  double pr = 0.3, acc = 0;
  for (auto _ : state) {
    pr = pr < 0.9 ? pr + 1e-6 : 0.3;
    acc += dtn::sdsrp::priority_taylor(0.1, pr, 3.0, terms);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PriorityTaylor)->Arg(1)->Arg(5)->Arg(20)->Arg(50);

void BM_BufferAdmissionFifo(benchmark::State& state) {
  const dtn::SprayAndWaitRouter router;
  const dtn::FifoPolicy policy;
  dtn::Node node(0, std::make_unique<dtn::StationaryModel>(dtn::Vec2{}),
                 2'500'000, &router, &policy);
  dtn::PolicyContext ctx;
  ctx.n_nodes = 100;
  ctx.node = &node;
  dtn::MessageId next = 1;
  for (auto _ : state) {
    dtn::Message m;
    m.id = next++;
    m.source = 0;
    m.destination = 1;
    m.size = 500'000;
    m.created = ctx.now;
    m.ttl = 18000;
    m.received = ctx.now;
    ctx.now += 1.0;
    benchmark::DoNotOptimize(node.admit(std::move(m), ctx).admitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BufferAdmissionFifo);

void BM_DroppedListMerge(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  dtn::sdsrp::DroppedList target(0);
  dtn::sdsrp::DroppedList source(1);
  for (std::size_t n = 1; n <= records; ++n) {
    dtn::sdsrp::DroppedList node(n);
    for (std::uint64_t m = 0; m < 8; ++m) {
      node.record_local_drop(n * 100 + m, static_cast<double>(n));
    }
    source.merge_from(node);
  }
  for (auto _ : state) {
    target.merge_from(source);
    benchmark::DoNotOptimize(target.known_records());
  }
}
BENCHMARK(BM_DroppedListMerge)->Arg(10)->Arg(100);

/// The Table II sweep's SDSRP 2 MB world (its tightest buffer, where the
/// dropped lists are largest) paused at t = 9000 s; built once and shared
/// by the state-serialization benches.
struct PausedWorld {
  dtn::Scenario sc;
  std::unique_ptr<dtn::World> world;
};

const PausedWorld& table2_sdsrp_2mb() {
  static const PausedWorld paused = [] {
    PausedWorld p;
    p.sc = dtn::Scenario::random_waypoint_paper();
    p.sc.policy = "sdsrp";
    p.sc.buffer_capacity = dtn::units::megabytes(2.0);
    p.sc.seed = 1;
    p.world = dtn::build_world(p.sc);
    p.world->run_until(9000.0);
    return p;
  }();
  return paused;
}

/// One checkpoint's serialization (scenario + world) into a reused
/// writer: the part of a save run_scenario's checkpoint loop keeps on the
/// simulation thread. The payload is not hashed here; BM_CheckpointHash
/// times that.
void BM_SaveWorld(benchmark::State& state) {
  const PausedWorld& p = table2_sdsrp_2mb();
  dtn::snapshot::ArchiveWriter w;
  for (auto _ : state) {
    w.clear();
    dtn::snapshot::save_world(w, p.sc, *p.world);
    benchmark::DoNotOptimize(w.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.bytes_written()));
}
BENCHMARK(BM_SaveWorld)->Unit(benchmark::kMillisecond);

/// The file trailer's FNV-1a over that same payload: with the file write,
/// the work of a save that runs on run_scenario's helper thread.
void BM_CheckpointHash(benchmark::State& state) {
  const PausedWorld& p = table2_sdsrp_2mb();
  dtn::snapshot::ArchiveWriter w;
  dtn::snapshot::save_world(w, p.sc, *p.world);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.bytes_written()));
}
BENCHMARK(BM_CheckpointHash)->Unit(benchmark::kMillisecond);

/// Restoring that payload into a second world built from the same
/// scenario: the payload's copy into a reader, then restore_world_into,
/// which gives every node that names a drop-record table entry the same
/// record. `records` counts the distinct records the restore holds.
void BM_RestoreWorld(benchmark::State& state) {
  const PausedWorld& p = table2_sdsrp_2mb();
  dtn::snapshot::ArchiveWriter w;
  dtn::snapshot::save_world(w, p.sc, *p.world);
  const std::unique_ptr<dtn::World> target = dtn::build_world(p.sc);
  for (auto _ : state) {
    dtn::snapshot::ArchiveReader in(w.bytes());
    dtn::snapshot::restore_world_into(in, *target);
    benchmark::DoNotOptimize(target.get());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.bytes_written()));
  dtn::sdsrp::DropRecordTable records;
  for (dtn::NodeId id = 0; id < target->node_count(); ++id) {
    records.add(target->node(id).dropped_list());
  }
  state.counters["records"] = static_cast<double>(records.size());
}
BENCHMARK(BM_RestoreWorld)->Unit(benchmark::kMillisecond);

/// World::digest: the same serializer in hash-only mode.
void BM_WorldDigest(benchmark::State& state) {
  const PausedWorld& p = table2_sdsrp_2mb();
  dtn::snapshot::ArchiveWriter hashed(
      dtn::snapshot::ArchiveWriter::Mode::kDigestOnly);
  p.world->save_state(hashed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.world->digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(hashed.bytes_written()));
}
BENCHMARK(BM_WorldDigest)->Unit(benchmark::kMillisecond);

/// SdsrpPolicy::priority (Eq. 10) for every resident of the paused
/// world, with the cache off: what one memo miss costs — m̂ from the
/// copy's spray lineage, d̂ from the drop-count index, λ from the node's
/// inter-meeting estimator.
void BM_SdsrpPriority(benchmark::State& state) {
  const dtn::World& world = *table2_sdsrp_2mb().world;
  const auto& policy =
      dynamic_cast<const dtn::ScalarBufferPolicy&>(world.policy());
  std::int64_t rated = 0;
  for (auto _ : state) {
    for (dtn::NodeId id = 0; id < world.node_count(); ++id) {
      const dtn::Node& node = world.node(id);
      dtn::PolicyContext ctx = world.ctx_for(node);
      ctx.cache_enabled = false;
      for (const dtn::Message& m : node.buffer().messages()) {
        benchmark::DoNotOptimize(policy.priority(m, ctx));
        ++rated;
      }
    }
  }
  state.SetItemsProcessed(rated);
}
BENCHMARK(BM_SdsrpPriority)->Unit(benchmark::kMicrosecond);

/// Router::next_to_send over every live contact of the paused world, in
/// both directions, with the context try_start builds (priority cache
/// on): candidate selection — ranking, relay copies and the receiver's
/// admission dry runs — without the idle memo in front of it. The clock
/// stands still, so past the first pass the memos hit, as they do within
/// a step. Runs after the save benches: it fills the memos a save writes.
void BM_SdsrpCandidateSelection(benchmark::State& state) {
  const dtn::World& world = *table2_sdsrp_2mb().world;
  const dtn::Router& router = world.router();
  std::int64_t calls = 0;
  for (auto _ : state) {
    for (const dtn::NodePair& pair : world.active_contacts()) {
      const dtn::Node& a = world.node(static_cast<dtn::NodeId>(pair.first));
      const dtn::Node& b = world.node(static_cast<dtn::NodeId>(pair.second));
      benchmark::DoNotOptimize(router.next_to_send(a, b, world.ctx_for(a)));
      benchmark::DoNotOptimize(router.next_to_send(b, a, world.ctx_for(b)));
      calls += 2;
    }
  }
  state.SetItemsProcessed(calls);
}
BENCHMARK(BM_SdsrpCandidateSelection)->Unit(benchmark::kMicrosecond);

void BM_WorldStepPaperScale(benchmark::State& state) {
  dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
  sc.policy = state.range(0) == 0 ? "fifo" : "sdsrp";
  auto world = dtn::build_world(sc);
  world->run_until(2000.0);  // warm: populated buffers, live contacts
  for (auto _ : state) {
    world->step();
  }
  state.SetLabel(sc.policy);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorldStepPaperScale)->Arg(0)->Arg(1);

}  // namespace
