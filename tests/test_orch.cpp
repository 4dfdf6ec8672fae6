// Sweep orchestrator tests: lease policy, wire protocol, manifest
// round-trip, shard execution/idempotence, in-process sweeps, and the
// full multi-process coordinator (spawning the real dtn_sweepd binary in
// worker mode) including the crash/re-lease path. The load-bearing
// assertion throughout: results.bin is byte-identical across worker
// counts, lanes, and injected worker death.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/orch/coordinator.hpp"
#include "src/orch/lease.hpp"
#include "src/orch/manifest.hpp"
#include "src/orch/shard_store.hpp"
#include "src/orch/wire.hpp"
#include "src/orch/worker.hpp"
#include "src/report/sweep.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"
#include "src/util/units.hpp"

namespace dtn {
namespace {

namespace fs = std::filesystem;
using orch::LeaseTable;
using orch::SweepManifest;
using orch::WireMessage;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::size_t count_files_with_ext(const std::string& dir,
                                 const std::string& ext) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ext) ++n;
  return n;
}

/// 2 points x 2 replicas of a shrunk paper scenario: fast enough for the
/// tier-1 suite, large enough to exercise multi-shard scheduling.
SweepManifest tiny_manifest(std::size_t replicas = 2,
                            std::size_t shard_size = 1) {
  SweepManifest m;
  m.name = "orch-test";
  m.replicas = replicas;
  m.shard_size = shard_size;
  for (double mb : {2.0, 4.0}) {
    SweepPoint p;
    p.x = mb;
    p.scenario = Scenario::random_waypoint_paper();
    p.scenario.policy = "sdsrp";
    p.scenario.buffer_capacity = units::megabytes(mb);
    p.scenario.n_nodes = 30;
    p.scenario.world.duration = 600;
    m.points.push_back(p);
  }
  return m;
}

// --- lease table ---

TEST(LeaseTable, HandsOutLowestPendingFirst) {
  LeaseTable t(3);
  EXPECT_EQ(t.acquire(7, 0.0, 10.0), 0u);
  EXPECT_EQ(t.acquire(8, 0.0, 10.0), 1u);
  EXPECT_EQ(t.acquire(7, 0.0, 10.0), 2u);
  EXPECT_EQ(t.acquire(9, 0.0, 10.0), LeaseTable::kNone);
  EXPECT_EQ(t.pending(), 0u);
  EXPECT_EQ(t.leased(), 3u);
  EXPECT_EQ(t.owner(1), 8u);
}

TEST(LeaseTable, RenewChecksOwnership) {
  LeaseTable t(1);
  ASSERT_EQ(t.acquire(7, 0.0, 10.0), 0u);
  EXPECT_TRUE(t.renew(0, 7, 5.0, 10.0));
  EXPECT_FALSE(t.renew(0, 8, 5.0, 10.0));  // not the holder
}

TEST(LeaseTable, ExpiryRequeuesAndReleasesInCanonicalOrder) {
  LeaseTable t(3);
  ASSERT_EQ(t.acquire(7, 0.0, 10.0), 0u);
  ASSERT_EQ(t.acquire(8, 0.0, 10.0), 1u);
  EXPECT_TRUE(t.renew(1, 8, 9.0, 10.0));  // pushes deadline to 19
  EXPECT_EQ(t.expire(15.0), 1u);          // shard 0 (deadline 10) lapses
  EXPECT_EQ(t.state(0), LeaseTable::State::kPending);
  EXPECT_EQ(t.state(1), LeaseTable::State::kLeased);
  // Re-queued shard 0 is handed out before untouched shard 2.
  EXPECT_EQ(t.acquire(9, 15.0, 10.0), 0u);
}

TEST(LeaseTable, WorkerDeathReturnsItsShards) {
  LeaseTable t(4);
  ASSERT_EQ(t.acquire(7, 0.0, 100.0), 0u);
  ASSERT_EQ(t.acquire(8, 0.0, 100.0), 1u);
  ASSERT_EQ(t.acquire(7, 0.0, 100.0), 2u);
  EXPECT_EQ(t.release_worker(7), 2u);
  EXPECT_EQ(t.pending(), 3u);  // shards 0, 2 re-queued + untouched 3
  EXPECT_EQ(t.state(1), LeaseTable::State::kLeased);
}

TEST(LeaseTable, CompleteAndPreload) {
  LeaseTable t(2);
  t.preload_done(1);
  ASSERT_EQ(t.acquire(7, 0.0, 10.0), 0u);
  EXPECT_TRUE(t.complete(0));
  EXPECT_FALSE(t.complete(0));  // duplicate DONE is harmless
  EXPECT_TRUE(t.all_done());
  EXPECT_EQ(t.acquire(8, 0.0, 10.0), LeaseTable::kNone);
}

// --- wire protocol ---

TEST(Wire, RoundTripsEveryKind) {
  const std::vector<WireMessage> msgs = {
      WireMessage::hello(1234),
      WireMessage::lease(7),
      WireMessage::heartbeat(7, 3, 9),
      WireMessage::done(7),
      WireMessage::shutdown(),
      WireMessage::error("worker exploded: shard 7"),
  };
  for (const auto& m : msgs) {
    const WireMessage back = orch::decode(orch::encode(m));
    EXPECT_EQ(back.kind, m.kind);
    EXPECT_EQ(back.pid, m.pid);
    EXPECT_EQ(back.shard, m.shard);
    EXPECT_EQ(back.runs_done, m.runs_done);
    EXPECT_EQ(back.runs_total, m.runs_total);
    EXPECT_EQ(back.text, m.text);
  }
}

TEST(Wire, RejectsMalformedLines) {
  EXPECT_THROW(orch::decode(""), PreconditionError);
  EXPECT_THROW(orch::decode("FROBNICATE shard=1"), PreconditionError);
  EXPECT_THROW(orch::decode("LEASE"), PreconditionError);
  EXPECT_THROW(orch::decode("LEASE shard=abc"), PreconditionError);
  EXPECT_THROW(orch::decode("HEARTBEAT shard=1 done=2"), PreconditionError);
}

// --- manifest ---

TEST(Manifest, TextRoundTrip) {
  const SweepManifest m = tiny_manifest(3, 2);
  const std::string text = m.to_text();
  const SweepManifest back = SweepManifest::from_text(text);
  EXPECT_EQ(back.name, m.name);
  EXPECT_EQ(back.replicas, m.replicas);
  EXPECT_EQ(back.shard_size, m.shard_size);
  ASSERT_EQ(back.points.size(), m.points.size());
  EXPECT_EQ(back.points[1].x, m.points[1].x);
  // The scenario blocks must survive exactly: re-serialization is stable.
  EXPECT_EQ(back.to_text(), text);
}

TEST(Manifest, RunGridIsCanonical) {
  const SweepManifest m = tiny_manifest(3, 2);  // 2 points x 3 = 6 runs
  EXPECT_EQ(m.total_runs(), 6u);
  EXPECT_EQ(m.shard_count(), 3u);
  EXPECT_EQ(m.shard_runs(2).first, 4u);
  EXPECT_EQ(m.shard_runs(2).second, 6u);
  EXPECT_EQ(m.run_ref(4).point, 1u);
  EXPECT_EQ(m.run_ref(4).replica, 1u);
  EXPECT_EQ(m.label_for(4), "p1_");
  // Replica bumps the seed; everything else matches the point scenario.
  EXPECT_EQ(m.scenario_for(4).seed, m.points[1].scenario.seed + 1);
}

TEST(Manifest, ValidateRejectsNonsense) {
  SweepManifest m = tiny_manifest();
  m.shard_size = 0;
  EXPECT_THROW(m.validate(), PreconditionError);
  m = tiny_manifest();
  m.points.clear();
  EXPECT_THROW(m.validate(), PreconditionError);
}

// --- stale-checkpoint hygiene (ISSUE satellite) ---

TEST(CheckpointHygiene, StaleCkptBesideDoneIsRemovedOnResume) {
  const std::string dir = fresh_dir("orch_stale_ckpt");
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 30;
  sc.world.duration = 600;

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_s = 150.0;
  ckpt.keep_files = true;
  const MetricPoint first = run_scenario(sc, nullptr, ckpt, "hy_");

  const std::string stem = run_file_stem(dir, sc, "hy_");
  ASSERT_TRUE(fs::exists(stem + ".done"));
  // A periodic .ckpt legitimately survives a keep_files run; make sure
  // one exists (and is never read) by planting junk bytes.
  std::ofstream(stem + ".ckpt", std::ios::binary) << "stale junk";
  ASSERT_TRUE(fs::exists(stem + ".ckpt"));

  const MetricPoint second = run_scenario(sc, nullptr, ckpt, "hy_");
  EXPECT_FALSE(fs::exists(stem + ".ckpt"))
      << "resume must clean the stale checkpoint beside the done marker";
  EXPECT_TRUE(fs::exists(stem + ".done"));
  EXPECT_EQ(first.delivery_ratio, second.delivery_ratio);
  EXPECT_EQ(first.avg_latency, second.avg_latency);
}

// --- shard execution ---

TEST(Worker, RunShardIsIdempotentAndCleansRunFiles) {
  const std::string dir = fresh_dir("orch_run_shard");
  const SweepManifest m = tiny_manifest();
  orch::WorkerOptions opts;
  opts.ckpt_interval_s = 150.0;

  std::vector<std::size_t> progress;
  opts.on_progress = [&](std::size_t, std::size_t done, std::size_t) {
    progress.push_back(done);
  };
  const orch::ShardResult r1 = orch::run_shard(m, dir, 0, opts);
  EXPECT_FALSE(progress.empty());
  ASSERT_EQ(r1.partials.size(), 1u);
  EXPECT_EQ(r1.partials[0].first, 0u);  // shard 0 = point 0, replica 0
  EXPECT_EQ(r1.partials[0].second.delivery_ratio.count(), 1u);
  ASSERT_TRUE(fs::exists(orch::shard_result_path(dir, 0)));
  // keep_run_files=false: the durable shard file replaces run markers.
  EXPECT_EQ(count_files_with_ext(dir, ".ckpt"), 0u);
  EXPECT_EQ(count_files_with_ext(dir, ".done"), 0u);

  // Second execution (the re-lease-after-crash path) short-circuits on
  // the existing result file and returns identical aggregates.
  const orch::ShardResult r2 = orch::run_shard(m, dir, 0, opts);
  EXPECT_EQ(r2.partials[0].second, r1.partials[0].second);
}

TEST(Worker, WireLoopServesLeases) {
  const std::string dir = fresh_dir("orch_worker_loop");
  const SweepManifest m = tiny_manifest();
  std::istringstream in("LEASE shard=1\nSHUTDOWN\n");
  std::ostringstream out;
  orch::WorkerOptions opts;
  EXPECT_EQ(orch::run_worker_loop(in, out, m, dir, opts), 0);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(orch::decode(line).kind, orch::MsgKind::kHello);
  bool saw_done = false;
  while (std::getline(lines, line)) {
    const WireMessage msg = orch::decode(line);
    if (msg.kind == orch::MsgKind::kDone) {
      EXPECT_EQ(msg.shard, 1u);
      saw_done = true;
    }
  }
  EXPECT_TRUE(saw_done);
  EXPECT_TRUE(fs::exists(orch::shard_result_path(dir, 1)));
}

// --- in-process sweeps: lanes must not change bytes ---

TEST(InProcess, ResultFilesKeepTheirArchiveVersion) {
  // results.bin's bytes, header included, are pinned by hash: a layout
  // change that only world checkpoints see (archive v7) must not restamp
  // the sweep's result files.
  const std::string dir = fresh_dir("orch_version");
  orch::run_sweep_inprocess(tiny_manifest(), dir, {});
  EXPECT_EQ(snapshot::read_archive_file(orch::results_path(dir)).version(),
            kResultsArchiveVersion);
  EXPECT_EQ(kResultsArchiveVersion, 6u);
  EXPECT_LT(kResultsArchiveVersion, snapshot::kArchiveVersion);
}

TEST(InProcess, LaneCountDoesNotChangeResultBytes) {
  const SweepManifest m = tiny_manifest();
  const std::string d1 = fresh_dir("orch_lanes1");
  const std::string d2 = fresh_dir("orch_lanes2");

  orch::InProcessOptions o1;
  o1.lanes = 1;
  orch::InProcessOptions o2;
  o2.lanes = 2;
  const auto a1 = orch::run_sweep_inprocess(m, d1, o1);
  const auto a2 = orch::run_sweep_inprocess(m, d2, o2);

  ASSERT_EQ(a1.size(), 2u);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(file_bytes(orch::results_path(d1)),
            file_bytes(orch::results_path(d2)));

  // And the orchestrated aggregates equal the plain sweep runner's —
  // the subsystem changes scheduling, never results.
  const auto plain = run_sweep(m.points, m.replicas);
  EXPECT_EQ(a1, plain);
}

}  // namespace

// --- multi-process coordinator (real dtn_sweepd worker binary) ---

#ifdef DTN_SWEEPD_PATH
namespace {

orch::CoordinatorOptions worker_opts(const std::string& dir,
                                     std::size_t workers) {
  orch::CoordinatorOptions co;
  co.workers = workers;
  co.lease_ttl_s = 120.0;
  co.progress_interval_s = 0.05;
  co.max_wall_s = 120.0;  // safety net: never hang the suite
  co.worker_argv = {DTN_SWEEPD_PATH, "worker",
                    "--manifest", orch::manifest_path(dir),
                    "--dir", dir,
                    "--ckpt-interval-s", "150"};
  return co;
}

TEST(Coordinator, WorkerCountDoesNotChangeResultBytes) {
  const SweepManifest m = tiny_manifest();
  const std::string base = fresh_dir("orch_proc_base");
  orch::InProcessOptions ip;
  const auto want = orch::run_sweep_inprocess(m, base, ip);
  const auto want_bytes = file_bytes(orch::results_path(base));

  for (std::size_t workers : {1u, 2u}) {
    const std::string dir =
        fresh_dir("orch_proc_w" + std::to_string(workers));
    const auto outcome =
        orch::run_coordinator(m, dir, worker_opts(dir, workers));
    EXPECT_EQ(outcome.shards_total, m.shard_count());
    EXPECT_EQ(outcome.workers_lost, 0u);
    EXPECT_EQ(outcome.aggregates, want);
    EXPECT_EQ(file_bytes(orch::results_path(dir)), want_bytes)
        << workers << " workers";
    EXPECT_TRUE(fs::exists(orch::progress_path(dir)));
    const auto progress = file_bytes(orch::progress_path(dir));
    const std::string text(progress.begin(), progress.end());
    EXPECT_NE(text.find("\"shards\""), std::string::npos);
    EXPECT_NE(text.find("\"workers\""), std::string::npos);
  }
}

TEST(Coordinator, SigkilledWorkerIsReLeasedByteIdentically) {
  const SweepManifest m = tiny_manifest(/*replicas=*/3);  // 6 shards
  const std::string base = fresh_dir("orch_chaos_base");
  orch::InProcessOptions ip;
  orch::run_sweep_inprocess(m, base, ip);
  const auto want_bytes = file_bytes(orch::results_path(base));

  const std::string dir = fresh_dir("orch_chaos");
  orch::CoordinatorOptions co = worker_opts(dir, 2);
  co.chaos_kill_after_shards = 1;  // SIGKILL a leased worker mid-sweep
  const auto outcome = orch::run_coordinator(m, dir, co);

  EXPECT_EQ(outcome.workers_lost, 1u);
  EXPECT_GE(outcome.shards_reassigned, 1u);
  EXPECT_EQ(file_bytes(orch::results_path(dir)), want_bytes)
      << "crash + re-lease must not change a single byte";
  // keep_files=false: no checkpoint or shard debris survives recovery.
  EXPECT_EQ(count_files_with_ext(dir, ".ckpt"), 0u);
  EXPECT_EQ(count_files_with_ext(dir, ".done"), 0u);
  EXPECT_EQ(count_files_with_ext(dir, ".sdone"), 0u);
}

TEST(Coordinator, ResumesFromExistingShardFiles) {
  const SweepManifest m = tiny_manifest();
  const std::string dir = fresh_dir("orch_resume");
  // Pre-run half the shards out-of-band, as a crashed fleet would leave.
  orch::WorkerOptions w;
  orch::run_shard(m, dir, 0, w);
  orch::run_shard(m, dir, 2, w);

  const auto outcome = orch::run_coordinator(m, dir, worker_opts(dir, 1));
  EXPECT_EQ(outcome.shards_resumed, 2u);
  EXPECT_EQ(outcome.shards_total, 4u);

  const std::string base = fresh_dir("orch_resume_base");
  orch::InProcessOptions ip;
  orch::run_sweep_inprocess(m, base, ip);
  EXPECT_EQ(file_bytes(orch::results_path(dir)),
            file_bytes(orch::results_path(base)));
}

TEST(Coordinator, StatusEndpointBindsEphemeralPort) {
  const SweepManifest m = tiny_manifest(/*replicas=*/1);
  const std::string dir = fresh_dir("orch_status");
  orch::CoordinatorOptions co = worker_opts(dir, 1);
  co.status_port = 0;  // ephemeral
  const auto outcome = orch::run_coordinator(m, dir, co);
  EXPECT_GT(outcome.status_port, 0);
}

}  // namespace
#endif  // DTN_SWEEPD_PATH

}  // namespace dtn
