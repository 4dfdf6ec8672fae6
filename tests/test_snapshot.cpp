// Checkpoint/restore + state-digest subsystem tests.
//
// The load-bearing property: save at T/2, restore into a fresh World,
// run to T — digest and metrics must be identical to the uninterrupted
// run, for every policy on both paper scenarios. Everything else here
// (archive format validation, corruption rejection, resumable replica
// sets) supports that guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/report/observers.hpp"
#include "src/report/sweep.hpp"
#include "src/snapshot/checkpoint.hpp"

namespace dtn {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

// --- archive format ---

TEST(Archive, PrimitiveRoundTrip) {
  snapshot::ArchiveWriter w;
  w.begin_section("outer");
  w.u8(200);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);
  w.boolean(false);
  w.str("hello archive");
  w.begin_section("inner");
  w.u64(7);
  w.end_section();
  w.end_section();

  snapshot::ArchiveReader r(w.bytes());
  r.begin_section("outer");
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello archive");
  r.begin_section("inner");
  EXPECT_EQ(r.u64(), 7u);
  r.end_section();
  r.end_section();
  EXPECT_TRUE(r.at_end());
}

TEST(Archive, TypeTagMismatchThrows) {
  snapshot::ArchiveWriter w;
  w.u32(5);
  snapshot::ArchiveReader r(w.bytes());
  EXPECT_THROW(r.u64(), PreconditionError);
}

TEST(Archive, SectionNameMismatchThrows) {
  snapshot::ArchiveWriter w;
  w.begin_section("alpha");
  w.end_section();
  snapshot::ArchiveReader r(w.bytes());
  EXPECT_THROW(r.begin_section("beta"), PreconditionError);
}

TEST(Archive, TruncatedStreamThrows) {
  snapshot::ArchiveWriter w;
  w.u64(123456789);
  std::vector<std::uint8_t> cut = w.bytes();
  cut.resize(cut.size() - 3);
  snapshot::ArchiveReader r(std::move(cut));
  EXPECT_THROW(r.u64(), PreconditionError);
}

TEST(Archive, DigestOnlyModeMatchesBufferDigest) {
  snapshot::ArchiveWriter buffered(snapshot::ArchiveWriter::Mode::kBuffer);
  snapshot::ArchiveWriter hashed(snapshot::ArchiveWriter::Mode::kDigestOnly);
  for (snapshot::ArchiveWriter* w : {&buffered, &hashed}) {
    w->begin_section("s");
    w->u64(99);
    w->f64(-1.5);
    w->str("x");
    w->end_section();
  }
  EXPECT_EQ(buffered.digest(), hashed.digest());
  EXPECT_EQ(buffered.bytes_written(), hashed.bytes_written());
}

TEST(Archive, ClearedWriterMatchesFreshOne) {
  snapshot::ArchiveWriter reused;
  reused.begin_section("earlier");
  reused.str("a longer earlier archive");
  reused.end_section();
  reused.clear();
  snapshot::ArchiveWriter fresh;
  for (snapshot::ArchiveWriter* w : {&reused, &fresh}) {
    w->begin_section("s");
    w->u64(7);
    w->end_section();
  }
  EXPECT_EQ(reused.bytes(), fresh.bytes());
  EXPECT_EQ(reused.digest(), fresh.digest());
  EXPECT_EQ(reused.bytes_written(), fresh.bytes_written());
}

TEST(ArchiveFile, RoundTripAndValidation) {
  const std::string path = temp_path("archive_roundtrip.bin");
  snapshot::ArchiveWriter w;
  w.begin_section("payload");
  w.u64(31337);
  w.end_section();
  snapshot::write_archive_file(path, w);

  snapshot::ArchiveReader r = snapshot::read_archive_file(path);
  r.begin_section("payload");
  EXPECT_EQ(r.u64(), 31337u);
  r.end_section();
  std::remove(path.c_str());
}

TEST(ArchiveFile, CorruptedPayloadRejected) {
  const std::string path = temp_path("archive_corrupt.bin");
  snapshot::ArchiveWriter w;
  w.begin_section("payload");
  w.u64(31337);
  w.end_section();
  snapshot::write_archive_file(path, w);

  // Flip one payload byte (past the 16-byte magic/version/length header).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  char b = 0;
  f.seekg(20);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0xFF);
  f.seekp(20);
  f.write(&b, 1);
  f.close();

  EXPECT_THROW(snapshot::read_archive_file(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(ArchiveFile, WrongVersionRejected) {
  const std::string path = temp_path("archive_version.bin");
  snapshot::ArchiveWriter w;
  w.u64(1);
  snapshot::write_archive_file(path, w);

  // The version lives in bytes 4..7 of the header.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  const char bogus = 99;
  f.write(&bogus, 1);
  f.close();

  EXPECT_THROW(snapshot::read_archive_file(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(ArchiveFile, TrailingBytesRejected) {
  const std::string path = temp_path("archive_trailing.bin");
  snapshot::ArchiveWriter w;
  w.u64(1);
  snapshot::write_archive_file(path, w);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.put('\0');
  }
  EXPECT_THROW(snapshot::read_archive_file(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(ArchiveFile, MissingFileThrows) {
  EXPECT_THROW(snapshot::read_archive_file(temp_path("no_such_file.bin")),
               PreconditionError);
}

TEST(ArchiveFile, FailedRenameLeavesNoTempFile) {
  // A directory where the file goes: the temporary file is written, and
  // the rename onto the directory fails.
  const std::string path = temp_path("archive_onto_dir");
  std::filesystem::remove_all(path);
  std::filesystem::remove(path + ".tmp");
  std::filesystem::create_directories(path);
  snapshot::ArchiveWriter w;
  w.u64(1);
  EXPECT_THROW(snapshot::write_archive_file(path, w), PreconditionError);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(path);
}

// --- save -> restore -> run-to-end equality ---

// Scaled-down paper scenarios (structure intact, sizes reduced so each
// round-trip case runs in well under a second).
Scenario small_paper(const std::string& which, const std::string& policy) {
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

void expect_same_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.transfers_started, b.transfers_started);
  EXPECT_EQ(a.transfers_completed, b.transfers_completed);
  EXPECT_EQ(a.transfers_aborted, b.transfers_aborted);
  EXPECT_EQ(a.admission_rejected, b.admission_rejected);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.ttl_expired, b.ttl_expired);
  EXPECT_EQ(a.source_rejected, b.source_rejected);
  EXPECT_EQ(a.hopcounts.count(), b.hopcounts.count());
  EXPECT_EQ(a.hopcounts.mean(), b.hopcounts.mean());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.buffer_occupancy.count(), b.buffer_occupancy.count());
  EXPECT_EQ(a.buffer_occupancy.mean(), b.buffer_occupancy.mean());
}

struct RoundTripCase {
  const char* scenario;
  const char* policy;
};

class SnapshotRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(SnapshotRoundTrip, RestoredRunMatchesUninterrupted) {
  const Scenario sc = small_paper(GetParam().scenario, GetParam().policy);
  const double half = sc.world.duration / 2.0;

  // Uninterrupted reference run.
  auto cold = build_world(sc);
  cold->run();
  const std::uint64_t cold_digest = cold->digest();

  // Interrupted run: save at T/2 (in memory), restore into a fresh world.
  auto first = build_world(sc);
  first->run_until(half);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  const std::uint64_t half_digest = first->digest();
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  EXPECT_EQ(restored.world->now(), half);
  EXPECT_EQ(restored.world->digest(), half_digest)
      << "restore is not bit-for-bit at T/2";

  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold_digest)
      << "resumed run diverged from the uninterrupted one";
  expect_same_stats(restored.world->stats(), cold->stats());
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndScenarios, SnapshotRoundTrip,
    ::testing::Values(RoundTripCase{"rwp", "fifo"},
                      RoundTripCase{"rwp", "ttl-ratio"},
                      RoundTripCase{"rwp", "copies-ratio"},
                      RoundTripCase{"rwp", "sdsrp"},
                      RoundTripCase{"taxi", "fifo"},
                      RoundTripCase{"taxi", "ttl-ratio"},
                      RoundTripCase{"taxi", "copies-ratio"},
                      RoundTripCase{"taxi", "sdsrp"}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(info.param.scenario) + "_" +
             std::string(info.param.policy == std::string("ttl-ratio")
                             ? "ttl_ratio"
                             : info.param.policy == std::string("copies-ratio")
                                   ? "copies_ratio"
                                   : info.param.policy);
    });

TEST(SnapshotFile, CheckpointFileRoundTripsThroughDisk) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  const std::string path = temp_path("world_checkpoint.ckpt");

  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  const std::uint64_t half_digest = world->digest();
  snapshot::save_checkpoint(path, sc, *world);
  world.reset();

  auto restored = snapshot::restore_checkpoint(path);
  EXPECT_EQ(restored.scenario.name, sc.name);
  EXPECT_EQ(restored.scenario.seed, sc.seed);
  EXPECT_EQ(restored.world->digest(), half_digest);
  std::remove(path.c_str());
}

TEST(SnapshotFile, RouterStateSurvivesRoundTrip) {
  // PRoPHET keeps per-node predictability tables in the router itself —
  // the piece of state most easily forgotten by a checkpoint.
  Scenario sc = small_paper("rwp", "fifo");
  sc.router = "prophet";
  const double half = sc.world.duration / 2.0;

  auto cold = build_world(sc);
  cold->run();

  auto first = build_world(sc);
  first->run_until(half);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold->digest());
}

// --- archive v3: event-driven core state ---

TEST(SnapshotV3, SaveLandsMidTransferAndRestoresBitIdentical) {
  // The v3 payload carries in-flight transfers (sorted by sender) and the
  // contact tracker's kinetic bookkeeping. Pick a save point where
  // transfers are provably in flight so the new fields are exercised, not
  // vacuously round-tripped.
  const Scenario sc = small_paper("rwp", "sdsrp");
  const double half = sc.world.duration / 2.0;

  auto cold = build_world(sc);
  cold->run();

  auto first = build_world(sc);
  first->run_until(half);
  ASSERT_FALSE(first->transfers_in_flight().empty())
      << "save point must land mid-transfer to exercise v3 fields";
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  const std::uint64_t half_digest = first->digest();
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  EXPECT_EQ(restored.world->digest(), half_digest);
  ASSERT_FALSE(restored.world->transfers_in_flight().empty());
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold->digest());
}

TEST(SnapshotV3, KineticSkipScheduleSurvivesRestore) {
  // Digests deliberately exclude the kinetic bookkeeping (slack, budget,
  // watch set, previous positions), so digest equality alone cannot prove
  // it was restored. The skip *schedule* can: a restored run must execute
  // exactly as many full grid passes over [T/2, T] as the uninterrupted
  // run does — losing the budget or watch set on restore would force an
  // immediate re-certification pass and shift every pass after it.
  const Scenario sc = small_paper("rwp", "fifo");
  const double half = sc.world.duration / 2.0;

  auto cold = build_world(sc);
  cold->run_until(half);
  const std::size_t passes_at_half = cold->contacts().full_pass_count();
  cold->run();
  const std::size_t passes_second_half =
      cold->contacts().full_pass_count() - passes_at_half;

  auto first = build_world(sc);
  first->run_until(half);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  restored.world->run();
  EXPECT_EQ(restored.world->contacts().full_pass_count(),
            passes_second_half);
  EXPECT_LT(passes_second_half, restored.world->contacts().update_count());
}

TEST(SnapshotV3, LegacyStepModeRoundTrips) {
  Scenario sc = small_paper("taxi", "sdsrp");
  sc.world.legacy_step = true;
  const double half = sc.world.duration / 2.0;

  auto cold = build_world(sc);
  cold->run();

  auto first = build_world(sc);
  first->run_until(half);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold->digest());
  EXPECT_EQ(restored.world->contacts().full_pass_count(),
            restored.world->contacts().update_count());
}

// --- stream counts that would size an allocation ---

TEST(Archive, CountPastTheBytesLeftThrows) {
  snapshot::ArchiveWriter w;
  w.u64(3);
  for (int i = 0; i < 3; ++i) w.f64(1.0);
  w.u64(4);
  for (int i = 0; i < 3; ++i) w.f64(1.0);
  snapshot::ArchiveReader r(w.bytes());
  EXPECT_EQ(r.count(snapshot::kTagged64Bytes), 3u);
  for (int i = 0; i < 3; ++i) r.f64();
  EXPECT_THROW(r.count(snapshot::kTagged64Bytes), PreconditionError);
}

std::vector<std::uint8_t> little_endian(std::uint64_t v, int width) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return out;
}

// A value as the archive writes it: its tag byte, then its bytes.
std::vector<std::uint8_t> tagged(std::uint8_t tag, std::uint64_t v,
                                 int width) {
  std::vector<std::uint8_t> out = little_endian(v, width);
  out.insert(out.begin(), tag);
  return out;
}

// A framed file's payload sits between the 16-byte header and the 8-byte
// FNV-1a trailer.
constexpr std::size_t kFileHeaderBytes = 16;

std::vector<std::uint8_t> payload_of(const std::string& path) {
  const std::vector<char> file = file_bytes(path);
  return {file.begin() + kFileHeaderBytes, file.end() - 8};
}

// Overwrites the u64 whose tag byte is at payload offset `at` and
// re-hashes the trailer, so the file still passes every framing check.
void patch_u64(const std::string& path, std::size_t at, std::uint64_t v) {
  std::vector<std::uint8_t> payload = payload_of(path);
  ASSERT_EQ(payload.at(at), 0x03) << "not a u64 tag";
  const std::vector<std::uint8_t> value = tagged(0x03, v, 8);
  std::copy(value.begin(), value.end(), payload.begin() + at);
  snapshot::Fnv1a h;
  h.update(payload.data(), payload.size());
  const std::vector<std::uint8_t> trailer = little_endian(h.digest(), 8);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(kFileHeaderBytes);
  f.write(reinterpret_cast<const char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  f.write(reinterpret_cast<const char*>(trailer.data()), 8);
}

// A checkpoint of the small RWP world taken while a transfer is in flight.
std::string checkpoint_with_transfer(const std::string& name,
                                     std::unique_ptr<World>* world_out) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(1000.0);
  while (world->transfers_in_flight().empty()) world->step();
  const std::string path = temp_path(name);
  snapshot::save_checkpoint(path, sc, *world);
  *world_out = std::move(world);
  return path;
}

TEST(CorruptCheckpoint, HugeArenaHintThrowsPreconditionError) {
  std::unique_ptr<World> world;
  const std::string path = checkpoint_with_transfer("huge_hint.ckpt", &world);
  // The payload ends with the hint's high water and free count, the world
  // section's end, the "no extra" flag and the checkpoint section's end.
  const std::vector<std::uint8_t> payload = payload_of(path);
  const std::size_t at = payload.size() - 4 - 2 * snapshot::kTagged64Bytes;
  const std::vector<std::uint8_t> high_water =
      tagged(0x03, world->arena().high_water(), 8);
  ASSERT_TRUE(std::equal(high_water.begin(), high_water.end(),
                         payload.begin() + static_cast<std::ptrdiff_t>(at)));
  patch_u64(path, at, std::uint64_t{1} << 40);
  EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, HugeTransferCountThrowsPreconditionError) {
  std::unique_ptr<World> world;
  const std::string path =
      checkpoint_with_transfer("huge_transfers.ckpt", &world);
  // The transfer count follows the contact tracker's section end and
  // precedes the transfers, saved in sender order.
  const std::vector<Transfer>& transfers = world->transfers_in_flight();
  const Transfer& first = *std::min_element(
      transfers.begin(), transfers.end(),
      [](const Transfer& a, const Transfer& b) { return a.from < b.from; });
  std::vector<std::uint8_t> pattern = {0x09};
  for (const std::vector<std::uint8_t>& part :
       {tagged(0x03, transfers.size(), 8), tagged(0x02, first.from, 4),
        tagged(0x02, first.to, 4), tagged(0x03, first.msg, 8)}) {
    pattern.insert(pattern.end(), part.begin(), part.end());
  }
  const std::vector<std::uint8_t> payload = payload_of(path);
  const auto found = std::search(payload.begin(), payload.end(),
                                 pattern.begin(), pattern.end());
  ASSERT_NE(found, payload.end());
  ASSERT_EQ(std::search(found + 1, payload.end(), pattern.begin(),
                        pattern.end()),
            payload.end());
  patch_u64(path, static_cast<std::size_t>(found - payload.begin()) + 1,
            std::uint64_t{1} << 40);
  EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError);
  std::remove(path.c_str());
}

// --- digest determinism regression ---

TEST(Digest, SameSeedSameDigestTrajectory) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto a = build_world(sc);
  auto b = build_world(sc);
  for (double t = 500.0; t <= sc.world.duration; t += 500.0) {
    a->run_until(t);
    b->run_until(t);
    ASSERT_EQ(a->digest(), b->digest()) << "diverged by t=" << t;
  }
}

TEST(Digest, DifferentSeedsDifferentDigests) {
  Scenario sc1 = small_paper("rwp", "sdsrp");
  Scenario sc2 = sc1;
  sc2.seed = sc1.seed + 1;
  auto a = build_world(sc1);
  auto b = build_world(sc2);
  a->run();
  b->run();
  EXPECT_NE(a->digest(), b->digest());
}

TEST(Digest, CheapRelativeToStepping) {
  // The digest is meant to be callable every few hundred steps; just
  // assert it is pure (no state mutation): two calls agree.
  auto world = build_world(small_paper("rwp", "fifo"));
  world->run_until(1000.0);
  EXPECT_EQ(world->digest(), world->digest());
}

// --- resumable replica sets ---

TEST(CheckpointedRuns, RunScenarioResumesFromCheckpoint) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  const std::string dir = temp_path("ckpt_run_scenario");
  std::filesystem::remove_all(dir);

  const MetricPoint cold = run_scenario(sc);

  // Leave a half-way checkpoint behind, as an interrupted run would.
  {
    auto world = build_world(sc);
    DeliveredMessagesReport delivered;
    world->add_observer(&delivered);
    world->run_until(sc.world.duration / 2.0);
    std::filesystem::create_directories(dir);
    snapshot::save_checkpoint(
        dir + "/" + sc.name + "_seed" + std::to_string(sc.seed) + ".ckpt",
        sc, *world, [&delivered](snapshot::ArchiveWriter& out) {
          delivered.save_state(out);
        });
  }

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_s = 1000.0;
  SimStats stats;
  const MetricPoint warm = run_scenario(sc, &stats, ckpt);

  EXPECT_EQ(warm.delivery_ratio, cold.delivery_ratio);
  EXPECT_EQ(warm.avg_hopcount, cold.avg_hopcount);
  EXPECT_EQ(warm.overhead_ratio, cold.overhead_ratio);
  EXPECT_EQ(warm.avg_latency, cold.avg_latency);
  EXPECT_EQ(warm.median_latency, cold.median_latency);
  EXPECT_EQ(warm.p95_latency, cold.p95_latency);
  EXPECT_GT(stats.created, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointedRuns, InterruptedRunLeavesItsLastSaveOnDisk) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  const std::string dir = temp_path("ckpt_interrupted");
  std::filesystem::remove_all(dir);
  const std::string stem = run_file_stem(dir, sc, "");

  // Stop the run from the progress hook right after its 3rd save, while
  // that save may still be being written. A boundary saves only once
  // kCheckpointCostRatio times the last save's cost has passed since that
  // save ended. The hook waits that long before it returns: the save cost
  // less than all the time since the hook last returned (or the run
  // began), so every boundary saves.
  struct Interrupted {};
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_s = 500.0;
  int saves = 0;
  double stopped_at = 0.0;
  using Clock = std::chrono::steady_clock;
  Clock::time_point hook_left;
  ckpt.on_progress = [&](double now) {
    if (++saves == 3) {
      stopped_at = now;
      throw Interrupted{};
    }
    std::this_thread::sleep_for((Clock::now() - hook_left) *
                                kCheckpointCostRatio);
    hook_left = Clock::now();
  };
  hook_left = Clock::now();
  EXPECT_THROW(run_scenario(sc, nullptr, ckpt), Interrupted);
  ASSERT_EQ(saves, 3);
  EXPECT_EQ(stopped_at, 3 * ckpt.interval_s);
  EXPECT_FALSE(std::filesystem::exists(stem + ".ckpt.tmp"));
  EXPECT_FALSE(std::filesystem::exists(stem + ".done"));

  // The unwound run left exactly the 3rd save on disk.
  const std::string expected = temp_path("ckpt_interrupted_expected.ckpt");
  {
    auto world = build_world(sc);
    DeliveredMessagesReport delivered;
    world->add_observer(&delivered);
    world->run_until(stopped_at);
    snapshot::save_checkpoint(expected, sc, *world,
                              [&delivered](snapshot::ArchiveWriter& out) {
                                delivered.save_state(out);
                              });
  }
  EXPECT_EQ(file_bytes(stem + ".ckpt"), file_bytes(expected));
  std::remove(expected.c_str());

  ckpt.on_progress = {};
  const MetricPoint resumed = run_scenario(sc, nullptr, ckpt);
  const MetricPoint cold = run_scenario(sc);
  EXPECT_EQ(resumed.delivery_ratio, cold.delivery_ratio);
  EXPECT_EQ(resumed.avg_hopcount, cold.avg_hopcount);
  EXPECT_EQ(resumed.overhead_ratio, cold.overhead_ratio);
  EXPECT_EQ(resumed.avg_latency, cold.avg_latency);
  EXPECT_EQ(resumed.median_latency, cold.median_latency);
  EXPECT_EQ(resumed.p95_latency, cold.p95_latency);
  std::filesystem::remove_all(dir);
}

// --- checkpoint cadence ---

TEST(CheckpointCadence, FirstBoundaryAlwaysSaves) {
  EXPECT_TRUE(checkpoint_due(std::nullopt, 0.0));
  EXPECT_TRUE(checkpoint_due(std::nullopt, 1e-9));
}

TEST(CheckpointCadence, SaveSuppressesBoundariesUntilKTimesItsCost) {
  const double cost = 0.125;
  const double repaid = kCheckpointCostRatio * cost;
  EXPECT_FALSE(checkpoint_due(cost, 0.0));
  EXPECT_FALSE(checkpoint_due(cost, cost));
  EXPECT_FALSE(checkpoint_due(cost, repaid - 1e-6));
  EXPECT_TRUE(checkpoint_due(cost, repaid));
  EXPECT_TRUE(checkpoint_due(cost, 10.0 * repaid));
  // A free save leaves every boundary due.
  EXPECT_TRUE(checkpoint_due(0.0, 0.0));
}

TEST(CheckpointCadence, SavesAtTheNextBoundaryNeverBetween) {
  // Boundaries 1 s of wall time apart; each save costs 0.125 s, so K·c is
  // 2.5 s and is reached 2.625 s after a boundary that saved, between
  // two boundaries. The save waits for the boundary after that.
  const double cost = 0.125;
  ASSERT_EQ(kCheckpointCostRatio * cost, 2.5);
  std::optional<double> last_cost;
  double last_end = 0.0;
  std::vector<int> saved;
  for (int b = 0; b < 10; ++b) {
    const double at = b;
    if (!checkpoint_due(last_cost, at - last_end)) continue;
    saved.push_back(b);
    last_cost = cost;
    last_end = at + cost;
  }
  EXPECT_EQ(saved, (std::vector<int>{0, 3, 6, 9}));
}

TEST(CheckpointedRuns, FailedCheckpointWriteFailsTheRun) {
  const Scenario sc = small_paper("rwp", "fifo");
  const std::string dir = temp_path("ckpt_write_fails");
  std::filesystem::remove_all(dir);
  const std::string stem = run_file_stem(dir, sc, "");
  // A directory where the checkpoint goes: every save's rename fails on
  // the helper thread, and the run must report it.
  std::filesystem::create_directories(stem + ".ckpt");

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_s = 1000.0;
  try {
    run_scenario(sc, nullptr, ckpt);
    ADD_FAILURE() << "run_scenario did not report the failed write";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("rename failed"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(stem + ".ckpt.tmp"));
  EXPECT_FALSE(std::filesystem::exists(stem + ".done"));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointedRuns, ReplicatedSetResumesPartialWork) {
  const Scenario base = small_paper("rwp", "fifo");
  const std::size_t replicas = 3;
  const std::string dir = temp_path("ckpt_replicated");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const ReplicatedMetrics cold = run_replicated(base, replicas);

  // Simulate a partially completed set: replica 0 finished (its .done
  // marker exists), replica 1 stopped half-way (a .ckpt file exists),
  // replica 2 never started.
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_s = 1000.0;
  {
    Scenario r0 = base;
    CheckpointOptions keep = ckpt;
    keep.keep_files = true;
    run_scenario(r0, nullptr, keep);
    ASSERT_TRUE(std::filesystem::exists(
        dir + "/" + r0.name + "_seed" + std::to_string(r0.seed) + ".done"));
  }
  {
    Scenario r1 = base;
    r1.seed = base.seed + 1;
    auto world = build_world(r1);
    DeliveredMessagesReport delivered;
    world->add_observer(&delivered);
    world->run_until(r1.world.duration / 2.0);
    snapshot::save_checkpoint(
        dir + "/" + r1.name + "_seed" + std::to_string(r1.seed) + ".ckpt",
        r1, *world, [&delivered](snapshot::ArchiveWriter& out) {
          delivered.save_state(out);
        });
  }

  const ReplicatedMetrics warm = run_replicated(base, replicas, nullptr, ckpt);

  const MetricPoint cm = cold.mean();
  const MetricPoint wm = warm.mean();
  EXPECT_EQ(wm.delivery_ratio, cm.delivery_ratio);
  EXPECT_EQ(wm.avg_hopcount, cm.avg_hopcount);
  EXPECT_EQ(wm.overhead_ratio, cm.overhead_ratio);
  EXPECT_EQ(wm.avg_latency, cm.avg_latency);
  EXPECT_EQ(wm.median_latency, cm.median_latency);
  EXPECT_EQ(wm.p95_latency, cm.p95_latency);
  EXPECT_EQ(warm.delivery_ratio.stddev(), cold.delivery_ratio.stddev());
  std::filesystem::remove_all(dir);
}

// --- satellite: ReplicatedMetrics aggregates all six fields ---

TEST(ReplicatedMetricsFix, MeanCarriesLatencyQuantiles) {
  ReplicatedMetrics agg;
  MetricPoint a{0.5, 2.0, 3.0, 100.0, 80.0, 200.0};
  MetricPoint b{0.7, 4.0, 5.0, 140.0, 120.0, 280.0};
  agg.add(a);
  agg.add(b);
  const MetricPoint m = agg.mean();
  // Aggregates are exactly mergeable via 2^20 fixed-point quantization
  // (DESIGN.md §12), so means carry a <= 2^-21 absolute rounding error.
  constexpr double kQuant = 1e-5;
  EXPECT_NEAR(m.delivery_ratio, 0.6, kQuant);
  EXPECT_NEAR(m.avg_hopcount, 3.0, kQuant);
  EXPECT_NEAR(m.overhead_ratio, 4.0, kQuant);
  EXPECT_NEAR(m.avg_latency, 120.0, kQuant);
  EXPECT_NEAR(m.median_latency, 100.0, kQuant);
  EXPECT_NEAR(m.p95_latency, 240.0, kQuant);
}

}  // namespace
}  // namespace dtn
