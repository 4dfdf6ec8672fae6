// Checkpoint/restore + state-digest subsystem tests.
//
// The load-bearing property: save at T/2, restore into a fresh World,
// run to T — digest and metrics must be identical to the uninterrupted
// run, for every policy on both paper scenarios. Everything else here
// (archive format validation, corruption rejection, resumable replica
// sets) supports that guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
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

// Copies the world's buffers hold.
std::uint64_t buffered_copies(const World& world) {
  std::uint64_t copies = 0;
  for (NodeId n = 0; n < world.node_count(); ++n) {
    copies += world.node(n).buffer().count();
  }
  return copies;
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

TEST(SnapshotFile, FineStepRunLoadsAtEverySave) {
  // Each node's open-interval sum is a running sum of contact times that
  // a 0.3 s step leaves inexact, and a restore checks it against the
  // restored open peers. Every save of a Table II run must pass.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.step = 0.3;
  sc.estimator.imt_mode = sdsrp::ImtEstimatorMode::kCensoredMle;
  auto world = build_world(sc);
  for (const double t : {1500.0, 4500.0, 9000.0, 13500.0, 18000.0}) {
    world->run_until(t);
    snapshot::ArchiveWriter out;
    snapshot::save_world(out, sc, *world);
    snapshot::ArchiveReader in(out.bytes());
    std::unique_ptr<World> restored;
    ASSERT_NO_THROW(restored = snapshot::restore_world(in).world)
        << "t = " << world->now();
    EXPECT_EQ(restored->digest(), world->digest()) << "t = " << world->now();
  }
}

TEST(SnapshotFile, ShortTtlWorldRoundTripsDigestIdentical) {
  // A 400 s TTL purges copies all through the run, so the buffers at the
  // save point hold survivors of every mix of purges, deliveries and
  // drops. The world restores digest-equal at 1,500 s and resumes to the
  // uninterrupted run's end digest.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 24;
  sc.world.duration = 3000.0;
  sc.traffic.ttl = 400.0;
  sc.traffic.interval_min = 15.0;
  sc.traffic.interval_max = 25.0;
  sc.policy = "sdsrp";
  sc.seed = 17;
  auto world = build_world(sc);
  world->run_until(1500.0);
  ASSERT_GT(world->stats().ttl_expired, 0u);
  ASSERT_GT(buffered_copies(*world), 0u);

  const std::string path = temp_path("short_ttl.ckpt");
  snapshot::save_checkpoint(path, sc, *world);
  auto restored = snapshot::restore_checkpoint(path);
  EXPECT_EQ(restored.world->digest(), world->digest())
      << "restore drifted";

  world->run();
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), world->digest())
      << "resumed run diverged from the uninterrupted one";
  std::remove(path.c_str());
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

// Rewrites the framed file at `path` around `payload`: its magic and
// version, the payload's length, the payload and a trailer that hashes
// it, so the file passes every framing check.
void reframe(const std::string& path,
             const std::vector<std::uint8_t>& payload) {
  const std::vector<char> file = file_bytes(path);
  ASSERT_GE(file.size(), kFileHeaderBytes);
  std::vector<std::uint8_t> out(file.begin(), file.begin() + 8);
  for (const std::vector<std::uint8_t>& part :
       {little_endian(payload.size(), 8), payload}) {
    out.insert(out.end(), part.begin(), part.end());
  }
  snapshot::Fnv1a h;
  h.update(payload.data(), payload.size());
  const std::vector<std::uint8_t> trailer = little_endian(h.digest(), 8);
  out.insert(out.end(), trailer.begin(), trailer.end());
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(out.data()),
          static_cast<std::streamsize>(out.size()));
}

// Overwrites the `width`-byte value whose tag byte `tag` is at payload
// offset `at` and re-frames the file.
void patch_value(const std::string& path, std::size_t at, std::uint8_t tag,
                 std::uint64_t v, int width) {
  std::vector<std::uint8_t> payload = payload_of(path);
  ASSERT_EQ(payload.at(at), tag) << "not the expected tag";
  const std::vector<std::uint8_t> value = tagged(tag, v, width);
  std::copy(value.begin(), value.end(), payload.begin() + at);
  reframe(path, payload);
}

void patch_u64(const std::string& path, std::size_t at, std::uint64_t v) {
  patch_value(path, at, 0x03, v, 8);
}

void patch_u32(const std::string& path, std::size_t at, std::uint32_t v) {
  patch_value(path, at, 0x02, v, 4);
}

// The small RWP world, paused while a transfer is in flight.
std::unique_ptr<World> world_with_transfer(const Scenario& sc) {
  auto world = build_world(sc);
  world->run_until(1000.0);
  while (world->transfers_in_flight().empty()) world->step();
  return world;
}

// A checkpoint of the small RWP world taken while a transfer is in flight.
std::string checkpoint_with_transfer(const std::string& name,
                                     std::unique_ptr<World>* world_out) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = world_with_transfer(sc);
  const std::string path = temp_path(name);
  snapshot::save_checkpoint(path, sc, *world);
  *world_out = std::move(world);
  return path;
}

TEST(CorruptCheckpoint, HugeArenaHintThrowsPreconditionError) {
  std::unique_ptr<World> world;
  const std::string path = checkpoint_with_transfer("huge_hint.ckpt", &world);
  // The payload ends with the v5 hint, the world section's end, the "no
  // extra" flag and the checkpoint section's end. The hint is a high
  // water and a free count, written as the fleet's copies and 0.
  const std::vector<std::uint8_t> payload = payload_of(path);
  const std::size_t at = payload.size() - 4 - 2 * snapshot::kTagged64Bytes;
  std::vector<std::uint8_t> hint = tagged(0x03, buffered_copies(*world), 8);
  const std::vector<std::uint8_t> no_free = tagged(0x03, 0, 8);
  hint.insert(hint.end(), no_free.begin(), no_free.end());
  ASSERT_GT(buffered_copies(*world), 0u);
  ASSERT_TRUE(std::equal(hint.begin(), hint.end(),
                         payload.begin() + static_cast<std::ptrdiff_t>(at)));
  // A hint with free slots loads when high water minus free slots is the
  // restored copy count, as a file written by the slab arena did.
  patch_u64(path, at, buffered_copies(*world) + 5);
  patch_u64(path, at + snapshot::kTagged64Bytes, 5);
  EXPECT_NO_THROW(snapshot::restore_checkpoint(path));
  patch_u64(path, at + snapshot::kTagged64Bytes, 4);
  EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError);
  patch_u64(path, at, std::uint64_t{1} << 40);
  EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError);
  std::remove(path.c_str());
}

// The in-flight transfer that a checkpoint saves first (transfers are
// saved in sender order).
Transfer first_saved_transfer(const World& world) {
  const std::vector<Transfer>& transfers = world.transfers_in_flight();
  return *std::min_element(
      transfers.begin(), transfers.end(),
      [](const Transfer& a, const Transfer& b) { return a.from < b.from; });
}

// Payload offset of the transfer count's tag byte. The count follows the
// contact tracker's section end and precedes the transfers: the first
// one's from (u32) at +9, to (u32) at +14 and msg (u64) at +19.
std::size_t transfer_count_at(const std::string& path, const World& world) {
  const Transfer first = first_saved_transfer(world);
  std::vector<std::uint8_t> pattern = {0x09};
  for (const std::vector<std::uint8_t>& part :
       {tagged(0x03, world.transfers_in_flight().size(), 8),
        tagged(0x02, first.from, 4), tagged(0x02, first.to, 4),
        tagged(0x03, first.msg, 8)}) {
    pattern.insert(pattern.end(), part.begin(), part.end());
  }
  const std::vector<std::uint8_t> payload = payload_of(path);
  const auto found = std::search(payload.begin(), payload.end(),
                                 pattern.begin(), pattern.end());
  EXPECT_NE(found, payload.end());
  EXPECT_EQ(std::search(found + 1, payload.end(), pattern.begin(),
                        pattern.end()),
            payload.end());
  return static_cast<std::size_t>(found - payload.begin()) + 1;
}

constexpr std::size_t kFirstTransferTo = 14;
constexpr std::size_t kFirstTransferMsg = 19;

TEST(CorruptCheckpoint, HugeTransferCountThrowsPreconditionError) {
  std::unique_ptr<World> world;
  const std::string path =
      checkpoint_with_transfer("huge_transfers.ckpt", &world);
  patch_u64(path, transfer_count_at(path, *world), std::uint64_t{1} << 40);
  EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, TransferReceiverNotAnotherFleetNodeThrows) {
  // Restoring these used to succeed; the run then threw "node id out of
  // range" at the step that completed or aborted the transfer.
  for (int which = 0; which < 3; ++which) {
    std::unique_ptr<World> world;
    const std::string path = checkpoint_with_transfer("bad_to.ckpt", &world);
    const auto n = static_cast<std::uint32_t>(world->node_count());
    const std::uint32_t to[] = {n, 4'000'000'000u,
                                first_saved_transfer(*world).from};
    patch_u32(path, transfer_count_at(path, *world) + kFirstTransferTo,
              to[which]);
    EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError)
        << "to = " << to[which];
    std::remove(path.c_str());
  }
}

TEST(CorruptCheckpoint, TransferOfAMessageTheSenderDoesNotPinThrows) {
  // A message the sender holds but has not pinned, and one it lacks.
  for (int which = 0; which < 2; ++which) {
    std::unique_ptr<World> world;
    const std::string path = checkpoint_with_transfer("bad_msg.ckpt", &world);
    const Transfer first = first_saved_transfer(*world);
    std::optional<MessageId> unpinned;
    for (const Message& m : world->node(first.from).buffer().messages()) {
      if (m.id != first.msg) unpinned = m.id;
    }
    ASSERT_TRUE(unpinned.has_value()) << "the sender must hold a second copy";
    const MessageId msg[] = {*unpinned, MessageId{1} << 40};
    patch_u64(path, transfer_count_at(path, *world) + kFirstTransferMsg,
              msg[which]);
    EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError)
        << "msg = " << msg[which];
    std::remove(path.c_str());
  }
}

// Payload offset of the only occurrence of `parts`, concatenated.
std::size_t unique_offset(const std::string& path,
                          const std::vector<std::vector<std::uint8_t>>& parts) {
  std::vector<std::uint8_t> pattern;
  for (const std::vector<std::uint8_t>& part : parts) {
    pattern.insert(pattern.end(), part.begin(), part.end());
  }
  const std::vector<std::uint8_t> payload = payload_of(path);
  const auto found = std::search(payload.begin(), payload.end(),
                                 pattern.begin(), pattern.end());
  EXPECT_NE(found, payload.end());
  EXPECT_EQ(std::search(found + 1, payload.end(), pattern.begin(),
                        pattern.end()),
            payload.end());
  return static_cast<std::size_t>(found - payload.begin());
}

// A node that neither sends nor receives and holds at least `min_copies`.
NodeId idle_node(const World& world, std::size_t min_copies) {
  for (NodeId n = 0; n < world.node_count(); ++n) {
    bool in_transfer = false;
    for (const Transfer& t : world.transfers_in_flight()) {
      in_transfer = in_transfer || t.from == n || t.to == n;
    }
    if (!in_transfer && world.node(n).buffer().count() >= min_copies) {
      return n;
    }
  }
  ADD_FAILURE() << "no idle node holds " << min_copies << " copies";
  return 0;
}

// Payload offset of the tag byte of resident `i`'s id in `b`, found by the
// buffer's revision, count and residents as a save writes them.
std::size_t resident_at(const std::string& path, const Buffer& b,
                        std::size_t i) {
  snapshot::ArchiveWriter all;
  snapshot::ArchiveWriter before;
  for (snapshot::ArchiveWriter* w : {&all, &before}) {
    w->u64(b.revision());
    w->u64(b.count());
  }
  for (std::size_t k = 0; k < b.count(); ++k) {
    save_message(all, b.messages()[k]);
    if (k < i) save_message(before, b.messages()[k]);
  }
  return unique_offset(path, {all.bytes()}) + before.bytes().size();
}

// A message's size (i64) follows its id (u64) and its two node ids (u32).
constexpr std::size_t kMessageSize = 9 + 5 + 5;

TEST(CorruptCheckpoint, BufferRepeatingAMessageIdThrows) {
  // Restoring it used to succeed: both residents counted in used() and
  // take() found only the first.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = world_with_transfer(sc);
  const Buffer& b = world->node(idle_node(*world, 2)).buffer();
  const std::string path = temp_path("repeated_id.ckpt");
  snapshot::save_checkpoint(path, sc, *world);
  patch_u64(path, resident_at(path, b, 1), b.messages()[0].id);
  EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, BufferedMessageOfSizeZeroOrLessThrows) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = world_with_transfer(sc);
  const Buffer& b = world->node(idle_node(*world, 1)).buffer();
  const std::string path = temp_path("message_size.ckpt");
  for (const std::int64_t size : {std::int64_t{0}, std::int64_t{-1}}) {
    snapshot::save_checkpoint(path, sc, *world);
    patch_value(path, resident_at(path, b, 0) + kMessageSize, 0x04,
                static_cast<std::uint64_t>(size), 8);
    EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError)
        << "size " << size;
  }
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, PinThatNoTransferSendsThrows) {
  // Restoring these used to succeed. A pinned copy with no transfer never
  // left its buffer and never expired: purge_ttl re-queues a pinned copy
  // every step. Cases: a resident of an idle node, and a sender's second
  // resident.
  const Scenario sc = small_paper("rwp", "sdsrp");
  const std::string path = temp_path("stray_pin.ckpt");
  for (int which = 0; which < 2; ++which) {
    auto world = world_with_transfer(sc);
    const Transfer first = first_saved_transfer(*world);
    Node& n = world->node(which == 0 ? idle_node(*world, 1) : first.from);
    std::optional<MessageId> unpinned;
    for (const Message& m : n.buffer().messages()) {
      if (!n.is_pinned(m.id)) unpinned = m.id;
    }
    ASSERT_TRUE(unpinned.has_value()) << "case " << which;
    n.pin(*unpinned);
    snapshot::save_checkpoint(path, sc, *world);
    EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError)
        << "case " << which;
  }
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, RadioFlagThatDisagreesWithTheTransfersThrows) {
  // Restoring these used to succeed. A busy flag on an idle node silenced
  // it for the rest of the run. A cleared flag on a sender let it start a
  // second transfer, whose outgoing_ entry replaced the first one's: the
  // first one's ETA popped as a tombstone, so it never completed and its
  // receiver stayed busy. Cases: an idle node set busy, a sender and a
  // receiver cleared.
  const Scenario sc = small_paper("rwp", "sdsrp");
  const std::string path = temp_path("radio_flag.ckpt");
  for (int which = 0; which < 3; ++which) {
    auto world = world_with_transfer(sc);
    const Transfer first = first_saved_transfer(*world);
    const NodeId n[] = {idle_node(*world, 0), first.from, first.to};
    world->node(n[which]).set_radio_busy(which == 0);
    snapshot::save_checkpoint(path, sc, *world);
    EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError)
        << "case " << which;
  }
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, DeliveredIdsRepeatedOrOutOfOrderThrow) {
  // Restoring these used to succeed: the set collapsed the repeat or put
  // the id back in order, so the restored node re-saved other bytes than
  // it loaded.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(sc.world.duration);
  // A destination holding at least two delivered ids, ascending as saved.
  std::vector<MessageId> ids;
  for (NodeId n = 0; n < world->node_count() && ids.size() < 2; ++n) {
    ids.clear();
    for (MessageId id = 0; id <= world->stats().created + 1; ++id) {
      if (world->node(n).has_delivered(id)) ids.push_back(id);
    }
  }
  ASSERT_GE(ids.size(), 2u);
  ASSERT_GT(ids[0], 0u);
  const std::string path = temp_path("delivered_ids.ckpt");
  for (const MessageId second : {ids[0], ids[0] - 1}) {
    snapshot::save_checkpoint(path, sc, *world);
    // The set follows the dropped-list section's end: its count, then the
    // ids; the second id's tag byte is two tagged values in.
    const std::size_t at =
        unique_offset(path, {{0x09}, tagged(0x03, ids.size(), 8),
                             tagged(0x03, ids[0], 8),
                             tagged(0x03, ids[1], 8)}) +
        1 + 2 * snapshot::kTagged64Bytes;
    patch_u64(path, at, second);
    EXPECT_THROW(snapshot::restore_checkpoint(path), PreconditionError)
        << "second id " << second;
  }
  std::remove(path.c_str());
}

TEST(CorruptCheckpoint, Fig3PairsRepeatedOrBeyondTheFleetThrow) {
  // A world collecting Fig. 3 samples keeps each pair's last link-down
  // time; this observer keeps the same map, so the test can find it in
  // the checkpoint.
  struct LinkDownLog : WorldObserver {
    std::map<NodePair, double> last_end;
    void on_link_down(const NodePair& p, SimTime now) override {
      last_end[p] = now;
    }
  };
  Scenario sc = small_paper("rwp", "sdsrp");
  sc.world.collect_intermeeting = true;
  auto world = build_world(sc);
  LinkDownLog log;
  world->add_observer(&log);
  world->run_until(1000.0);
  ASSERT_GE(log.last_end.size(), 2u);
  const auto [p0, t0] = *log.last_end.begin();
  const auto [p1, t1] = *std::next(log.last_end.begin());
  const auto n = static_cast<std::uint64_t>(world->node_count());
  // Replacements for the second pair (first, second): the first pair
  // again, a node past the fleet, and the pair the wrong way round.
  const std::pair<std::uint64_t, std::uint64_t> patches[] = {
      {p0.first, p0.second}, {p1.first, n}, {p1.second, p1.first}};
  const std::string path = temp_path("fig3_pairs.ckpt");
  for (const auto& [first, second] : patches) {
    snapshot::save_checkpoint(path, sc, *world);
    // The map is its size, then (first, second, time) per pair.
    const std::size_t at =
        unique_offset(path,
                      {tagged(0x03, log.last_end.size(), 8),
                       tagged(0x03, p0.first, 8), tagged(0x03, p0.second, 8),
                       tagged(0x05, std::bit_cast<std::uint64_t>(t0), 8),
                       tagged(0x03, p1.first, 8), tagged(0x03, p1.second, 8)}) +
        4 * snapshot::kTagged64Bytes;
    patch_u64(path, at, first);
    patch_u64(path, at + snapshot::kTagged64Bytes, second);
    auto fresh = build_world(sc);
    snapshot::ArchiveReader in = snapshot::read_archive_file(path);
    EXPECT_THROW(snapshot::restore_world_into(in, *fresh), PreconditionError)
        << "second pair (" << first << ", " << second << ")";
  }
  std::remove(path.c_str());
}

// --- archive v7: the shared drop-record table ---

// Distinct drop records the world's nodes hold: the size of the table a
// checkpoint of it writes.
std::size_t distinct_drop_records(const World& world) {
  sdsrp::DropRecordTable table;
  for (NodeId n = 0; n < world.node_count(); ++n) {
    table.add(world.node(n).dropped_list());
  }
  return table.size();
}

std::size_t drop_record_references(const World& world) {
  std::size_t refs = 0;
  for (NodeId n = 0; n < world.node_count(); ++n) {
    refs += world.node(n).dropped_list().known_records();
  }
  return refs;
}

TEST(SnapshotV7, RestoreSharesTheSavedRecordsAndResavesTheSameBytes) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  const double half = sc.world.duration / 2.0;
  auto cold = build_world(sc);
  cold->run();

  auto first = build_world(sc);
  first->run_until(half);
  const std::size_t distinct = distinct_drop_records(*first);
  ASSERT_GT(distinct, 10u);
  ASSERT_LT(2 * distinct, drop_record_references(*first))
      << "the save point must hold shared records";
  snapshot::ArchiveWriter saved;
  snapshot::save_world(saved, sc, *first);
  first.reset();

  snapshot::ArchiveReader in(saved.bytes());
  auto restored = snapshot::restore_world(in);
  EXPECT_EQ(distinct_drop_records(*restored.world), distinct);
  snapshot::ArchiveWriter resaved;
  snapshot::save_world(resaved, sc, *restored.world);
  EXPECT_TRUE(resaved.bytes() == saved.bytes())
      << "a restored world re-saves other bytes";
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold->digest());
}

TEST(SnapshotV7, DigestHashesEveryRecordInFull) {
  // A digest writes each node's records in full, as archive v6 did, and
  // a checkpoint writes each shared record once: the digest describes the
  // state, not which nodes came to share a record.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  snapshot::ArchiveWriter hashed(snapshot::ArchiveWriter::Mode::kDigestOnly);
  world->save_state(hashed);
  EXPECT_EQ(hashed.digest(), world->digest());
  snapshot::ArchiveWriter saved;
  world->save_state(saved);
  EXPECT_GT(hashed.bytes_written(), saved.bytes_written());
}

// Where a v7 checkpoint keeps its drop records: payload offsets of the
// tag bytes of the table's values and of each node's references.
struct DropLayout {
  struct Entry {
    std::size_t owner_at = 0;
    std::uint32_t owner = 0;
    std::vector<std::size_t> id_at;
    std::vector<std::uint64_t> ids;
  };
  struct Ref {
    std::size_t owner_at = 0;
    std::size_t index_at = 0;
    std::uint32_t owner = 0;
    std::uint32_t index = 0;
  };
  std::size_t table_at = 0;  ///< the table's section begin
  std::size_t count_at = 0;
  std::vector<Entry> entries;
  std::size_t table_end_at = 0;
  std::vector<std::size_t> list_at;   ///< each node's section begin
  std::vector<std::size_t> list_end;  ///< one past its section end
  std::vector<std::size_t> refs_count_at;
  std::vector<std::vector<Ref>> refs;  ///< per node
};

std::uint64_t value_at(const std::vector<std::uint8_t>& payload,
                       std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(payload.at(at + 1 + i)) << (8 * i);
  }
  return v;
}

std::vector<std::size_t> section_offsets(
    const std::vector<std::uint8_t>& payload, const std::string& name) {
  std::vector<std::uint8_t> pattern = tagged(0x08, name.size(), 8);
  pattern.insert(pattern.end(), name.begin(), name.end());
  std::vector<std::size_t> found;
  for (auto it = payload.begin();
       (it = std::search(it, payload.end(), pattern.begin(),
                         pattern.end())) != payload.end();
       ++it) {
    found.push_back(static_cast<std::size_t>(it - payload.begin()));
  }
  return found;
}

DropLayout drop_layout(const std::vector<std::uint8_t>& payload,
                       std::size_t fleet) {
  DropLayout l;
  const std::vector<std::size_t> tables =
      section_offsets(payload, "drop-records");
  EXPECT_EQ(tables.size(), 1u);
  l.table_at = tables.at(0);
  std::size_t at = l.table_at + 9 + 12;
  l.count_at = at;
  const std::uint64_t n_entries = value_at(payload, at, 8);
  at += 9;
  for (std::uint64_t e = 0; e < n_entries; ++e) {
    DropLayout::Entry entry;
    entry.owner_at = at;
    entry.owner = static_cast<std::uint32_t>(value_at(payload, at, 4));
    at += 5 + 9;  // owner, record time
    const std::uint64_t n_ids = value_at(payload, at, 8);
    at += 9;
    for (std::uint64_t i = 0; i < n_ids; ++i, at += 9) {
      entry.id_at.push_back(at);
      entry.ids.push_back(value_at(payload, at, 8));
    }
    l.entries.push_back(entry);
  }
  l.table_end_at = at;
  EXPECT_EQ(payload.at(at), 0x09);
  l.list_at = section_offsets(payload, "dropped-list");
  EXPECT_EQ(l.list_at.size(), fleet);
  for (const std::size_t list : l.list_at) {
    at = list + 9 + 12 + 9;  // section begin, the list's owner
    l.refs_count_at.push_back(at);
    const std::uint64_t n_refs = value_at(payload, at, 8);
    at += 9;
    std::vector<DropLayout::Ref> refs;
    for (std::uint64_t r = 0; r < n_refs; ++r, at += 10) {
      refs.push_back(DropLayout::Ref{
          at, at + 5, static_cast<std::uint32_t>(value_at(payload, at, 4)),
          static_cast<std::uint32_t>(value_at(payload, at + 5, 4))});
    }
    EXPECT_EQ(payload.at(at), 0x09);
    l.refs.push_back(refs);
    l.list_end.push_back(at + 1);
  }
  return l;
}

// A v7 checkpoint of the small RWP world at 2,000 s, with its layout.
struct V7Checkpoint {
  std::string path;
  std::vector<std::uint8_t> payload;
  DropLayout layout;
  std::size_t fleet = 0;
};

V7Checkpoint v7_checkpoint(const std::string& name) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(2000.0);
  V7Checkpoint c;
  c.path = temp_path(name);
  snapshot::save_checkpoint(c.path, sc, *world);
  c.payload = payload_of(c.path);
  c.fleet = world->node_count();
  c.layout = drop_layout(c.payload, c.fleet);
  EXPECT_EQ(c.layout.entries.size(), distinct_drop_records(*world));
  return c;
}

// Restoring `path` throws PreconditionError whose message names `why`.
void expect_rejected(const std::string& path, const std::string& why) {
  try {
    snapshot::restore_checkpoint(path);
    ADD_FAILURE() << "restored; expected: " << why;
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << "rejected for another reason: " << e.what();
  }
}

TEST(V7Decoder, LayoutRoundTripsUnpatched) {
  const V7Checkpoint c = v7_checkpoint("v7_plain.ckpt");
  std::size_t refs = 0;
  for (const auto& list : c.layout.refs) refs += list.size();
  ASSERT_GT(c.layout.entries.size(), 10u);
  ASSERT_GT(refs, 2 * c.layout.entries.size());
  reframe(c.path, c.payload);
  EXPECT_NO_THROW(snapshot::restore_checkpoint(c.path));
  std::remove(c.path.c_str());
}

TEST(V7Decoder, IndexBeyondTheTableThrows) {
  const V7Checkpoint c = v7_checkpoint("v7_index.ckpt");
  const auto size = static_cast<std::uint32_t>(c.layout.entries.size());
  for (const std::uint32_t index : {size, 4'000'000'000u}) {
    reframe(c.path, c.payload);
    patch_u32(c.path, c.layout.refs.back().back().index_at, index);
    expect_rejected(c.path, "index beyond the table");
  }
  std::remove(c.path.c_str());
}

TEST(V7Decoder, ReferencesRepeatedOrOutOfOwnerOrderThrow) {
  const V7Checkpoint c = v7_checkpoint("v7_order.ckpt");
  // A list with two references whose first owner is not node 0.
  const DropLayout::Ref* first = nullptr;
  const DropLayout::Ref* second = nullptr;
  for (const auto& list : c.layout.refs) {
    if (list.size() >= 2 && list[0].owner > 0) {
      first = &list[0];
      second = &list[1];
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  for (const std::uint32_t owner : {first->owner, first->owner - 1}) {
    reframe(c.path, c.payload);
    patch_u32(c.path, second->owner_at, owner);
    expect_rejected(c.path, "owners repeated or out of order");
  }
  std::remove(c.path.c_str());
}

TEST(V7Decoder, ReferenceToAnEntryOfAnotherOwnerThrows) {
  const V7Checkpoint c = v7_checkpoint("v7_owner.ckpt");
  // A reference after the first one (which names entry 0), pointed at
  // entry 0, whose owner is another node.
  std::vector<const DropLayout::Ref*> refs;
  for (const auto& list : c.layout.refs) {
    for (const DropLayout::Ref& r : list) refs.push_back(&r);
  }
  ASSERT_FALSE(refs.empty());
  ASSERT_EQ(refs[0]->index, 0u);
  const auto victim =
      std::find_if(refs.begin() + 1, refs.end(), [&](const auto* r) {
        return r->owner != c.layout.entries[0].owner;
      });
  ASSERT_NE(victim, refs.end());
  reframe(c.path, c.payload);
  patch_u32(c.path, (*victim)->index_at, 0);
  expect_rejected(c.path, "entry of another owner");
  std::remove(c.path.c_str());
}

TEST(V7Decoder, EntryNoListNamesThrows) {
  const V7Checkpoint c = v7_checkpoint("v7_unnamed.ckpt");
  // One more entry at the end of the table: owner 0, no ids.
  std::vector<std::uint8_t> payload = c.payload;
  std::vector<std::uint8_t> entry = tagged(0x02, 0, 4);
  for (const std::vector<std::uint8_t>& part :
       {tagged(0x05, std::bit_cast<std::uint64_t>(1.0), 8),
        tagged(0x03, 0, 8)}) {
    entry.insert(entry.end(), part.begin(), part.end());
  }
  payload.insert(payload.begin() +
                     static_cast<std::ptrdiff_t>(c.layout.table_end_at),
                 entry.begin(), entry.end());
  const std::vector<std::uint8_t> count =
      tagged(0x03, c.layout.entries.size() + 1, 8);
  std::copy(count.begin(), count.end(),
            payload.begin() + static_cast<std::ptrdiff_t>(c.layout.count_at));
  reframe(c.path, payload);
  expect_rejected(c.path, "an entry that no list names");
  std::remove(c.path.c_str());
}

TEST(V7Decoder, EntriesOutOfFirstSeenOrderThrow) {
  // The first reference names the table's last entry instead of its
  // first: the table was not written in the order the lists name it.
  const V7Checkpoint c = v7_checkpoint("v7_first_seen.ckpt");
  const DropLayout::Ref* first = nullptr;
  for (const auto& list : c.layout.refs) {
    if (!list.empty()) {
      first = &list[0];
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(first->index, 0u);
  reframe(c.path, c.payload);
  patch_u32(c.path, first->index_at,
            static_cast<std::uint32_t>(c.layout.entries.size() - 1));
  expect_rejected(c.path, "out of first-seen order");
  std::remove(c.path.c_str());
}

TEST(V7Decoder, OwnerOutsideTheFleetThrows) {
  const V7Checkpoint c = v7_checkpoint("v7_fleet.ckpt");
  const auto n = static_cast<std::uint32_t>(c.fleet);
  for (const std::uint32_t owner : {n, 4'000'000'000u}) {
    reframe(c.path, c.payload);
    patch_u32(c.path, c.layout.entries.back().owner_at, owner);
    expect_rejected(c.path, "owner outside the fleet");
  }
  std::remove(c.path.c_str());
}

TEST(V7Decoder, IdsNotStrictlyAscendingThrow) {
  const V7Checkpoint c = v7_checkpoint("v7_ids.ckpt");
  const DropLayout::Entry* entry = nullptr;
  for (const DropLayout::Entry& e : c.layout.entries) {
    if (e.ids.size() >= 2 && e.ids[0] > 0) {
      entry = &e;
      break;
    }
  }
  ASSERT_NE(entry, nullptr);
  for (const std::uint64_t second : {entry->ids[0], entry->ids[0] - 1}) {
    reframe(c.path, c.payload);
    patch_u64(c.path, entry->id_at[1], second);
    expect_rejected(c.path, "message ids not strictly ascending");
  }
  std::remove(c.path.c_str());
}

TEST(V7Decoder, MutatedTableAndReferencesLoadOrThrow) {
  // Seeded truncations, bit flips and inflated counts, indices and owners
  // inside the table and the lists that name it, each re-framed with a
  // valid trailer so it reaches the decoder. Every mutant must load or
  // throw PreconditionError: no crash, no std::bad_alloc, no hang (the
  // sanitizer build runs this too). One that loads must re-save the bytes
  // it was loaded from, as the decoder accepts only the canonical form.
  const V7Checkpoint c = v7_checkpoint("v7_fuzz.ckpt");
  const DropLayout& l = c.layout;
  std::vector<std::size_t> counts = {l.count_at};
  std::vector<std::size_t> u32s;
  for (const DropLayout::Entry& e : l.entries) {
    u32s.push_back(e.owner_at);
    counts.push_back(e.owner_at + 5 + 9);
  }
  for (std::size_t n = 0; n < l.refs.size(); ++n) {
    counts.push_back(l.refs_count_at[n]);
    for (const DropLayout::Ref& r : l.refs[n]) {
      u32s.push_back(r.owner_at);
      u32s.push_back(r.index_at);
    }
  }
  // The bytes a flip or a cut may land in: the table's section and each
  // list's.
  std::vector<std::size_t> drop_bytes;
  for (std::size_t at = l.table_at; at <= l.table_end_at; ++at) {
    drop_bytes.push_back(at);
  }
  for (std::size_t n = 0; n < l.list_at.size(); ++n) {
    for (std::size_t at = l.list_at[n]; at < l.list_end[n]; ++at) {
      drop_bytes.push_back(at);
    }
  }
  Rng rng(2026);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto in_drop_bytes = [&] { return drop_bytes[pick(drop_bytes.size())]; };
  int loaded = 0;
  int rejected = 0;
  for (int m = 0; m < 400; ++m) {
    std::vector<std::uint8_t> payload = c.payload;
    const int kind = m % 4;
    if (kind == 0) {  // truncation
      payload.resize(in_drop_bytes());
    } else if (kind == 1) {  // bit flips
      for (int f = 1 + static_cast<int>(pick(3)); f > 0; --f) {
        payload[in_drop_bytes()] ^=
            static_cast<std::uint8_t>(1u << pick(8));
      }
    } else {
      // An inflated or arbitrary count (u64), or index or owner (u32).
      const bool wide = kind == 2;
      const std::size_t at = wide ? counts[pick(counts.size())]
                                  : u32s[pick(u32s.size())];
      const int width = wide ? 8 : 4;
      const std::uint64_t old = value_at(payload, at, width);
      const std::uint64_t mask =
          wide ? ~std::uint64_t{0} : std::uint64_t{0xFFFFFFFF};
      const std::uint64_t choices[] = {
          old + 1, old - 1, old + 1 + pick(8), std::uint64_t{1} << pick(64),
          mask, rng.next_u64()};
      const std::uint64_t v = choices[pick(6)] & mask;
      const std::vector<std::uint8_t> bytes =
          tagged(payload[at], v, width);
      std::copy(bytes.begin(), bytes.end(),
                payload.begin() + static_cast<std::ptrdiff_t>(at));
    }
    reframe(c.path, payload);
    try {
      auto restored = snapshot::restore_checkpoint(c.path);
      ++loaded;
      snapshot::ArchiveWriter resaved;
      snapshot::save_world(resaved, restored.scenario, *restored.world);
      EXPECT_TRUE(resaved.bytes() == payload) << "mutant " << m;

    } catch (const PreconditionError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(loaded + rejected, 400);
  EXPECT_GT(rejected, 200);
  std::remove(c.path.c_str());
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
