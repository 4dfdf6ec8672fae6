#include "src/orch/shard_store.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn::orch {

std::string shard_result_path(const std::string& dir, std::size_t shard) {
  std::ostringstream os;
  os << dir << "/shard_" << shard << ".sdone";
  return os.str();
}

std::string results_path(const std::string& dir) {
  return dir + "/results.bin";
}

void write_shard_result(const std::string& dir, const ShardResult& result) {
  snapshot::ArchiveWriter w;
  w.begin_section("shard_result");
  w.u64(result.shard);
  w.u64(result.partials.size());
  for (const auto& [point, agg] : result.partials) {
    w.u64(point);
    save_aggregate(w, agg);
  }
  w.end_section();
  snapshot::write_archive_file(shard_result_path(dir, result.shard), w,
                               kResultsArchiveVersion);
}

bool read_shard_result(const std::string& dir, std::size_t shard,
                       ShardResult* out) {
  const std::string path = shard_result_path(dir, shard);
  if (!std::filesystem::exists(path)) return false;
  snapshot::ArchiveReader r = snapshot::read_archive_file(path);
  r.begin_section("shard_result");
  ShardResult result;
  result.shard = static_cast<std::size_t>(r.u64());
  DTN_REQUIRE(result.shard == shard, "shard result: index mismatch");
  // A partial is at least its point index and its aggregate's six
  // MergeStats of seven 64-bit fields each (save_aggregate).
  const std::size_t count = r.count(43 * snapshot::kTagged64Bytes);
  result.partials.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto point = static_cast<std::size_t>(r.u64());
    ReplicatedMetrics agg;
    load_aggregate(r, agg);
    result.partials.emplace_back(point, std::move(agg));
  }
  r.end_section();
  if (out != nullptr) *out = std::move(result);
  return true;
}

std::vector<std::size_t> scan_done_shards(const std::string& dir,
                                          std::size_t shard_count) {
  std::vector<std::size_t> done;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (std::filesystem::exists(shard_result_path(dir, s))) done.push_back(s);
  }
  return done;
}

std::vector<ReplicatedMetrics> merge_shards(const SweepManifest& manifest,
                                            const std::string& dir) {
  std::vector<ReplicatedMetrics> aggregates(manifest.points.size());
  for (std::size_t s = 0; s < manifest.shard_count(); ++s) {
    ShardResult result;
    DTN_REQUIRE(read_shard_result(dir, s, &result),
                "merge_shards: missing result for shard " + std::to_string(s));
    for (const auto& [point, partial] : result.partials) {
      DTN_REQUIRE(point < aggregates.size(),
                  "merge_shards: point index out of range");
      aggregates[point].merge(partial);
    }
  }
  return aggregates;
}

void write_results_file(const std::string& path, const SweepManifest& manifest,
                        const std::vector<ReplicatedMetrics>& aggregates) {
  DTN_REQUIRE(aggregates.size() == manifest.points.size(),
              "write_results_file: aggregate count mismatch");
  snapshot::ArchiveWriter w;
  w.begin_section("sweep_results");
  w.str(manifest.name);
  w.u64(manifest.points.size());
  w.u64(manifest.replicas);
  for (const ReplicatedMetrics& agg : aggregates) save_aggregate(w, agg);
  w.end_section();
  snapshot::write_archive_file(path, w, kResultsArchiveVersion);
}

std::vector<ReplicatedMetrics> read_results_file(const std::string& path) {
  snapshot::ArchiveReader r = snapshot::read_archive_file(path);
  r.begin_section("sweep_results");
  r.str();  // name
  const std::uint64_t points = r.u64();
  r.u64();  // replicas
  std::vector<ReplicatedMetrics> aggregates(
      static_cast<std::size_t>(points));
  for (auto& agg : aggregates) load_aggregate(r, agg);
  r.end_section();
  return aggregates;
}

void remove_run_files(const SweepManifest& manifest, const std::string& dir,
                      std::size_t shard) {
  const auto [first, last] = manifest.shard_runs(shard);
  for (std::size_t run = first; run < last; ++run) {
    const std::string stem = run_file_stem(dir, manifest.scenario_for(run),
                                           manifest.label_for(run));
    std::remove((stem + ".ckpt").c_str());
    std::remove((stem + ".done").c_str());
  }
}

void remove_shard_files(const std::string& dir, std::size_t shard_count) {
  for (std::size_t s = 0; s < shard_count; ++s) {
    std::remove(shard_result_path(dir, s).c_str());
  }
}

}  // namespace dtn::orch
