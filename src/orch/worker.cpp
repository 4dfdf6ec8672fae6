#include "src/orch/worker.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <istream>
#include <ostream>

#include <unistd.h>

#include "src/orch/wire.hpp"
#include "src/util/error.hpp"
#include "src/util/thread_pool.hpp"

namespace dtn::orch {

ShardResult run_shard(const SweepManifest& manifest, const std::string& dir,
                      std::size_t shard, const WorkerOptions& opts) {
  DTN_REQUIRE(!dir.empty(), "run_shard: empty sweep directory");
  const auto [first, last] = manifest.shard_runs(shard);
  const std::size_t total = last - first;

  ShardResult result;
  if (read_shard_result(dir, shard, &result)) {
    // Re-leased after a crash that landed between persisting the result
    // and reporting it: the work is already durable. Still honor the
    // cleanup contract so no run files outlive a completed shard.
    if (!opts.keep_run_files) remove_run_files(manifest, dir, shard);
    if (opts.on_progress) opts.on_progress(shard, total, total);
    return result;
  }

  std::filesystem::create_directories(dir);
  result.shard = shard;
  std::size_t done = 0;
  for (std::size_t run = first; run < last; ++run) {
    const Scenario sc = manifest.scenario_for(run);
    CheckpointOptions ckpt;
    if (opts.ckpt_interval_s > 0.0) {
      ckpt.dir = dir;
      ckpt.interval_s = opts.ckpt_interval_s;
      ckpt.keep_files = true;  // .done markers must survive until the
                               // shard result is durable
      if (opts.on_progress) {
        ckpt.on_progress = [&](double) {
          opts.on_progress(shard, done, total);
        };
      }
    }
    const MetricPoint p =
        run_scenario(sc, nullptr, ckpt, manifest.label_for(run));
    const std::size_t point = manifest.run_ref(run).point;
    if (result.partials.empty() || result.partials.back().first != point) {
      result.partials.emplace_back(point, ReplicatedMetrics{});
    }
    result.partials.back().second.add(p);
    ++done;
    if (opts.on_progress) opts.on_progress(shard, done, total);
  }

  write_shard_result(dir, result);
  if (!opts.keep_run_files) remove_run_files(manifest, dir, shard);
  return result;
}

int run_worker_loop(std::istream& in, std::ostream& out,
                    const SweepManifest& manifest, const std::string& dir,
                    const WorkerOptions& opts) {
  out << encode(WireMessage::hello(static_cast<std::uint64_t>(::getpid())))
      << '\n'
      << std::flush;
  std::string line;
  try {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const WireMessage msg = decode(line);
      if (msg.kind == MsgKind::kShutdown) return 0;
      DTN_REQUIRE(msg.kind == MsgKind::kLease,
                  "worker: unexpected message " + line);
      WorkerOptions shard_opts = opts;
      shard_opts.on_progress = [&](std::size_t shard, std::size_t done,
                                   std::size_t total) {
        out << encode(WireMessage::heartbeat(shard, done, total)) << '\n'
            << std::flush;
        if (opts.on_progress) opts.on_progress(shard, done, total);
      };
      run_shard(manifest, dir, msg.shard, shard_opts);
      out << encode(WireMessage::done(msg.shard)) << '\n' << std::flush;
    }
    return 0;  // coordinator closed our stdin: clean exit
  } catch (const std::exception& e) {
    std::string what = e.what();
    std::replace(what.begin(), what.end(), '\n', ' ');
    out << encode(WireMessage::error(what)) << '\n' << std::flush;
    return 1;
  }
}

std::vector<ReplicatedMetrics> run_sweep_inprocess(
    const SweepManifest& manifest, const std::string& dir,
    const InProcessOptions& opts) {
  manifest.validate();
  DTN_REQUIRE(!dir.empty(), "run_sweep_inprocess: empty sweep directory");
  DTN_REQUIRE(opts.lanes > 0, "run_sweep_inprocess: need at least one lane");
  std::filesystem::create_directories(dir);

  WorkerOptions wopts;
  wopts.ckpt_interval_s = opts.ckpt_interval_s;
  wopts.keep_run_files = opts.keep_files;

  const std::size_t shards = manifest.shard_count();
  auto run_one = [&](std::size_t s) { run_shard(manifest, dir, s, wopts); };
  if (opts.lanes > 1 && shards > 1) {
    ThreadPool pool(opts.lanes);
    // Grain 1: each shard is a batch of whole simulations.
    parallel_for_index(pool, shards, /*grain=*/1, run_one);
  } else {
    for (std::size_t s = 0; s < shards; ++s) run_one(s);
  }

  std::vector<ReplicatedMetrics> aggregates = merge_shards(manifest, dir);
  write_results_file(results_path(dir), manifest, aggregates);
  if (!opts.keep_files) remove_shard_files(dir, shards);
  return aggregates;
}

}  // namespace dtn::orch
