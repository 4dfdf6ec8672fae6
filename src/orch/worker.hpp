// Worker side of the orchestrator: executes shards (resuming from
// existing .ckpt/.done files), persists shard results, and speaks the
// wire protocol over stdin/stdout when run as a subprocess. run_shard and
// run_sweep_inprocess are plain library calls, so the whole subsystem is
// exercisable without fork/exec (examples/sweep_service, tests).
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/orch/manifest.hpp"
#include "src/orch/shard_store.hpp"

namespace dtn::orch {

struct WorkerOptions {
  /// Minimum simulated seconds between run checkpoints (the save cadence
  /// is CheckpointOptions'); <= 0 disables mid-run checkpointing (runs
  /// then restart from scratch after a crash, but finished runs still
  /// resume via their .done markers).
  double ckpt_interval_s = 600.0;
  /// Keep per-run .ckpt/.done files after the shard result is durable.
  bool keep_run_files = false;
  /// Progress hook: called after every finished run and after every
  /// mid-run checkpoint (runs_done repeats in the latter case). Worker
  /// processes heartbeat from here.
  std::function<void(std::size_t shard, std::size_t runs_done,
                     std::size_t runs_total)>
      on_progress;
};

/// Executes one shard: every run in canonical order, accumulated into
/// per-point partial aggregates, persisted atomically as the shard's
/// result file. Idempotent — an existing result file short-circuits (the
/// re-leased-after-crash path), and partially finished runs resume from
/// their checkpoint files. Run files are cleaned up per options.
ShardResult run_shard(const SweepManifest& manifest, const std::string& dir,
                      std::size_t shard, const WorkerOptions& opts);

/// Wire-protocol worker loop: HELLO, then LEASE -> run_shard -> DONE
/// until SHUTDOWN or EOF. Returns a process exit code (0 on clean
/// shutdown; 1 after reporting ERROR). `in`/`out` are injected for tests.
int run_worker_loop(std::istream& in, std::ostream& out,
                    const SweepManifest& manifest, const std::string& dir,
                    const WorkerOptions& opts);

struct InProcessOptions {
  std::size_t lanes = 1;  ///< concurrent shard executors (thread pool)
  double ckpt_interval_s = 0.0;
  bool keep_files = false;  ///< keep shard + run files afterwards
};

/// Runs a whole sweep through the orchestrator machinery in-process (no
/// subprocesses): shards execute on `lanes` threads, results flow through
/// the same shard files and canonical merge as the daemon, and the merged
/// results file is written to `dir`. Byte-identical to any daemon run of
/// the same manifest.
std::vector<ReplicatedMetrics> run_sweep_inprocess(
    const SweepManifest& manifest, const std::string& dir,
    const InProcessOptions& opts);

}  // namespace dtn::orch
