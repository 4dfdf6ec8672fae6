// Sweep runner: executes scenarios (optionally replicated over seeds and
// fanned out over a thread pool) and aggregates the paper's three metrics.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/core/sim_stats.hpp"
#include "src/util/histogram.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

namespace dtn {

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

/// The paper's three headline metrics plus delay, from one finished run.
struct MetricPoint {
  double delivery_ratio = 0.0;
  double avg_hopcount = 0.0;
  double overhead_ratio = 0.0;
  double avg_latency = 0.0;
  double median_latency = 0.0;  ///< p50 creation->delivery delay (s)
  double p95_latency = 0.0;     ///< p95 creation->delivery delay (s)
};

/// Periodic checkpointing for long runs. When enabled, every run keeps a
/// `<dir>/<name>_seed<seed>.ckpt` file (atomically replaced) and leaves a
/// `.done` marker holding the final metrics on completion. A run stops at
/// every `interval_s` boundary of simulated time but saves only where
/// checkpoint_due says so: at the first boundary, and later at the first
/// boundary reached once kCheckpointCostRatio times the last save's cost
/// has passed in wall time. Which boundaries save depends on timing; the
/// bytes of each save and the run's results do not. A rerun with the same
/// options resumes each replica from its checkpoint — or skips it entirely
/// when the marker exists — and produces results identical to an
/// uninterrupted (cold) run. Each save is hashed and written on a helper
/// thread while the run goes on, so the file on disk may lag the newest
/// save by one; a failed write throws from run_scenario at the next save
/// or at the end of the run.
struct CheckpointOptions {
  std::string dir;         ///< empty = checkpointing disabled
  /// Minimum simulated seconds between saves; <=0 disables.
  double interval_s = 0.0;
  bool keep_files = false; ///< keep .ckpt/.done after a completed run
  /// Optional liveness hook, called after every checkpoint save taken
  /// (its file may still be being written) with the current simulated
  /// time. Orchestrator workers heartbeat from here so a lease stays fresh
  /// through a single long run. Never called for runs skipped via an
  /// existing .done marker.
  std::function<void(double sim_now)> on_progress;

  bool enabled() const { return !dir.empty() && interval_s > 0.0; }
};

/// K of the checkpoint cadence: after a save that cost c seconds on the
/// simulation thread, a run saves again only once K·c of wall time has
/// passed, so saving takes at most about 1/(K+1) of its wall time.
inline constexpr int kCheckpointCostRatio = 20;

/// Whether a checkpointed run saves at the `interval_s` boundary it has
/// reached. `last_save_cost_s` is the run's previous save's cost on the
/// simulation thread (empty before its first save, so the first boundary
/// always saves) and `since_last_save_s` the wall time since that save
/// ended.
bool checkpoint_due(std::optional<double> last_save_cost_s,
                    double since_last_save_s);

/// File-name stem `<dir>/<label><name>_seed<seed>` of one checkpointed
/// run (the .ckpt/.done paths append their extension). Exposed so the
/// sweep orchestrator can resume and clean up run files it did not write.
std::string run_file_stem(const std::string& dir, const Scenario& sc,
                          const std::string& label);

/// Builds, runs and summarizes one scenario.
MetricPoint run_scenario(const Scenario& sc);

/// Same, also returning the full counter set.
MetricPoint run_scenario(const Scenario& sc, SimStats* stats_out);

/// Same, with periodic checkpointing / resume-from-checkpoint. The
/// `label` distinguishes runs of identically named scenarios (sweep
/// points); pass "" outside sweeps.
MetricPoint run_scenario(const Scenario& sc, SimStats* stats_out,
                         const CheckpointOptions& ckpt,
                         const std::string& label = "");

/// Fixed, scenario-independent binning for the cross-run latency
/// histogram: [0, 12 h) at 10 s resolution. Every aggregate uses the same
/// layout so shard partials merge exactly.
inline constexpr double kLatencyHistLo = 0.0;
inline constexpr double kLatencyHistHi = 43200.0;
inline constexpr std::size_t kLatencyHistBins = 4320;

/// Aggregate over replicas (seeds base.seed, base.seed+1, ...).
///
/// Backed by exactly-mergeable accumulators (MergeStats running moments +
/// a fixed-bin latency histogram), so shard-local partials combined in
/// canonical shard order are bit-identical to sequential accumulation —
/// the sweep orchestrator's determinism guarantee (DESIGN.md §12) rests
/// on this struct, not on run scheduling.
struct ReplicatedMetrics {
  MergeStats delivery_ratio;
  MergeStats avg_hopcount;
  MergeStats overhead_ratio;
  MergeStats avg_latency;
  MergeStats median_latency;
  MergeStats p95_latency;
  /// Distribution of per-run average latencies (s) for mergeable
  /// cross-run quantiles: latency_hist.quantile(0.5) etc.
  Histogram latency_hist{kLatencyHistLo, kLatencyHistHi, kLatencyHistBins};

  void add(const MetricPoint& p) {
    delivery_ratio.add(p.delivery_ratio);
    avg_hopcount.add(p.avg_hopcount);
    overhead_ratio.add(p.overhead_ratio);
    avg_latency.add(p.avg_latency);
    median_latency.add(p.median_latency);
    p95_latency.add(p.p95_latency);
    latency_hist.add(p.avg_latency);
  }

  /// Exact shard-combine: field-wise integer merges, order-insensitive.
  void merge(const ReplicatedMetrics& other) {
    delivery_ratio.merge(other.delivery_ratio);
    avg_hopcount.merge(other.avg_hopcount);
    overhead_ratio.merge(other.overhead_ratio);
    avg_latency.merge(other.avg_latency);
    median_latency.merge(other.median_latency);
    p95_latency.merge(other.p95_latency);
    latency_hist.merge(other.latency_hist);
  }

  /// Fraction of per-run latencies that fell at/above the fixed histogram
  /// ceiling (kLatencyHistHi). When this is non-zero, latency_hist
  /// quantiles that land in the overflow mass saturate at the ceiling —
  /// use latency_hist.quantile_checked() and surface the saturation
  /// instead of printing the ceiling as if it were an estimate.
  double latency_overflow_fraction() const {
    return latency_hist.overflow_fraction();
  }

  MetricPoint mean() const {
    return {delivery_ratio.mean(),  avg_hopcount.mean(),
            overhead_ratio.mean(),  avg_latency.mean(),
            median_latency.mean(),  p95_latency.mean()};
  }

  friend bool operator==(const ReplicatedMetrics&,
                         const ReplicatedMetrics&) = default;
};

/// Canonical archive round-trip for aggregates (shard result files, the
/// orchestrator's merged results file). The encoding is a pure function
/// of accumulator state, so equal aggregates serialize to equal bytes.
void save_aggregate(snapshot::ArchiveWriter& out, const ReplicatedMetrics& m);
void load_aggregate(snapshot::ArchiveReader& in, ReplicatedMetrics& m);

/// Runs `replicas` independent replications of `base` (only the seed
/// differs). When `pool` is non-null the replicas run concurrently;
/// results are identical either way. With checkpointing enabled, a
/// partially completed replica set resumes where it stopped.
ReplicatedMetrics run_replicated(const Scenario& base, std::size_t replicas,
                                 ThreadPool* pool = nullptr,
                                 const CheckpointOptions& ckpt = {});

/// One sweep point: a label (the x value) and its base scenario.
struct SweepPoint {
  double x = 0.0;
  Scenario scenario;
};

/// Runs every point (each replicated `replicas` times) and returns the
/// aggregated metrics in point order. Points × replicas fan out over the
/// pool when provided.
std::vector<ReplicatedMetrics> run_sweep(const std::vector<SweepPoint>& points,
                                         std::size_t replicas,
                                         ThreadPool* pool = nullptr,
                                         const CheckpointOptions& ckpt = {});

}  // namespace dtn
