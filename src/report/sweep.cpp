#include "src/report/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <sstream>

#include "src/report/observers.hpp"
#include "src/snapshot/checkpoint.hpp"
#include "src/util/error.hpp"

namespace dtn {

MetricPoint run_scenario(const Scenario& sc) {
  return run_scenario(sc, nullptr);
}

MetricPoint run_scenario(const Scenario& sc, SimStats* stats_out) {
  auto world = build_world(sc);
  DeliveredMessagesReport delivered;
  world->add_observer(&delivered);
  world->run();
  const SimStats& s = world->stats();
  if (stats_out != nullptr) *stats_out = s;
  MetricPoint p;
  p.delivery_ratio = s.delivery_ratio();
  p.avg_hopcount = s.avg_hopcount();
  p.overhead_ratio = s.overhead_ratio();
  p.avg_latency = s.avg_latency();
  if (!delivered.rows().empty()) {
    p.median_latency = delivered.latency_quantile(0.5);
    p.p95_latency = delivered.latency_quantile(0.95);
  }
  return p;
}

std::string run_file_stem(const std::string& dir, const Scenario& sc,
                          const std::string& label) {
  std::ostringstream os;
  os << dir << '/' << label << sc.name << "_seed" << sc.seed;
  return os.str();
}

namespace {

/// File-name stem for one run: dir/<label><name>_seed<seed>.
std::string run_stem(const CheckpointOptions& ckpt, const Scenario& sc,
                     const std::string& label) {
  return run_file_stem(ckpt.dir, sc, label);
}

/// The .done marker is itself a framed archive: the final MetricPoint and
/// SimStats, so a skipped replica still reports full results.
void write_done_marker(const std::string& path, const MetricPoint& p,
                       const SimStats& stats) {
  snapshot::ArchiveWriter w;
  w.begin_section("result");
  w.f64(p.delivery_ratio);
  w.f64(p.avg_hopcount);
  w.f64(p.overhead_ratio);
  w.f64(p.avg_latency);
  w.f64(p.median_latency);
  w.f64(p.p95_latency);
  stats.save_state(w);
  w.end_section();
  snapshot::write_archive_file(path, w);
}

MetricPoint read_done_marker(const std::string& path, SimStats* stats_out) {
  snapshot::ArchiveReader r = snapshot::read_archive_file(path);
  r.begin_section("result");
  MetricPoint p;
  p.delivery_ratio = r.f64();
  p.avg_hopcount = r.f64();
  p.overhead_ratio = r.f64();
  p.avg_latency = r.f64();
  p.median_latency = r.f64();
  p.p95_latency = r.f64();
  SimStats stats;
  stats.load_state(r);
  r.end_section();
  if (stats_out != nullptr) *stats_out = stats;
  return p;
}

}  // namespace

namespace {

void save_merge_stats(snapshot::ArchiveWriter& out, const MergeStats& s) {
  const MergeStats::State st = s.export_state();
  out.u64(st.n);
  out.i64(st.min_q);
  out.i64(st.max_q);
  out.u64(st.sum_lo);
  out.i64(st.sum_hi);
  out.u64(st.sumsq_lo);
  out.i64(st.sumsq_hi);
}

void load_merge_stats(snapshot::ArchiveReader& in, MergeStats& s) {
  MergeStats::State st;
  st.n = in.u64();
  st.min_q = in.i64();
  st.max_q = in.i64();
  st.sum_lo = in.u64();
  st.sum_hi = in.i64();
  st.sumsq_lo = in.u64();
  st.sumsq_hi = in.i64();
  s.import_state(st);
}

}  // namespace

void save_aggregate(snapshot::ArchiveWriter& out, const ReplicatedMetrics& m) {
  out.begin_section("aggregate");
  save_merge_stats(out, m.delivery_ratio);
  save_merge_stats(out, m.avg_hopcount);
  save_merge_stats(out, m.overhead_ratio);
  save_merge_stats(out, m.avg_latency);
  save_merge_stats(out, m.median_latency);
  save_merge_stats(out, m.p95_latency);
  // Histogram travels sparsely: layout header + (bin, count) pairs in
  // ascending bin order — canonical bytes for canonical state.
  const Histogram& h = m.latency_hist;
  out.f64(h.lo());
  out.f64(h.hi());
  out.u64(h.bins());
  out.u64(h.underflow());
  out.u64(h.overflow());
  std::uint64_t nonzero = 0;
  for (std::size_t i = 0; i < h.bins(); ++i)
    if (h.count(i) != 0) ++nonzero;
  out.u64(nonzero);
  for (std::size_t i = 0; i < h.bins(); ++i) {
    if (h.count(i) == 0) continue;
    out.u64(i);
    out.u64(h.count(i));
  }
  out.end_section();
}

void load_aggregate(snapshot::ArchiveReader& in, ReplicatedMetrics& m) {
  in.begin_section("aggregate");
  load_merge_stats(in, m.delivery_ratio);
  load_merge_stats(in, m.avg_hopcount);
  load_merge_stats(in, m.overhead_ratio);
  load_merge_stats(in, m.avg_latency);
  load_merge_stats(in, m.median_latency);
  load_merge_stats(in, m.p95_latency);
  // Every aggregate bins latencies alike, so a stream with another layout
  // is corrupt, and its bin count never sizes an allocation.
  const double lo = in.f64();
  const double hi = in.f64();
  const std::uint64_t bins = in.u64();
  DTN_REQUIRE(lo == kLatencyHistLo && hi == kLatencyHistHi &&
                  bins == kLatencyHistBins,
              "aggregate: latency histogram layout does not match");
  Histogram h(lo, hi, kLatencyHistBins);
  h.add_underflow(static_cast<std::size_t>(in.u64()));
  h.add_overflow(static_cast<std::size_t>(in.u64()));
  const std::uint64_t nonzero = in.u64();
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    const auto bin = static_cast<std::size_t>(in.u64());
    h.add_count(bin, static_cast<std::size_t>(in.u64()));
  }
  m.latency_hist = h;
  in.end_section();
}

bool checkpoint_due(std::optional<double> last_save_cost_s,
                    double since_last_save_s) {
  return !last_save_cost_s ||
         since_last_save_s >= kCheckpointCostRatio * *last_save_cost_s;
}

MetricPoint run_scenario(const Scenario& sc, SimStats* stats_out,
                         const CheckpointOptions& ckpt,
                         const std::string& label) {
  if (!ckpt.enabled()) return run_scenario(sc, stats_out);

  std::filesystem::create_directories(ckpt.dir);
  const std::string stem = run_stem(ckpt, sc, label);
  const std::string ckpt_path = stem + ".ckpt";
  const std::string done_path = stem + ".done";

  if (std::filesystem::exists(done_path)) {
    // Checkpoint hygiene: a worker that died between writing the marker
    // and removing its checkpoint leaves a stale .ckpt behind; drop it on
    // resume so a completed run never keeps both files.
    std::remove(ckpt_path.c_str());
    return read_done_marker(done_path, stats_out);
  }

  DeliveredMessagesReport delivered;
  std::unique_ptr<World> world;
  if (std::filesystem::is_regular_file(ckpt_path)) {
    auto restored = snapshot::restore_checkpoint(
        ckpt_path,
        [&delivered](snapshot::ArchiveReader& in) { delivered.load_state(in); });
    world = std::move(restored.world);
  } else {
    world = build_world(sc);
  }
  world->add_observer(&delivered);

  const double duration = sc.world.duration;
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  // The cadence's state: the last save's cost and when it ended.
  std::optional<double> last_save_cost_s;
  Clock::time_point last_save_end;
  // One writer for every save of this run: its buffer keeps the largest
  // save's capacity instead of being regrown from empty each time.
  snapshot::ArchiveWriter w;
  // The save in flight: a helper thread hashes and writes `w` while the
  // world runs on. Declared after `w` so that on unwind its destructor
  // waits for the write before `w` is destroyed.
  std::future<void> writing;
  // Waits for the save in flight and rethrows its failure.
  const auto finish_write = [&writing] {
    if (writing.valid()) writing.get();
  };
  while (world->now() + sc.world.step <= duration + 1e-9) {
    const double target =
        std::min(duration, world->now() + ckpt.interval_s);
    world->run_until(target);
    if (world->now() + sc.world.step <= duration + 1e-9) {
      const Clock::time_point start = Clock::now();
      if (!checkpoint_due(last_save_cost_s, seconds(start - last_save_end))) {
        continue;
      }
      finish_write();
      w.clear();
      snapshot::save_world(w, sc, *world,
                           [&delivered](snapshot::ArchiveWriter& out) {
                             delivered.save_state(out);
                           });
      writing = std::async(std::launch::async, [&w, &ckpt_path] {
        snapshot::write_archive_file(ckpt_path, w);
      });
      last_save_end = Clock::now();
      last_save_cost_s = seconds(last_save_end - start);
      if (ckpt.on_progress) ckpt.on_progress(world->now());
    }
  }
  finish_write();

  const SimStats& s = world->stats();
  if (stats_out != nullptr) *stats_out = s;
  MetricPoint p;
  p.delivery_ratio = s.delivery_ratio();
  p.avg_hopcount = s.avg_hopcount();
  p.overhead_ratio = s.overhead_ratio();
  p.avg_latency = s.avg_latency();
  if (!delivered.rows().empty()) {
    p.median_latency = delivered.latency_quantile(0.5);
    p.p95_latency = delivered.latency_quantile(0.95);
  }

  write_done_marker(done_path, p, s);
  std::remove(ckpt_path.c_str());
  if (!ckpt.keep_files) std::remove(done_path.c_str());
  return p;
}

ReplicatedMetrics run_replicated(const Scenario& base, std::size_t replicas,
                                 ThreadPool* pool,
                                 const CheckpointOptions& ckpt) {
  // With checkpointing, .done markers must outlive the replica that wrote
  // them so a restarted set can skip finished work; clean up at the end.
  CheckpointOptions per_run = ckpt;
  per_run.keep_files = true;
  std::vector<MetricPoint> points(replicas);
  auto run_one = [&base, &points, &per_run](std::size_t r) {
    Scenario sc = base;
    sc.seed = base.seed + r;
    points[r] = run_scenario(sc, nullptr, per_run);
  };
  if (pool != nullptr && replicas > 1) {
    // Grain 1: each replica is a whole simulation, so chunking would only
    // serialize work; the overload still short-circuits 1-worker pools.
    parallel_for_index(*pool, replicas, /*grain=*/1, run_one);
  } else {
    for (std::size_t r = 0; r < replicas; ++r) run_one(r);
  }
  if (ckpt.enabled() && !ckpt.keep_files) {
    for (std::size_t r = 0; r < replicas; ++r) {
      Scenario sc = base;
      sc.seed = base.seed + r;
      std::remove((run_stem(ckpt, sc, "") + ".done").c_str());
    }
  }
  ReplicatedMetrics agg;
  for (const MetricPoint& p : points) agg.add(p);
  return agg;
}

std::vector<ReplicatedMetrics> run_sweep(const std::vector<SweepPoint>& points,
                                         std::size_t replicas,
                                         ThreadPool* pool,
                                         const CheckpointOptions& ckpt) {
  CheckpointOptions per_run = ckpt;
  per_run.keep_files = true;
  auto point_label = [](std::size_t pi) {
    std::ostringstream os;
    os << 'p' << pi << '_';
    return os.str();
  };
  std::vector<ReplicatedMetrics> out(points.size());
  std::vector<std::vector<MetricPoint>> raw(points.size());
  for (auto& v : raw) v.resize(replicas);
  auto run_task = [&](std::size_t task) {
    const std::size_t pi = task / replicas;
    const std::size_t r = task % replicas;
    Scenario sc = points[pi].scenario;
    sc.seed = sc.seed + r;
    raw[pi][r] = run_scenario(sc, nullptr, per_run, point_label(pi));
  };
  if (pool != nullptr) {
    // Flatten point × replica into independent tasks (grain 1: each task
    // is a whole simulation).
    parallel_for_index(*pool, points.size() * replicas, /*grain=*/1,
                       run_task);
  } else {
    for (std::size_t t = 0; t < points.size() * replicas; ++t) run_task(t);
  }
  if (ckpt.enabled() && !ckpt.keep_files) {
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
      for (std::size_t r = 0; r < replicas; ++r) {
        Scenario sc = points[pi].scenario;
        sc.seed = sc.seed + r;
        std::remove((run_stem(ckpt, sc, point_label(pi)) + ".done").c_str());
      }
    }
  }
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    for (const MetricPoint& p : raw[pi]) out[pi].add(p);
  }
  return out;
}

}  // namespace dtn
