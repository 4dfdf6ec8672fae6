// dtn_sweepd — fleet-scale sweep daemon (DESIGN.md §12).
//
// Subcommands:
//   gen-table2  write a Table II buffer-size sweep manifest
//   run         coordinate a sharded sweep across worker processes
//   worker      (internal) wire-protocol worker on stdin/stdout
//   print       render a results.bin as a metrics table
//
// Quickstart:
//   dtn_sweepd gen-table2 --out manifest.txt --replicas 4
//   dtn_sweepd run --manifest manifest.txt --dir sweep --workers 4
//       [--status-port 8080]
//   dtn_sweepd print --manifest manifest.txt --results sweep/results.bin
//
// The merged sweep/results.bin is byte-identical for any --workers value,
// any scheduling interleaving, and any number of worker crashes — `cmp`
// between runs is the supported equivalence check (CI does exactly that
// while SIGKILLing a worker mid-sweep).
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/orch/coordinator.hpp"
#include "src/orch/manifest.hpp"
#include "src/orch/shard_store.hpp"
#include "src/orch/worker.hpp"
#include "src/report/sweep.hpp"
#include "src/util/error.hpp"
#include "src/util/settings.hpp"
#include "src/util/table.hpp"
#include "src/util/units.hpp"

namespace {

using dtn::orch::CoordinatorOptions;
using dtn::orch::SweepManifest;
using dtn::orch::WorkerOptions;

/// `--key value` pairs plus bare `--flag` switches after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      DTN_REQUIRE(key.rfind("--", 0) == 0, "expected --option, got " + key);
      key.erase(0, 2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string get(const std::string& key, const std::string& dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  std::string require(const std::string& key) const {
    DTN_REQUIRE(has(key), "missing required --" + key);
    return values_.at(key);
  }
  double get_double(const std::string& key, double dflt) const {
    return has(key) ? std::strtod(values_.at(key).c_str(), nullptr) : dflt;
  }
  std::size_t get_size(const std::string& key, std::size_t dflt) const {
    return has(key) ? static_cast<std::size_t>(
                          std::strtoull(values_.at(key).c_str(), nullptr, 10))
                    : dflt;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::string self_exe() {
  char buf[4096];
  const ::ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  DTN_REQUIRE(n > 0, "cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

int cmd_gen_table2(const Args& args) {
  const std::string out = args.require("out");
  SweepManifest m;
  m.name = args.get("name", "table2-buffer");
  m.replicas = args.get_size("replicas", 4);
  m.shard_size = args.get_size("shard-size", 4);
  const std::vector<double> buffers_mb = dtn::Settings::parse(
      "v = " + args.get("buffers", "2,2.5,3,3.5,4,4.5,5"))
                                             .get_double_list("v");
  for (double mb : buffers_mb) {
    dtn::SweepPoint p;
    p.x = mb;
    p.scenario = dtn::Scenario::random_waypoint_paper();
    p.scenario.policy = args.get("policy", "sdsrp");
    p.scenario.buffer_capacity = dtn::units::megabytes(mb);
    if (args.has("nodes")) p.scenario.n_nodes = args.get_size("nodes", 0);
    if (args.has("duration"))
      p.scenario.world.duration = args.get_double("duration", 0.0);
    m.points.push_back(std::move(p));
  }
  m.save(out);
  std::cout << "wrote " << out << ": " << m.points.size() << " points x "
            << m.replicas << " replicas = " << m.total_runs() << " runs in "
            << m.shard_count() << " shards\n";
  return 0;
}

/// A histogram quantile as a table cell: saturated estimates (the rank
/// fell into overflow, so the value is only a lower bound at the
/// histogram ceiling) print as ">=<value>" instead of masquerading as a
/// measurement.
dtn::Cell quantile_cell(const dtn::Histogram& h, double q) {
  const auto est = h.quantile_checked(q);
  if (!est.saturated) return est.value;
  std::ostringstream os;
  os << ">=" << est.value;
  return os.str();
}

void print_results(const SweepManifest& m,
                   const std::vector<dtn::ReplicatedMetrics>& aggs) {
  dtn::Table t({"x", "delivery", "±ci95", "hops", "overhead", "latency",
                "lat p50", "lat p95", "lat ovf", "runs"});
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const auto& a = aggs[i];
    t.add_row({m.points[i].x, a.delivery_ratio.mean(),
               a.delivery_ratio.ci95_half_width(), a.avg_hopcount.mean(),
               a.overhead_ratio.mean(), a.avg_latency.mean(),
               quantile_cell(a.latency_hist, 0.5),
               quantile_cell(a.latency_hist, 0.95),
               a.latency_overflow_fraction(),
               static_cast<std::int64_t>(a.delivery_ratio.count())});
  }
  t.set_precision(4);
  t.print(std::cout);
}

int cmd_run(const Args& args) {
  const SweepManifest m = SweepManifest::load(args.require("manifest"));
  const std::string dir = args.require("dir");

  CoordinatorOptions opts;
  opts.workers = args.get_size("workers", 2);
  opts.lease_ttl_s = args.get_double("lease-ttl-s", 60.0);
  opts.progress_interval_s = args.get_double("progress-interval-s", 1.0);
  opts.keep_files = args.has("keep-files");
  opts.status_port =
      args.has("status-port")
          ? static_cast<int>(args.get_size("status-port", 0))
          : -1;
  opts.max_wall_s = args.get_double("max-wall-s", 0.0);
  opts.chaos_kill_after_shards = args.get_size("chaos-kill-after", 0);
  opts.log = &std::cerr;

  opts.worker_argv = {self_exe(),
                      "worker",
                      "--manifest",
                      dtn::orch::manifest_path(dir),
                      "--dir",
                      dir,
                      "--ckpt-interval-s",
                      args.get("ckpt-interval-s", "600")};
  if (opts.keep_files) opts.worker_argv.push_back("--keep-files");

  const auto outcome = dtn::orch::run_coordinator(m, dir, opts);
  std::cout << "sweep \"" << m.name << "\": " << outcome.shards_total
            << " shards (" << outcome.shards_resumed << " resumed, "
            << outcome.shards_reassigned << " reassigned, "
            << outcome.workers_lost << " worker(s) lost)\n"
            << "results: " << dtn::orch::results_path(dir) << "\n";
  print_results(m, outcome.aggregates);
  return 0;
}

int cmd_worker(const Args& args) {
  const SweepManifest m = SweepManifest::load(args.require("manifest"));
  WorkerOptions opts;
  opts.ckpt_interval_s = args.get_double("ckpt-interval-s", 600.0);
  opts.keep_run_files = args.has("keep-files");
  return dtn::orch::run_worker_loop(std::cin, std::cout, m,
                                    args.require("dir"), opts);
}

int cmd_print(const Args& args) {
  const SweepManifest m = SweepManifest::load(args.require("manifest"));
  const auto aggs = dtn::orch::read_results_file(args.require("results"));
  DTN_REQUIRE(aggs.size() == m.points.size(),
              "results/manifest point count mismatch");
  print_results(m, aggs);
  return 0;
}

int usage() {
  std::cerr
      << "usage: dtn_sweepd <command> [options]\n"
      << "  gen-table2 --out F [--replicas R] [--buffers MBs] [--nodes N]\n"
      << "             [--duration S] [--policy P] [--shard-size K]\n"
      << "  run        --manifest F --dir D [--workers W] [--status-port P]\n"
      << "             [--ckpt-interval-s S] [--lease-ttl-s S] [--keep-files]\n"
      << "             [--max-wall-s S] [--chaos-kill-after K]\n"
      << "  worker     --manifest F --dir D [--ckpt-interval-s S]\n"
      << "  print      --manifest F --results F\n"
      << "--ckpt-interval-s S is the minimum simulated time between a run's\n"
      << "checkpoints (default 600, 0 = none); a run saves again only after\n"
      << "simulating " << dtn::kCheckpointCostRatio
      << "x its last save's cost in wall time.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "gen-table2") return cmd_gen_table2(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "worker") return cmd_worker(args);
    if (cmd == "print") return cmd_print(args);
  } catch (const std::exception& e) {
    std::cerr << "dtn_sweepd: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
