// Benchmark driver: runs one workload of the repository benchmark and
// prints the raw samples as one JSON object on the last stdout line.
// run.py builds this binary, checks the samples against the pins in
// pins.json and reduces them to the metrics named in BENCHMARK.json.
//
//   perfbench_driver --workload W --scenario-seed S --sweepd PATH
//       --workdir DIR [--trace] [--smoke] [--describe] [--spans FILE]
//
//   (default)   one repetition of the workload, untraced
//   --trace     per-layer run: profiled, replayed and span-traced
//   --smoke     short horizons (the benchmark's own smoke test)
//   --describe  print only the workload fingerprint (FNV-1a of the
//               scenario Settings text, or of the manifest text)
//
// run.py repeats untraced repetitions in fresh processes: speed varies
// more between processes than between repetitions inside one, so
// pooling many processes steadies the medians.
//
// Everything is timed from here, around calls into the library's public
// API; the library itself carries no benchmark instrumentation.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/geo/spatial_grid.hpp"
#include "src/orch/manifest.hpp"
#include "src/report/sweep.hpp"
#include "src/snapshot/archive.hpp"
#include "src/snapshot/checkpoint.hpp"
#include "src/util/subprocess.hpp"
#include "src/util/units.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(const std::string& bytes) {
  dtn::snapshot::Fnv1a h;
  h.update(bytes.data(), bytes.size());
  return h.digest();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- JSON output --------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// Insertion-ordered JSON object of pre-rendered values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, value);
    return *this;
  }
  JsonObject& number(const std::string& key, double v) {
    return raw(key, num(v));
  }
  JsonObject& text(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += quoted(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

// --- spans (traced run only) -------------------------------------------

/// In-memory span recorder: name, start, end and parent of each span,
/// written out once when the run ends. Disabled (every call a no-op)
/// unless the run is traced.
class Tracer {
 public:
  void enable() {
    on_ = true;
    origin_ = Clock::now();
  }
  int open(const char* name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": " << quoted(r.name)
          << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
          << ", \"parent\": " << r.parent << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  bool on_ = false;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

Tracer& tracer() {
  static Tracer t;
  return t;
}

/// RAII span around one call into a library layer.
class Span {
 public:
  explicit Span(const char* name) : id_(tracer().open(name)) {}
  ~Span() { tracer().close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// --- options and workloads ----------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t scenario_seed = 1;
  std::string sweepd;
  std::string workdir;
  std::string spans;
  bool trace = false;
  bool smoke = false;
  bool describe = false;
};

constexpr std::size_t kDensityNodes = 100'000;
constexpr double kDensityWindowS = 300.0;
constexpr std::size_t kSweepWorkers = 2;

/// Table III: 200 taxis, SDSRP, serial, full 18,000 s horizon.
dtn::Scenario taxi_scenario(const Options& o) {
  dtn::Scenario sc = dtn::Scenario::taxi_paper();
  sc.policy = "sdsrp";
  sc.world.threads = 0;
  sc.seed = o.scenario_seed;
  if (o.smoke) sc.world.duration = 600.0;
  return sc;
}

/// Table II at 100k nodes and the paper's node density: the area grows by
/// sqrt(N / 100) per side. One timed window after the first step.
dtn::Scenario density_scenario(const Options& o) {
  dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
  const double scale = std::sqrt(static_cast<double>(kDensityNodes) /
                                 static_cast<double>(sc.n_nodes));
  sc.rwp.area = dtn::Rect::sized(sc.rwp.area.width() * scale,
                                 sc.rwp.area.height() * scale);
  sc.n_nodes = kDensityNodes;
  sc.policy = "sdsrp";
  sc.world.threads = 2;
  sc.seed = o.scenario_seed;
  sc.world.duration = sc.world.step + (o.smoke ? 20.0 : kDensityWindowS);
  return sc;
}

/// Table II buffer-size sweep: seven sizes 2..5 MB for FIFO and SDSRP,
/// one replica each, one run per shard.
dtn::orch::SweepManifest sweep_manifest(const Options& o) {
  dtn::orch::SweepManifest m;
  m.name = "table2-sweep";
  m.replicas = 1;
  m.shard_size = 1;
  for (const char* policy : {"fifo", "sdsrp"}) {
    for (int i = 0; i < 7; ++i) {
      const double mb = 2.0 + 0.5 * i;
      dtn::SweepPoint p;
      p.x = mb;
      p.scenario = dtn::Scenario::random_waypoint_paper();
      p.scenario.policy = policy;
      p.scenario.buffer_capacity = dtn::units::megabytes(mb);
      p.scenario.seed = o.scenario_seed;
      if (o.smoke) p.scenario.world.duration = 600.0;
      m.points.push_back(std::move(p));
    }
  }
  return m;
}

double peak_rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Consistency checks reported to run.py: `digest` entries are compared
/// with the workload's pin there; `ok` entries were decided here.
struct Checks {
  std::vector<std::string> items;
  void digest(const std::string& what, const std::string& hex) {
    items.push_back(JsonObject().text("what", what).text("digest", hex).dump());
  }
  void ok(const std::string& what, bool pass) {
    items.push_back(
        JsonObject().text("what", what).raw("ok", pass ? "true" : "false").dump());
  }
};

// --- in-process runs ----------------------------------------------------

/// One world run from build_world to the end of its horizon. `stops` are
/// simulated times at which the run pauses and `at_stop` inspects the
/// world; run_s times only the run_until calls.
struct WorldRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t steps = 0;
  std::uint64_t digest = 0;
  dtn::PhaseProfile profile;
  dtn::SimStats stats;
  std::size_t updates = 0;
  std::size_t full_passes = 0;
  double steps_per_s() const { return run_s > 0.0 ? steps / run_s : 0.0; }
};

WorldRun run_world(const dtn::Scenario& sc,
                   const std::vector<double>& stops = {},
                   const std::function<void(dtn::World&)>& at_stop = {}) {
  WorldRun r;
  const auto t0 = Clock::now();
  std::unique_ptr<dtn::World> world;
  {
    Span s("config.build_world");
    world = dtn::build_world(sc);
  }
  {
    Span s("core.step");
    world->step();  // lazy capacity + kinetic set-up happen here
  }
  r.setup_s = since(t0);
  const double start = world->now();
  auto advance = [&](double t) {
    Span s("core.run_until");
    const auto t1 = Clock::now();
    world->run_until(t);
    r.run_s += since(t1);
  };
  for (const double t : stops) {
    advance(t);
    if (at_stop) at_stop(*world);
  }
  advance(sc.world.duration);
  r.steps = static_cast<std::size_t>(
      std::llround((world->now() - start) / sc.world.step));
  r.digest = world->digest();
  r.profile = world->phase_profile();
  r.stats = world->stats();
  r.updates = world->contacts().update_count();
  r.full_passes = world->contacts().full_pass_count();
  return r;
}

// --- layer replays (traced run) -----------------------------------------

/// Times `fn` repeatedly (at least `min_reps` calls and ~20 ms of work)
/// and returns the median seconds per call.
double time_median(const std::function<void()>& fn, int min_reps) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || since(start) < 0.02) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(since(t0));
    if (samples.size() >= 2000) break;
  }
  return median(samples);
}

/// Replays the contact layer's spatial index on a position snapshot:
/// SpatialGrid::rebuild plus one full collect_pairs_within at the
/// tracker's reach (range + kinetic slack, which is its grid cell).
struct GeoReplay {
  double rebuild_s = 0.0;
  double collect_s = 0.0;
  std::size_t pairs = 0;
  std::size_t samples = 0;

  void sample(const dtn::World& w) {
    std::vector<dtn::Vec2> pos(w.node_count());
    for (std::size_t i = 0; i < pos.size(); ++i) {
      pos[i] = w.node(static_cast<dtn::NodeId>(i)).mobility().position();
    }
    const double reach = w.contacts().grid().cell();
    dtn::SpatialGrid grid(reach);
    grid.reserve_nodes(pos.size());
    {
      Span s("geo.rebuild");
      rebuild_s += time_median([&] { grid.rebuild(pos); }, 5);
    }
    std::vector<dtn::SpatialGrid::PairHit> hits;
    {
      Span s("geo.collect_pairs_within");
      collect_s += time_median(
          [&] {
            hits.clear();
            grid.collect_pairs_within(reach, 0, pos.size(), hits);
          },
          5);
    }
    pairs += hits.size();
    ++samples;
  }
};

/// Replays BufferPolicy::order_for_sending on every node holding two or
/// more messages, with that node's context at the paused instant, for
/// each policy. The priority memo is bypassed (cache_enabled = false) so
/// every call evaluates priorities and repeated calls time equal work.
struct OrderReplay {
  std::vector<std::string> names;
  std::vector<std::unique_ptr<dtn::BufferPolicy>> policies;
  std::vector<double> seconds;
  std::vector<std::size_t> calls;

  explicit OrderReplay(const dtn::Scenario& sc) {
    for (const char* name : {"fifo", "sdsrp"}) {
      dtn::Scenario p = sc;
      p.policy = name;
      names.push_back(name);
      policies.push_back(dtn::make_policy(p, sc.seed));
    }
    seconds.assign(names.size(), 0.0);
    calls.assign(names.size(), 0);
  }

  void sample(const dtn::World& w) {
    std::vector<std::vector<const dtn::Message*>> lists;
    std::vector<dtn::PolicyContext> ctxs;
    for (std::size_t i = 0; i < w.node_count(); ++i) {
      const dtn::Node& n = w.node(static_cast<dtn::NodeId>(i));
      if (n.buffer().count() < 2) continue;
      std::vector<const dtn::Message*> msgs;
      for (const dtn::Message& m : n.buffer().messages()) msgs.push_back(&m);
      lists.push_back(std::move(msgs));
      dtn::PolicyContext ctx = w.ctx_for(n);
      ctx.cache_enabled = false;
      ctxs.push_back(ctx);
    }
    if (lists.empty()) return;
    std::vector<const dtn::Message*> scratch;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      Span s("buffer.order_for_sending");
      const double pass = time_median(
          [&] {
            for (std::size_t k = 0; k < lists.size(); ++k) {
              scratch = lists[k];
              policies[p]->order_for_sending(scratch, ctxs[k]);
            }
          },
          3);
      seconds[p] += pass;
      calls[p] += lists.size();
    }
  }
};

/// Times save_checkpoint / restore_checkpoint of a paused world and
/// checks that the restored world has the same digest.
struct SnapshotProbe {
  double save_ms = 0.0;
  double restore_ms = 0.0;
  double bytes = 0.0;

  void sample(const dtn::Scenario& sc, const dtn::World& w,
              const std::string& path, int reps, Checks& checks) {
    std::vector<double> saves, restores;
    bool same = true;
    for (int r = 0; r < reps; ++r) {
      {
        Span s("snapshot.save_checkpoint");
        const auto t0 = Clock::now();
        dtn::snapshot::save_checkpoint(path, sc, w);
        saves.push_back(since(t0) * 1e3);
      }
      Span s("snapshot.restore_checkpoint");
      const auto t0 = Clock::now();
      const auto restored = dtn::snapshot::restore_checkpoint(path);
      restores.push_back(since(t0) * 1e3);
      same = same && restored.world->digest() == w.digest();
    }
    save_ms = median(saves);
    restore_ms = median(restores);
    bytes = static_cast<double>(fs::file_size(path));
    fs::remove(path);
    checks.ok("snapshot round trip keeps the digest", same);
  }
};

/// The per-layer metrics every traced run reports, in BENCHMARK.json
/// order. Layers a workload does not run report 0.
struct Layers {
  dtn::PhaseProfile serial;  ///< profiled serial path
  double dispatch_s = 0.0;   ///< profiled two-lane graph path
  std::size_t updates = 0;
  std::size_t full_passes = 0;
  GeoReplay geo;
  std::vector<std::string> order_names;
  std::vector<double> order_us;
  std::size_t transfers_started = 0;
  std::size_t transfers_aborted = 0;
  std::size_t drops = 0;
  std::size_t profiled_transfers_started = 0;
  SnapshotProbe snap;
  double saves_per_run = 0.0;
  double ckpt_share = 0.0;
  double lane_busy_frac = 0.0;
  double shards_reassigned = 0.0;
  double workers_lost = 0.0;
  double graph_vs_serial = 0.0;
  double overhead_frac = 0.0;

  void take_orders(const OrderReplay& o) {
    for (std::size_t p = 0; p < o.names.size(); ++p) {
      order_names.push_back(o.names[p]);
      order_us.push_back(o.calls[p] ? o.seconds[p] * 1e6 /
                                          static_cast<double>(o.calls[p])
                                    : 0.0);
    }
  }

  std::string dump() const {
    JsonObject j;
    j.number("mobility.advance_s", serial.mobility_s)
        .number("net.contacts_s", serial.contacts_s)
        .number("core.events_s", serial.events_s)
        .number("core.ttl_s", serial.ttl_s)
        .number("core.transfers_s", serial.transfers_s)
        .number("buffer.prewarm_s", serial.prewarm_s)
        .number("util.dispatch_s", dispatch_s)
        .number("net.updates", static_cast<double>(updates))
        .number("net.full_passes", static_cast<double>(full_passes))
        .number("net.skip_ratio",
                updates ? 1.0 - static_cast<double>(full_passes) /
                                    static_cast<double>(updates)
                        : 0.0)
        .number("geo.rebuild_us",
                geo.samples ? geo.rebuild_s * 1e6 /
                                  static_cast<double>(geo.samples)
                            : 0.0)
        .number("geo.ns_per_pair",
                geo.pairs ? geo.collect_s * 1e9 /
                                static_cast<double>(geo.pairs)
                          : 0.0);
    for (std::size_t p = 0; p < order_names.size(); ++p) {
      j.number("buffer.order_us_per_call." + order_names[p], order_us[p]);
    }
    j.number("core.transfers_started", static_cast<double>(transfers_started))
        .number("core.transfers_aborted",
                static_cast<double>(transfers_aborted))
        .number("buffer.drops", static_cast<double>(drops))
        .number("core.ns_per_transfer_start",
                profiled_transfers_started
                    ? serial.transfers_s * 1e9 /
                          static_cast<double>(profiled_transfers_started)
                    : 0.0)
        .number("snapshot.save_ms", snap.save_ms)
        .number("snapshot.restore_ms", snap.restore_ms)
        .number("snapshot.bytes", snap.bytes)
        .number("snapshot.saves_per_run", saves_per_run)
        .number("orch.ckpt_share", ckpt_share)
        .number("orch.lane_busy_frac", lane_busy_frac)
        .number("orch.shards_reassigned", shards_reassigned)
        .number("orch.workers_lost", workers_lost)
        .number("util.graph_vs_serial", graph_vs_serial)
        .number("trace.overhead_frac", overhead_frac);
    return j.dump();
  }
};

/// Simulated times at which traced runs pause for replays: a quarter,
/// half and three quarters of the horizon.
std::vector<double> stop_times(const dtn::Scenario& sc) {
  std::vector<double> t;
  for (int q = 1; q <= 3; ++q) {
    t.push_back(std::round(sc.world.duration * q / 4.0 / sc.world.step) *
                sc.world.step);
  }
  return t;
}

/// The serial-path layer runs of one scenario: unprofiled with replays,
/// profiled, and the two-lane graph path with and without profiling.
/// When `digest_pinned`, every end digest is checked against the pin;
/// otherwise the other three must match the unprofiled serial run.
void trace_world(const Options& o, const dtn::Scenario& sc, Layers& L,
                 Checks& checks, bool digest_pinned) {
  dtn::Scenario serial = sc;
  serial.world.threads = 0;
  const std::vector<double> stops = stop_times(serial);

  OrderReplay orders(serial);
  int stop = 0;
  const WorldRun plain = run_world(serial, stops, [&](dtn::World& w) {
    L.geo.sample(w);
    orders.sample(w);
    if (++stop == 2) {
      L.snap.sample(serial, w, o.workdir + "/mid.ckpt", o.smoke ? 1 : 3,
                    checks);
    }
  });
  L.take_orders(orders);
  auto check = [&](const std::string& what, std::uint64_t digest) {
    if (digest_pinned) {
      checks.digest(what, hex64(digest));
    } else {
      checks.ok(what + " matches the serial run", digest == plain.digest);
    }
  };
  if (digest_pinned) check("serial run", plain.digest);

  dtn::Scenario profiled = serial;
  profiled.world.profile_phases = true;
  const WorldRun prof = run_world(profiled, stops);
  check("profiled serial run", prof.digest);

  dtn::Scenario lanes = serial;
  lanes.world.threads = 2;
  const WorldRun graph = run_world(lanes, stops);
  check("two-lane run", graph.digest);
  lanes.world.profile_phases = true;
  const WorldRun graph_prof = run_world(lanes, stops);
  check("profiled two-lane run", graph_prof.digest);

  L.serial = prof.profile;
  L.dispatch_s = graph_prof.profile.dispatch_s;
  L.updates = plain.updates;
  L.full_passes = plain.full_passes;
  L.transfers_started = plain.stats.transfers_started;
  L.transfers_aborted = plain.stats.transfers_aborted;
  L.drops = plain.stats.drops;
  L.profiled_transfers_started = prof.stats.transfers_started;
  L.graph_vs_serial = graph.steps_per_s() / plain.steps_per_s();
  L.overhead_frac = 1.0 - prof.steps_per_s() / plain.steps_per_s();
}

// --- the sweep through dtn_sweepd ---------------------------------------

struct SweepRun {
  double wall_s = 0.0;
  int exit_code = -1;
  std::string results_hash = "missing";
  double shards_reassigned = 0.0;
  double workers_lost = 0.0;
};

/// Launches `dtn_sweepd run` on a fresh directory that is removed again
/// afterwards, so leftover checkpoint/shard files never turn a run into a
/// resume. `ckpt_interval` empty keeps the daemon's default.
SweepRun run_sweepd(const Options& o, const std::string& manifest_path,
                    const std::string& ckpt_interval) {
  const std::string dir = o.workdir + "/sweep";
  fs::remove_all(dir);
  std::vector<std::string> argv{o.sweepd,   "run",
                                "--manifest", manifest_path,
                                "--dir",      dir,
                                "--workers",  std::to_string(kSweepWorkers)};
  if (!ckpt_interval.empty()) {
    argv.push_back("--ckpt-interval-s");
    argv.push_back(ckpt_interval);
  }
  SweepRun r;
  std::string out;
  {
    Span s("orch.dtn_sweepd_run");
    const auto t0 = Clock::now();
    dtn::ChildProcess child = dtn::ChildProcess::spawn(argv);
    child.close_stdin();
    char buf[4096];
    for (;;) {
      const ::ssize_t n = ::read(child.stdout_fd(), buf, sizeof(buf));
      if (n > 0) {
        out.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    r.exit_code = child.wait();
    r.wall_s = since(t0);
  }
  const std::string results = dir + "/results.bin";
  if (r.exit_code == 0 && fs::exists(results)) {
    r.results_hash = hex64(fnv1a(read_file(results)));
  }
  // Summary: `sweep "name": N shards (R resumed, A reassigned, L worker(s)
  // lost)`.
  const std::size_t open = out.find(" resumed, ");
  if (open != std::string::npos) {
    unsigned long reassigned = 0, lost = 0;
    if (std::sscanf(out.c_str() + open, " resumed, %lu reassigned, %lu",
                    &reassigned, &lost) == 2) {
      r.shards_reassigned = static_cast<double>(reassigned);
      r.workers_lost = static_cast<double>(lost);
    }
  }
  fs::remove_all(dir);
  return r;
}

/// Set-up the sweep's workers pay: build_world plus the first step of
/// every run in the manifest.
double sweep_setup_s(const dtn::orch::SweepManifest& m) {
  const auto t0 = Clock::now();
  for (std::size_t run = 0; run < m.total_runs(); ++run) {
    Span s("config.build_world");
    auto world = dtn::build_world(m.scenario_for(run));
    world->step();
  }
  return since(t0);
}

std::size_t sweep_steps(const dtn::orch::SweepManifest& m) {
  std::size_t steps = 0;
  for (std::size_t run = 0; run < m.total_runs(); ++run) {
    const dtn::Scenario sc = m.scenario_for(run);
    steps += static_cast<std::size_t>(
        std::llround(sc.world.duration / sc.world.step));
  }
  return steps;
}

std::string rep_json(double steps_per_s, double wall_s, std::size_t runs,
                     const std::string& digest) {
  return JsonObject()
      .number("steps_per_s", steps_per_s)
      .number("wall_s", wall_s)
      .number("runs", static_cast<double>(runs))
      .text("digest", digest)
      .dump();
}

void run_sweep(const Options& o, JsonObject& out) {
  const dtn::orch::SweepManifest m = sweep_manifest(o);
  out.text("fingerprint", hex64(fnv1a(m.to_text())));
  if (o.describe) return;
  const std::string manifest_path = o.workdir + "/manifest.txt";
  m.save(manifest_path);
  const std::size_t total_steps = sweep_steps(m);

  if (!o.trace) {
    std::vector<std::string> setups;
    for (int i = 0; i < 3; ++i) setups.push_back(num(sweep_setup_s(m)));
    const SweepRun r = run_sweepd(o, manifest_path, "");
    // The largest process is a worker: RUSAGE_CHILDREN covers the daemon
    // and, through it, every worker it reaped.
    out.raw("rep", rep_json(total_steps / r.wall_s, r.wall_s, m.total_runs(),
                            r.results_hash))
        .raw("setup_s", json_array(setups))
        .number("peak_rss_mb", peak_rss_mb(RUSAGE_CHILDREN));
    return;
  }
  Checks checks;

  // Traced: orchestration shares first, then the in-process layer runs.
  Layers L;
  const SweepRun ckpt = run_sweepd(o, manifest_path, "");
  const SweepRun no_ckpt = run_sweepd(o, manifest_path, "0");
  checks.digest("dtn_sweepd run (default checkpoint interval)",
                ckpt.results_hash);
  checks.digest("dtn_sweepd run --ckpt-interval-s 0", no_ckpt.results_hash);
  L.ckpt_share = 1.0 - no_ckpt.wall_s / ckpt.wall_s;
  L.shards_reassigned = ckpt.shards_reassigned + no_ckpt.shards_reassigned;
  L.workers_lost = ckpt.workers_lost + no_ckpt.workers_lost;

  // Lane occupancy: the runs' own in-process run_scenario time against
  // the workers' wall budget in the checkpointed sweep.
  double run_scenario_s = 0.0;
  for (std::size_t run = 0; run < m.total_runs(); ++run) {
    Span s("report.run_scenario");
    dtn::SimStats stats;
    const auto t0 = Clock::now();
    dtn::run_scenario(m.scenario_for(run), &stats);
    run_scenario_s += since(t0);
    L.transfers_started += stats.transfers_started;
    L.transfers_aborted += stats.transfers_aborted;
    L.drops += stats.drops;
  }
  L.lane_busy_frac =
      run_scenario_s / (static_cast<double>(kSweepWorkers) * ckpt.wall_s);

  // Serial-path phases and tracker counters summed over every run.
  double plain_s = 0.0, prof_s = 0.0;
  for (std::size_t run = 0; run < m.total_runs(); ++run) {
    const dtn::Scenario sc = m.scenario_for(run);
    const WorldRun plain = run_world(sc);
    dtn::Scenario p = sc;
    p.world.profile_phases = true;
    const WorldRun prof = run_world(p);
    checks.ok("profiling keeps the digest", plain.digest == prof.digest);
    plain_s += plain.run_s;
    prof_s += prof.run_s;
    L.updates += plain.updates;
    L.full_passes += plain.full_passes;
    L.serial.mobility_s += prof.profile.mobility_s;
    L.serial.contacts_s += prof.profile.contacts_s;
    L.serial.events_s += prof.profile.events_s;
    L.serial.ttl_s += prof.profile.ttl_s;
    L.serial.prewarm_s += prof.profile.prewarm_s;
    L.serial.transfers_s += prof.profile.transfers_s;
    L.profiled_transfers_started += prof.stats.transfers_started;
  }
  L.overhead_frac = 1.0 - plain_s / prof_s;

  // Replays, snapshot and graph path on one run: SDSRP at 2 MB, the
  // tightest buffer, where eviction is busiest.
  const dtn::Scenario x = m.scenario_for(m.points.size() / 2);
  Layers one;
  trace_world(o, x, one, checks, false);
  L.geo = one.geo;
  L.order_names = one.order_names;
  L.order_us = one.order_us;
  L.snap = one.snap;
  L.dispatch_s = one.dispatch_s;
  L.graph_vs_serial = one.graph_vs_serial;

  // Checkpoints a worker writes per run at the daemon's default interval.
  int saves = 0;
  {
    dtn::CheckpointOptions ck;
    ck.dir = o.workdir + "/ckpt";
    ck.interval_s = 600.0;
    ck.on_progress = [&saves](double) { ++saves; };
    Span s("report.run_scenario");
    dtn::run_scenario(x, nullptr, ck, "probe");
    fs::remove_all(ck.dir);
  }
  L.saves_per_run = saves;

  out.raw("layers", L.dump()).raw("checks", json_array(checks.items));
}

void run_in_process(const Options& o, const dtn::Scenario& sc,
                    JsonObject& out) {
  out.text("fingerprint", hex64(fnv1a(sc.to_settings().to_text())));
  if (o.describe) return;
  if (!o.trace) {
    // A small world sets up in about a millisecond, so each repetition
    // also times a few extra set-ups to steady the median.
    const int extra_setups = sc.n_nodes < 1000 ? 9 : 0;
    std::vector<std::string> setups;
    for (int i = 0; i < extra_setups; ++i) {
      const auto t0 = Clock::now();
      auto world = dtn::build_world(sc);
      world->step();
      setups.push_back(num(since(t0)));
    }
    const WorldRun r = run_world(sc);
    setups.push_back(num(r.setup_s));
    out.raw("rep", rep_json(r.steps_per_s(), r.run_s, 1, hex64(r.digest)))
        .raw("setup_s", json_array(setups))
        .number("peak_rss_mb", peak_rss_mb(RUSAGE_SELF));
    return;
  }
  Checks checks;
  Layers L;
  trace_world(o, sc, L, checks, true);
  out.raw("layers", L.dump()).raw("checks", json_array(checks.items));
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--scenario-seed") o.scenario_seed = std::stoull(value());
    else if (a == "--sweepd") o.sweepd = value();
    else if (a == "--workdir") o.workdir = value();
    else if (a == "--spans") o.spans = value();
    else if (a == "--trace") o.trace = true;
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--describe") o.describe = true;
    else throw std::runtime_error("unknown argument " + a);
  }
  if (o.workdir.empty()) throw std::runtime_error("--workdir is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (o.trace) tracer().enable();
    fs::create_directories(o.workdir);
    JsonObject out;
    out.text("workload", o.workload)
        .number("scenario_seed", static_cast<double>(o.scenario_seed))
        .number("hardware_threads", std::thread::hardware_concurrency());
    {
      Span root("workload");
      if (o.workload == "table2-sweep") {
        if (o.sweepd.empty()) throw std::runtime_error("--sweepd is required");
        run_sweep(o, out);
      } else if (o.workload == "table3-taxi") {
        run_in_process(o, taxi_scenario(o), out);
      } else if (o.workload == "const-density-100k") {
        run_in_process(o, density_scenario(o), out);
      } else {
        throw std::runtime_error("unknown workload " + o.workload);
      }
    }
    if (o.trace && !o.spans.empty()) tracer().write(o.spans);
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
