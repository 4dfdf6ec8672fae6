#include "src/config/scenario.hpp"

#include "src/pipeline/parser.hpp"
#include "src/util/units.hpp"

namespace dtn {

Scenario Scenario::random_waypoint_paper() {
  Scenario sc;
  sc.name = "rwp-paper";           // Table II
  sc.world.step = 1.0;
  sc.world.duration = 18000.0;     // 18000 s
  sc.world.range = 100.0;          // 100 m
  sc.world.bandwidth = units::kbps(250);
  sc.n_nodes = 100;
  sc.buffer_capacity = units::megabytes(2.5);
  sc.traffic.interval_min = 25.0;  // one message per 25-35 s
  sc.traffic.interval_max = 35.0;
  sc.traffic.size = units::megabytes(0.5);
  sc.traffic.ttl = units::minutes(300);
  sc.traffic.initial_copies = 32;
  sc.mobility = "random-waypoint";
  sc.rwp.area = Rect::sized(4500.0, 3400.0);
  sc.rwp.v_min = 2.0;              // 2 m/s
  sc.rwp.v_max = 2.0;
  sc.router = "spray-and-wait";
  sc.policy = "sdsrp";
  // Warm-up prior for E(I): with 100 RWP nodes at 2 m/s, 100 m range in
  // 4500x3400 m, pairwise meetings are rare — order 3e4 s. The online
  // estimator replaces this within a few observed contacts.
  sc.estimator.prior_mean_intermeeting = 30000.0;
  sc.estimator.min_intermeeting_samples = 4;
  return sc;
}

Scenario Scenario::taxi_paper() {
  Scenario sc = random_waypoint_paper();
  sc.name = "taxi-paper";          // Table III
  sc.n_nodes = 200;                // first 200 taxis
  sc.mobility = "taxi-fleet";
  sc.taxi = TaxiFleetConfig{};     // defaults: SF-like hotspot layout
  // Taxis move faster but aggregate; observed pairwise E(I) is similar in
  // magnitude to the RWP prior.
  sc.estimator.prior_mean_intermeeting = 20000.0;
  return sc;
}

Settings Scenario::to_settings() const {
  Settings s;
  auto put_d = [&s](const char* k, double v) { s.set(k, std::to_string(v)); };
  auto put_i = [&s](const char* k, std::int64_t v) {
    s.set(k, std::to_string(v));
  };
  s.set("Scenario.name", name);
  put_d("World.step", world.step);
  put_d("World.duration", world.duration);
  put_d("World.range", world.range);
  put_d("World.bandwidth", world.bandwidth);
  s.set("World.ackGossip", world.ack_gossip ? "true" : "false");
  s.set("World.priorityCache", world.priority_cache ? "true" : "false");
  put_d("World.priorityRefreshS", world.priority_refresh_s);
  s.set("World.legacyStep", world.legacy_step ? "true" : "false");
  // Inert (the step is serial; DESIGN.md §6), but still written so
  // settings text, scenario fingerprints and checkpoints stay byte-stable.
  put_i("Parallel.threads", static_cast<std::int64_t>(world.threads));
  put_i("World.nodes", static_cast<std::int64_t>(n_nodes));
  put_i("World.bufferBytes", buffer_capacity);
  put_d("Traffic.intervalMin", traffic.interval_min);
  put_d("Traffic.intervalMax", traffic.interval_max);
  put_i("Traffic.sizeBytes", traffic.size);
  put_i("Traffic.sizeMaxBytes", traffic.size_max);
  put_d("Traffic.ttl", traffic.ttl);
  put_i("Traffic.copies", traffic.initial_copies);
  put_d("Traffic.start", traffic.start);
  // Default is +inf (never stop); std::to_string/stod round-trip "inf".
  put_d("Traffic.stop", traffic.stop);
  s.set("Mobility.model", mobility);
  put_d("Mobility.areaWidth", rwp.area.width());
  put_d("Mobility.areaHeight", rwp.area.height());
  put_d("Mobility.vMin", rwp.v_min);
  put_d("Mobility.vMax", rwp.v_max);
  s.set("Fault.enabled", fault.enabled ? "true" : "false");
  put_d("Fault.churnFraction", fault.churn_fraction);
  put_d("Fault.meanUpS", fault.mean_up_s);
  put_d("Fault.meanDownS", fault.mean_down_s);
  s.set("Fault.rebootPurge", fault.reboot_purge ? "true" : "false");
  put_d("Fault.linkAbortRatePerHour", fault.link_abort_rate_per_hour);
  put_d("Fault.degradeRatePerHour", fault.degrade_rate_per_hour);
  put_d("Fault.degradeDurationS", fault.degrade_duration_s);
  put_d("Fault.degradeRangeFactor", fault.degrade_range_factor);
  put_d("Fault.degradeBitrateFactor", fault.degrade_bitrate_factor);
  s.set("Router.name", router);
  s.set("Policy.name", policy);
  if (!pipeline.empty()) s.set("Pipeline.spec", pipeline);
  put_i("Policy.sdsrpTaylorTerms",
        static_cast<std::int64_t>(sdsrp_taylor_terms));
  s.set("Policy.sdsrpAnchorLastSpray",
        sdsrp_anchor_last_spray ? "true" : "false");
  s.set("Policy.sdsrpRejectNewcomer",
        sdsrp_reject_newcomer ? "true" : "false");
  s.set("Router.precheckAdmission", precheck_admission ? "true" : "false");
  s.set("Router.presplitAdmissionView",
        presplit_admission_view ? "true" : "false");
  s.set("Estimator.imtMode",
        estimator.imt_mode == sdsrp::ImtEstimatorMode::kCensoredMle
            ? "censored-mle"
            : "naive-mean");
  put_d("Estimator.priorMeanIntermeeting",
        estimator.prior_mean_intermeeting);
  put_i("Estimator.minSamples",
        static_cast<std::int64_t>(estimator.min_intermeeting_samples));
  put_i("Scenario.seed", static_cast<std::int64_t>(seed));
  return s;
}

Scenario Scenario::from_settings(const Settings& s) {
  Scenario sc;  // defaults, overridden by present keys
  sc.name = s.get_string_or("Scenario.name", sc.name);
  sc.world.step = s.get_double_or("World.step", sc.world.step);
  sc.world.duration = s.get_double_or("World.duration", sc.world.duration);
  sc.world.range = s.get_double_or("World.range", sc.world.range);
  sc.world.bandwidth = s.get_double_or("World.bandwidth", sc.world.bandwidth);
  sc.world.ack_gossip = s.get_bool_or("World.ackGossip", sc.world.ack_gossip);
  sc.world.priority_cache =
      s.get_bool_or("World.priorityCache", sc.world.priority_cache);
  sc.world.priority_refresh_s =
      s.get_double_or("World.priorityRefreshS", sc.world.priority_refresh_s);
  sc.world.legacy_step =
      s.get_bool_or("World.legacyStep", sc.world.legacy_step);
  sc.world.threads = static_cast<std::size_t>(s.get_int_or(
      "Parallel.threads", static_cast<std::int64_t>(sc.world.threads)));
  sc.n_nodes = static_cast<std::size_t>(
      s.get_int_or("World.nodes", static_cast<std::int64_t>(sc.n_nodes)));
  sc.buffer_capacity = s.get_int_or("World.bufferBytes", sc.buffer_capacity);
  sc.traffic.interval_min =
      s.get_double_or("Traffic.intervalMin", sc.traffic.interval_min);
  sc.traffic.interval_max =
      s.get_double_or("Traffic.intervalMax", sc.traffic.interval_max);
  sc.traffic.size = s.get_int_or("Traffic.sizeBytes", sc.traffic.size);
  sc.traffic.size_max =
      s.get_int_or("Traffic.sizeMaxBytes", sc.traffic.size_max);
  sc.traffic.ttl = s.get_double_or("Traffic.ttl", sc.traffic.ttl);
  sc.traffic.initial_copies = static_cast<int>(
      s.get_int_or("Traffic.copies", sc.traffic.initial_copies));
  sc.traffic.start = s.get_double_or("Traffic.start", sc.traffic.start);
  sc.traffic.stop = s.get_double_or("Traffic.stop", sc.traffic.stop);
  sc.mobility = s.get_string_or("Mobility.model", sc.mobility);
  const double w = s.get_double_or("Mobility.areaWidth", sc.rwp.area.width());
  const double h =
      s.get_double_or("Mobility.areaHeight", sc.rwp.area.height());
  sc.rwp.area = Rect::sized(w, h);
  sc.walk.area = sc.rwp.area;
  sc.direction.area = sc.rwp.area;
  sc.rwp.v_min = s.get_double_or("Mobility.vMin", sc.rwp.v_min);
  sc.rwp.v_max = s.get_double_or("Mobility.vMax", sc.rwp.v_max);
  sc.walk.v_min = sc.rwp.v_min;
  sc.walk.v_max = sc.rwp.v_max;
  sc.direction.v_min = sc.rwp.v_min;
  sc.direction.v_max = sc.rwp.v_max;
  sc.fault.enabled = s.get_bool_or("Fault.enabled", sc.fault.enabled);
  sc.fault.churn_fraction =
      s.get_double_or("Fault.churnFraction", sc.fault.churn_fraction);
  sc.fault.mean_up_s = s.get_double_or("Fault.meanUpS", sc.fault.mean_up_s);
  sc.fault.mean_down_s =
      s.get_double_or("Fault.meanDownS", sc.fault.mean_down_s);
  sc.fault.reboot_purge =
      s.get_bool_or("Fault.rebootPurge", sc.fault.reboot_purge);
  sc.fault.link_abort_rate_per_hour = s.get_double_or(
      "Fault.linkAbortRatePerHour", sc.fault.link_abort_rate_per_hour);
  sc.fault.degrade_rate_per_hour = s.get_double_or(
      "Fault.degradeRatePerHour", sc.fault.degrade_rate_per_hour);
  sc.fault.degrade_duration_s =
      s.get_double_or("Fault.degradeDurationS", sc.fault.degrade_duration_s);
  sc.fault.degrade_range_factor = s.get_double_or(
      "Fault.degradeRangeFactor", sc.fault.degrade_range_factor);
  sc.fault.degrade_bitrate_factor = s.get_double_or(
      "Fault.degradeBitrateFactor", sc.fault.degrade_bitrate_factor);
  sc.fault.validate();
  sc.router = s.get_string_or("Router.name", sc.router);
  sc.policy = s.get_string_or("Policy.name", sc.policy);
  sc.pipeline = s.get_string_or("Pipeline.spec", sc.pipeline);
  // Eager validation: a malformed pipeline fails at load time with a
  // position-bearing diagnostic, not at build_world inside a sweep.
  if (!sc.pipeline.empty()) (void)dtn::pipeline::parse(sc.pipeline);
  sc.sdsrp_taylor_terms = static_cast<std::size_t>(s.get_int_or(
      "Policy.sdsrpTaylorTerms",
      static_cast<std::int64_t>(sc.sdsrp_taylor_terms)));
  sc.sdsrp_anchor_last_spray =
      s.get_bool_or("Policy.sdsrpAnchorLastSpray", sc.sdsrp_anchor_last_spray);
  sc.sdsrp_reject_newcomer =
      s.get_bool_or("Policy.sdsrpRejectNewcomer", sc.sdsrp_reject_newcomer);
  sc.precheck_admission =
      s.get_bool_or("Router.precheckAdmission", sc.precheck_admission);
  sc.presplit_admission_view = s.get_bool_or("Router.presplitAdmissionView",
                                             sc.presplit_admission_view);
  if (s.has("Estimator.imtMode")) {
    const std::string mode = s.get_string("Estimator.imtMode");
    DTN_REQUIRE(mode == "censored-mle" || mode == "naive-mean",
                "unknown Estimator.imtMode: " + mode);
    sc.estimator.imt_mode = mode == "censored-mle"
                                ? sdsrp::ImtEstimatorMode::kCensoredMle
                                : sdsrp::ImtEstimatorMode::kNaiveMean;
  }
  sc.estimator.prior_mean_intermeeting =
      s.get_double_or("Estimator.priorMeanIntermeeting",
                      sc.estimator.prior_mean_intermeeting);
  sc.estimator.min_intermeeting_samples = static_cast<std::size_t>(
      s.get_int_or("Estimator.minSamples",
                   static_cast<std::int64_t>(
                       sc.estimator.min_intermeeting_samples)));
  sc.seed = static_cast<std::uint64_t>(
      s.get_int_or("Scenario.seed", static_cast<std::int64_t>(sc.seed)));
  return sc;
}

}  // namespace dtn
