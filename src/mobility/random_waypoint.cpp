#include "src/mobility/random_waypoint.hpp"

#include <utility>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

RandomWaypointModel::RandomWaypointModel(const RandomWaypointConfig& cfg,
                                         Rng rng)
    : RandomWaypointModel(std::make_shared<const RandomWaypointConfig>(cfg),
                          rng) {}

RandomWaypointModel::RandomWaypointModel(
    std::shared_ptr<const RandomWaypointConfig> cfg, Rng rng)
    : rng_(rng), cfg_(std::move(cfg)) {
  DTN_REQUIRE(cfg_ != nullptr, "random-waypoint: no config");
  DTN_REQUIRE(cfg_->v_min > 0.0 && cfg_->v_max >= cfg_->v_min,
              "random-waypoint: bad speed range");
  DTN_REQUIRE(cfg_->pause_min >= 0.0 && cfg_->pause_max >= cfg_->pause_min,
              "random-waypoint: bad pause range");
  pos_ = cfg_->area.sample(rng_);
  start_new_trip();
}

void RandomWaypointModel::start_new_trip() {
  dest_ = cfg_->area.sample(rng_);
  speed_ = rng_.uniform(cfg_->v_min, cfg_->v_max);
  if (speed_ <= 0.0) speed_ = cfg_->v_min;
}

void RandomWaypointModel::advance(double dt) {
  DTN_REQUIRE(dt >= 0.0, "advance: negative dt");
  while (dt > 0.0) {
    if (pause_left_ > 0.0) {
      const double p = std::min(pause_left_, dt);
      pause_left_ -= p;
      dt -= p;
      continue;
    }
    const Vec2 to_dest = dest_ - pos_;
    const double dist = to_dest.norm();
    const double step = speed_ * dt;
    if (step < dist) {
      // Same arithmetic as normalized() * step (component / dist, then
      // * step) but reusing the norm already computed — this runs once
      // per moving node per step, and the second sqrt was measurable at
      // 100k nodes. dist > step >= 0 here, so no zero guard is needed.
      pos_ += Vec2{to_dest.x / dist, to_dest.y / dist} * step;
      return;
    }
    // Reach the waypoint, consume the travel time, pause, pick the next.
    pos_ = dest_;
    dt -= (speed_ > 0.0) ? dist / speed_ : dt;
    pause_left_ = rng_.uniform(cfg_->pause_min, cfg_->pause_max);
    start_new_trip();
  }
}


void RandomWaypointModel::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("rwp");
  snapshot::write_rng(out, rng_);
  out.f64(pos_.x);
  out.f64(pos_.y);
  out.f64(dest_.x);
  out.f64(dest_.y);
  out.f64(speed_);
  out.f64(pause_left_);
  out.end_section();
}

void RandomWaypointModel::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("rwp");
  snapshot::read_rng(in, rng_);
  pos_.x = in.f64();
  pos_.y = in.f64();
  dest_.x = in.f64();
  dest_.y = in.f64();
  speed_ = in.f64();
  pause_left_ = in.f64();
  in.end_section();
}

}  // namespace dtn
