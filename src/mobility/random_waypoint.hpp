// Random-waypoint mobility (the paper's synthetic scenario, Table II):
// pick a uniform destination in the area, move toward it in a straight
// line at a trip speed drawn from [v_min, v_max], pause for a time drawn
// from [pause_min, pause_max], repeat.
#pragma once

#include <memory>

#include "src/geo/rect.hpp"
#include "src/mobility/mobility_model.hpp"
#include "src/util/rng.hpp"

namespace dtn {

struct RandomWaypointConfig {
  Rect area = Rect::sized(4500.0, 3400.0);
  double v_min = 2.0;      ///< m/s (paper: fixed 2 m/s)
  double v_max = 2.0;
  double pause_min = 0.0;  ///< s
  double pause_max = 0.0;
};

class RandomWaypointModel final : public MobilityModel {
 public:
  /// A model on its own copy of `cfg`.
  RandomWaypointModel(const RandomWaypointConfig& cfg, Rng rng);
  /// A model on a config shared with the rest of its fleet (build_world):
  /// one copy of the constant instead of one per model, and no allocation.
  RandomWaypointModel(std::shared_ptr<const RandomWaypointConfig> cfg,
                      Rng rng);

  void advance(double dt) override;
  Vec2 position() const override { return pos_; }
  const char* name() const override { return "random-waypoint"; }
  double max_speed() const override { return cfg_->v_max; }

  void save_state(snapshot::ArchiveWriter& out) const override;
  void load_state(snapshot::ArchiveReader& in) override;

 private:
  void start_new_trip();

  // The kinematic fields come first: a step that does not reach its
  // waypoint reads only them and the vtable pointer, 56 bytes.
  Vec2 pos_;
  Vec2 dest_;
  double speed_ = 0.0;
  double pause_left_ = 0.0;
  Rng rng_;
  std::shared_ptr<const RandomWaypointConfig> cfg_;
};

}  // namespace dtn
