// MessageGenerator: periodic traffic source matching the paper's setup —
// a new message every U[interval_min, interval_max] seconds with uniformly
// random distinct source and destination, fixed size, TTL and copy budget.
#pragma once

#include <limits>
#include <vector>

#include "src/core/message.hpp"
#include "src/core/types.hpp"
#include "src/util/rng.hpp"

namespace dtn {

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

struct MessageGenConfig {
  double interval_min = 25.0;  ///< s between creations (lower bound)
  double interval_max = 35.0;  ///< s between creations (upper bound)
  std::int64_t size = 500'000;  ///< bytes (paper: 0.5 MB)
  /// When > size, message sizes are uniform in [size, size_max]
  /// (heterogeneous-payload experiments; the paper uses a fixed size).
  std::int64_t size_max = 0;
  double ttl = 18000.0;         ///< s (paper: 300 min)
  int initial_copies = 32;      ///< L, the Spray-and-Wait budget
  SimTime start = 0.0;
  SimTime stop = std::numeric_limits<double>::infinity();
};

class MessageGenerator {
 public:
  MessageGenerator(const MessageGenConfig& cfg, std::size_t n_nodes, Rng rng);

  /// All messages due at or before `now` (each call advances the schedule).
  std::vector<Message> poll(SimTime now);

  /// Allocation-free variant for the step hot path: clears `out` and fills
  /// it with the due messages, reusing its capacity across steps.
  void poll(SimTime now, std::vector<Message>& out);

  /// Next creation time (for tests).
  SimTime next_due() const { return next_time_; }

  MessageId next_id() const { return next_id_; }

  /// Snapshot/restore of the traffic schedule (rng stream, next creation
  /// time and next message id); the config is verified-by-construction.
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

 private:
  Message make_message(SimTime t);

  MessageGenConfig cfg_;
  std::size_t n_nodes_;
  Rng rng_;
  SimTime next_time_;
  MessageId next_id_ = 1;
};

}  // namespace dtn
