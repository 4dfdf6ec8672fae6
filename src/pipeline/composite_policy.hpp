// CompositePolicy: the generic fallback the pipeline compiler emits when
// a (PriorityQueue scalar, drop element) pair has no closed-class
// equivalent — e.g. `PriorityQueue(sdsrp) -> DropRandom`. Scheduling
// delegates to the queue scalar's policy, the drop decision to the drop
// element's policy.
//
// The composite is deliberately NOT cache-safe: the per-node
// PriorityCache memo is keyed by message id alone, so two sub-policies
// with different scalars would collide in one memo. Both delegated calls
// therefore see a context with `cache_enabled` cleared — sub-policies
// always compute fresh, and the World never snapshots send orders under
// a composite.
#pragma once

#include <memory>
#include <string>

#include "src/core/buffer_policy.hpp"

namespace dtn::pipeline {

class CompositePolicy final : public BufferPolicy {
 public:
  /// `name` is the display/verification name, e.g. "pipeline(sdsrp+random)".
  CompositePolicy(std::string name, std::unique_ptr<BufferPolicy> sched,
                  std::unique_ptr<BufferPolicy> drop);

  const char* name() const override { return name_.c_str(); }

  void order_for_sending(std::vector<const Message*>& msgs,
                         const PolicyContext& ctx) const override;
  const Message* choose_drop(const std::vector<const Message*>& droppable,
                             const Message* newcomer,
                             const PolicyContext& ctx) const override;

  bool cache_safe() const override { return false; }
  bool uses_dropped_list() const override;
  bool rejects_previously_dropped() const override;

  /// Element-framed state (archive v6): a "pipeline-policy" section with
  /// the element count and, per element, its policy name (structure
  /// verification on load) followed by the element's own state.
  void save_state(snapshot::ArchiveWriter& out) const override;
  void load_state(snapshot::ArchiveReader& in) override;

  const BufferPolicy& sched() const { return *sched_; }
  const BufferPolicy& drop_element() const { return *drop_; }

 private:
  static PolicyContext uncached(const PolicyContext& ctx) {
    PolicyContext c = ctx;
    c.cache_enabled = false;
    return c;
  }

  std::string name_;
  std::unique_ptr<BufferPolicy> sched_;
  std::unique_ptr<BufferPolicy> drop_;
};

}  // namespace dtn::pipeline
