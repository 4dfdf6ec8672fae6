// Knapsack-based scheduling and drop (Wang, Yang & Wu, EWSN 2015 — the
// paper's reference [11] and the authors' precursor to SDSRP): buffer
// space is a knapsack and each message a candidate item whose value is
// its SDSRP utility U_i. With heterogeneous message sizes the right
// eviction order is by *utility density* U_i/size rather than plain U_i
// (a large low-density message frees more room per utility lost);
// scheduling likewise sends the densest messages first. With the paper's
// uniform 0.5 MB messages this reduces exactly to SDSRP.
#pragma once

#include "src/buffer/sdsrp_policy.hpp"

namespace dtn {

class KnapsackSdsrpPolicy final : public BufferPolicy {
 public:
  explicit KnapsackSdsrpPolicy(const SdsrpParams& params = {})
      : inner_(params) {}

  const char* name() const override { return "knapsack-sdsrp"; }
  // Density inherits SDSRP's cache-safety: it divides the inner U_i by
  // the (immutable) message size.
  bool cache_safe() const override { return true; }
  bool uses_dropped_list() const override { return true; }
  bool rejects_previously_dropped() const override {
    return inner_.rejects_previously_dropped();
  }

  void order_for_sending(std::vector<const Message*>& msgs,
                         const PolicyContext& ctx) const override;

  const Message* choose_drop(const std::vector<const Message*>& droppable,
                             const Message* newcomer,
                             const PolicyContext& ctx) const override;

  /// Utility density U_i / size of one message. `resident` routes the
  /// inner priority through the node's memo — only valid for messages in
  /// ctx.node's buffer (newcomers must be rated fresh).
  double density(const Message& m, const PolicyContext& ctx,
                 bool resident = false) const;

 private:
  SdsrpPolicy inner_;
};

}  // namespace dtn
