// SdsrpPolicy — the paper's contribution, assembled from the src/sdsrp
// building blocks:
//
//   priority U_i = Eq. 10, computed per message from
//     λ      <- the node's distributed intermeeting estimator,
//     m̂_i   <- the spray-timestamp lineage (Eq. 15),
//     d̂_i   <- the gossiped dropped-list records (Fig. 5),
//     n̂_i   <- m̂_i + 1 - d̂_i (Eq. 14).
//
// Scheduling sends the highest-U message first; overflow drops the
// lowest-U message among residents and the newcomer (Algorithm 1).
//
// SdsrpOraclePolicy computes the same U_i from the simulator's global
// registry (the "centralized control channel" the paper argues is
// impractical) — the upper bound the estimator ablation compares against.
#pragma once

#include "src/core/buffer_policy.hpp"

namespace dtn {

struct SdsrpParams {
  /// 0 = closed form (Eq. 10); k > 0 = Taylor approximation with k terms
  /// (Eq. 13). The ablation bench sweeps this.
  std::size_t taylor_terms = 0;
  /// Eq. 15 branch ages anchored at the last spray time (paper-literal)
  /// vs. the current time (branches keep growing between contacts).
  bool anchor_at_last_spray = true;
  /// Algorithm 1 admission semantics. `true`: the newcomer competes in
  /// the drop decision and is refused when its priority is the lowest
  /// (the literal "Priority_m < Priority_l" test). `false`: GBSD-style
  /// always-make-room — the lowest-priority *resident* is evicted and the
  /// newcomer is only refused when nothing is evictable. The mechanics
  /// ablation compares both; see DESIGN.md §4.
  bool reject_low_priority_newcomer = true;
  /// "Nodes reject receiving the message already in their dropped lists"
  /// (paper Fig. 5 discussion). Disable to measure the rule's cost in the
  /// mechanics ablation.
  bool reject_previously_dropped = true;
};

class SdsrpPolicy final : public ScalarBufferPolicy {
 public:
  explicit SdsrpPolicy(const SdsrpParams& params = {}) : params_(params) {}

  const char* name() const override { return "sdsrp"; }
  // U_i is pure in (message, node estimators, now); every estimator
  // change reaches the node's PriorityCache as an epoch bump or a
  // per-message invalidation, so memoized values are never silently
  // stale beyond the refresh quantum. The oracle variant below is NOT
  // cache-safe: registry updates carry no node-local signal.
  bool cache_safe() const override { return true; }
  bool uses_dropped_list() const override { return true; }
  bool rejects_previously_dropped() const override {
    return params_.reject_previously_dropped;
  }

  double priority(const Message& m, const PolicyContext& ctx) const override;

  const Message* choose_drop(const std::vector<const Message*>& droppable,
                             const Message* newcomer,
                             const PolicyContext& ctx) const override;

  /// Exposed for ablation: the m̂/n̂ the policy would use for `m` at
  /// `ctx.node`.
  struct Estimates {
    double m_seen = 0.0;
    double n_holding = 0.0;
    double d_dropped = 0.0;
    double lambda = 0.0;
  };
  Estimates estimates(const Message& m, const PolicyContext& ctx) const;

 private:
  SdsrpParams params_;
};

class SdsrpOraclePolicy final : public ScalarBufferPolicy {
 public:
  explicit SdsrpOraclePolicy(const SdsrpParams& params = {})
      : params_(params) {}

  const char* name() const override { return "sdsrp-oracle"; }

  double priority(const Message& m, const PolicyContext& ctx) const override;

 private:
  SdsrpParams params_;
};

}  // namespace dtn
