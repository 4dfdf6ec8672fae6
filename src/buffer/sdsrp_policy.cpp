#include "src/buffer/sdsrp_policy.hpp"

#include <algorithm>

#include "src/core/node.hpp"
#include "src/core/oracle.hpp"
#include "src/sdsrp/priority_model.hpp"
#include "src/sdsrp/spray_tree.hpp"
#include "src/util/error.hpp"

namespace dtn {

namespace {
double priority_from_inputs(const sdsrp::PriorityInputs& in,
                            std::size_t taylor_terms) {
  if (taylor_terms == 0) return sdsrp::priority_eq10(in);
  const double pt = sdsrp::prob_already_delivered(in);
  const double pr =
      std::min(sdsrp::prob_deliver_in_remaining(in), 1.0 - 1e-12);
  return sdsrp::priority_taylor(pt, pr, in.n_holding, taylor_terms);
}
}  // namespace

SdsrpPolicy::Estimates SdsrpPolicy::estimates(const Message& m,
                                              const PolicyContext& ctx) const {
  DTN_REQUIRE(ctx.node != nullptr, "sdsrp: context without node");
  DTN_REQUIRE(ctx.n_nodes >= 2, "sdsrp: need at least two nodes");
  const Node& node = *ctx.node;

  Estimates e;
  const double ei = node.intermeeting().mean_intermeeting(ctx.now);
  e.lambda = 1.0 / ei;

  sdsrp::SprayTreeInputs sti;
  sti.spray_times = m.spray_times;
  sti.now = ctx.now;
  sti.mean_min_imt = ei / static_cast<double>(ctx.n_nodes - 1);
  sti.initial_copies = static_cast<double>(m.initial_copies);
  sti.n_nodes = ctx.n_nodes;
  sti.anchor_at_last_spray = params_.anchor_at_last_spray;
  e.m_seen = sdsrp::estimate_m_seen(sti);
  e.d_dropped = node.dropped_list().count_drops(m.id);
  e.n_holding = sdsrp::estimate_n_holding(e.m_seen, e.d_dropped);
  return e;
}

const Message* SdsrpPolicy::choose_drop(
    const std::vector<const Message*>& droppable, const Message* newcomer,
    const PolicyContext& ctx) const {
  if (params_.reject_low_priority_newcomer) {
    return ScalarBufferPolicy::choose_drop(droppable, newcomer, ctx);
  }
  // Always-make-room: evict the lowest-priority resident; the newcomer is
  // only the victim when no resident can be evicted.
  if (droppable.empty()) return newcomer;
  return ScalarBufferPolicy::choose_drop(droppable, nullptr, ctx);
}

double SdsrpPolicy::priority(const Message& m, const PolicyContext& ctx) const {
  const Estimates e = estimates(m, ctx);
  sdsrp::PriorityInputs in;
  in.n_nodes = ctx.n_nodes;
  in.lambda = e.lambda;
  in.copies = static_cast<double>(m.copies);
  in.remaining_ttl = std::max(m.remaining_ttl(ctx.now), 0.0);
  in.m_seen = e.m_seen;
  in.n_holding = e.n_holding;
  return priority_from_inputs(in, params_.taylor_terms);
}

double SdsrpOraclePolicy::priority(const Message& m,
                                   const PolicyContext& ctx) const {
  DTN_REQUIRE(ctx.node != nullptr, "sdsrp-oracle: context without node");
  DTN_REQUIRE(ctx.oracle != nullptr, "sdsrp-oracle: registry unavailable");
  DTN_REQUIRE(ctx.n_nodes >= 2, "sdsrp-oracle: need at least two nodes");

  sdsrp::PriorityInputs in;
  in.n_nodes = ctx.n_nodes;
  // The oracle still uses the node's λ estimate: global knowledge in the
  // paper concerns m_i and n_i, not the mobility statistics.
  in.lambda = ctx.node->intermeeting().lambda(ctx.now);
  in.copies = static_cast<double>(m.copies);
  in.remaining_ttl = std::max(m.remaining_ttl(ctx.now), 0.0);
  in.m_seen = ctx.oracle->m_seen(m.id);
  in.n_holding = std::max(1.0, ctx.oracle->n_holding(m.id));
  return priority_from_inputs(in, params_.taylor_terms);
}

}  // namespace dtn
