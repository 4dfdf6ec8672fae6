#include "src/buffer/gbsd_policy.hpp"

#include <algorithm>

#include "src/core/node.hpp"
#include "src/core/oracle.hpp"
#include "src/sdsrp/priority_model.hpp"
#include "src/util/error.hpp"

namespace dtn {

double GbsdPolicy::priority(const Message& m, const PolicyContext& ctx) const {
  DTN_REQUIRE(ctx.node != nullptr, "gbsd: context without node");
  DTN_REQUIRE(ctx.oracle != nullptr, "gbsd: registry unavailable");
  DTN_REQUIRE(ctx.n_nodes >= 2, "gbsd: need at least two nodes");

  sdsrp::PriorityInputs in;
  in.n_nodes = ctx.n_nodes;
  in.lambda = ctx.node->intermeeting().lambda(ctx.now);
  in.copies = 1.0;  // epidemic: no spray tokens, A_i = R_i
  in.remaining_ttl = std::max(m.remaining_ttl(ctx.now), 0.0);
  in.m_seen = ctx.oracle->m_seen(m.id);
  in.n_holding = std::max(1.0, ctx.oracle->n_holding(m.id));
  return sdsrp::priority_eq10(in);
}

double GbsdDelayPolicy::priority(const Message& m,
                                 const PolicyContext& ctx) const {
  DTN_REQUIRE(ctx.oracle != nullptr, "gbsd-delay: registry unavailable");
  DTN_REQUIRE(ctx.n_nodes >= 2, "gbsd-delay: need at least two nodes");
  const double m_seen =
      std::min(ctx.oracle->m_seen(m.id),
               static_cast<double>(ctx.n_nodes - 1));
  const double n = std::max(1.0, ctx.oracle->n_holding(m.id));
  const double p_undelivered =
      1.0 - m_seen / static_cast<double>(ctx.n_nodes - 1);
  return p_undelivered / (n * n);
}

}  // namespace dtn
