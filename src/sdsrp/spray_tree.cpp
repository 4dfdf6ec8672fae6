#include "src/sdsrp/spray_tree.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace dtn::sdsrp {

double estimate_m_seen(const SprayTreeInputs& in) {
  DTN_REQUIRE(in.mean_min_imt > 0.0, "spray_tree: E(I_min) must be positive");
  DTN_REQUIRE(in.n_nodes >= 2, "spray_tree: need at least two nodes");
  const std::size_t n = in.spray_times.size();
  if (n == 0) return 0.0;  // source never sprayed: nobody else has seen it

  const double cap_total = static_cast<double>(in.n_nodes - 1);
  const double t_n =
      in.anchor_at_last_spray ? in.spray_times.back() : in.now;
  double m = 1.0;  // the "+1" of Eq. 15: the most recent branch counterpart
  // Eq. 15 sums k = 1 .. n-1 over the older branches.
  // Both powers of two below are exact, so std::ldexp gives the same
  // bits as dividing or multiplying by std::pow(2, ·), without the call.
  for (std::size_t k = 1; k < n; ++k) {
    const double age = t_n - in.spray_times[k - 1];
    const double ratio = std::max(age, 0.0) / in.mean_min_imt;
    // ⌊ratio⌋ doublings, capped at 60 (truncation is floor for ratio >= 0).
    const int doublings = ratio < 60.0 ? static_cast<int>(ratio) : 60;
    // Subtree budget: the branch at split k received C/2^k copies.
    const double budget =
        std::max(1.0, std::ldexp(in.initial_copies, -static_cast<int>(k)));
    const double grown = std::ldexp(1.0, doublings);
    m += std::min(grown, budget);
    if (m >= cap_total) return cap_total;
  }
  return std::min(m, cap_total);
}

double estimate_n_holding(double m_seen, double d_dropped) {
  return std::max(1.0, m_seen + 1.0 - std::max(0.0, d_dropped));
}

}  // namespace dtn::sdsrp
