// Estimation of m_i(T_i) — how many nodes have seen message i — from the
// binary-spray timestamp history carried with each copy (paper Fig. 6 and
// Eq. 15):
//
//   m_i(T_i) = Σ_{k=1}^{n-1} 2^{⌊(t_n - t_k)/E(I_min)⌋} + 1
//
// where t_1..t_n are the times this copy's lineage was binary-sprayed and
// n = log2(C / C_i) is the spray-tree depth. Each subtree that branched off
// at split k is assumed to have kept doubling every E(I_min).
//
// Two physical clamps the paper leaves implicit (see DESIGN.md §4):
//   * a subtree that branched at split k received at most C/2^k copies, so
//     its infection count cannot exceed that budget;
//   * the total cannot exceed N-1 (every node but the source).
#pragma once

#include <cstddef>
#include <span>

namespace dtn::sdsrp {

struct SprayTreeInputs {
  /// Times this lineage was binary-sprayed, oldest first: a view of the
  /// rated copy's lineage, which must outlive the call.
  std::span<const double> spray_times;
  double now = 0.0;            ///< current time (fallback t_n)
  double mean_min_imt = 1.0;   ///< E(I_min)
  double initial_copies = 1.0; ///< C
  std::size_t n_nodes = 2;     ///< N (for the N-1 cap)
  /// Eq. 15 evaluates branch ages against t_n, the time of the most recent
  /// spray ("assuming that the current time is t_3"). When false, ages are
  /// measured against `now` instead — branches keep growing between
  /// contacts. The estimator-accuracy ablation compares both.
  bool anchor_at_last_spray = true;
};

/// m̂_i(T_i): estimated number of nodes (excluding the source) that have
/// seen the message. Returns 0 when the copy was never sprayed.
double estimate_m_seen(const SprayTreeInputs& in);

/// n̂_i(T_i) = m̂_i + 1 - d_i (Eq. 14), clamped to >= 1 (the evaluating
/// node itself holds a copy).
double estimate_n_holding(double m_seen, double d_dropped);

}  // namespace dtn::sdsrp
