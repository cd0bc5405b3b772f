// Compressive-sensing tomography — the EstimatorKind::kSparseRecovery
// family (FRANTIC, arXiv:1312.0825; expander-graph delay estimation,
// arXiv:1106.0941).
//
// Model: link delays are a k-sparse anomaly over a known prior,
// x = x_prior + Δ with few nonzero Δ. Recovery is the ℓ1 relaxation
//
//   min ‖x − x_prior‖₁   s.t.   ‖Rx − y‖∞ ≤ ε,     x ⪰ 0
//
// with ε = max(0, epsilon_ms); at ε = 0 the ball is the equality Rx = y and
// the LP carries equality rows.
//
// solved as a bounded-variable LP through lp::solve: the split
// x = x_prior + u⁺ − u⁻ with u⁺ ∈ [0, ∞), u⁻ ∈ [0, x_priorⱼ] makes the
// objective Σ(u⁺ + u⁻) linear and enforces x ⪰ 0 purely through variable
// boxes — ranges of the bounded-variable tableau, not rows of it. These
// are the models whose optimum the tableau refreshes from the model when
// roundoff has moved its basic values (lp/simplex.hpp, kRefreshTol).
// Unlike least squares this needs no identifiability: with m < n paths the
// LP still returns the ℓ1-sparsest nonnegative explanation, which is the
// whole point of the compressive-sensing regime.
//
// When no feasible x exists at the configured ε (hostile measurements — the
// scapegoating setting — or ε chosen below the noise floor) and auto_relax
// is on, a Chebyshev auxiliary LP (min t s.t. ‖Rx − y‖∞ ≤ t, x ⪰ 0) finds
// the minimal feasible ε*, recovery re-solves at ε* + slack, and the result
// carries relaxed = true with the realized ε — so estimate() stays total
// while the relaxation remains visible to the detector:
//
// Eq. 23 compatibility: residual(y) = y − R·estimate(y) as everywhere, but
// residual_statistic subtracts the defender's own noise allowance,
// Σᵢ max(0, |rᵢ| − ε). Within-ball discrepancies are "explained noise" (the
// ℓ1 objective deliberately parks rows at the ball boundary, so raw ‖r‖₁
// carries a floor of up to m·ε even on honest data); anything beyond ε per
// path is an inconsistency the sparsity model cannot absorb and counts
// toward the α threshold in full.

#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "lp/simplex.hpp"
#include "robust/expected.hpp"
#include "tomography/estimator_interface.hpp"

namespace scapegoat {

struct SparseRecoveryOptions {
  double epsilon_ms = 0.0;  // ball radius ε (per-path, ms); ≤ 0 is Rx = y
  // ℓ1 anchor x_prior; empty means zeros. Must match num_links otherwise.
  Vector prior;
  // On an infeasible LP, find the minimal feasible ε* via the Chebyshev
  // auxiliary LP and re-solve at ε* + kRelaxSlackMs (sparse_recovery.cpp).
  bool auto_relax = true;
};

struct SparseRecoveryResult {
  Vector x;                      // recovered link metrics (⪰ 0)
  std::vector<LinkId> support;   // links with |x − prior| > 1e-6 ms
  double objective = 0.0;        // realized ‖x − prior‖₁ per the LP
  double epsilon_used = 0.0;     // ball radius of the accepted solve
  bool relaxed = false;          // true iff the Chebyshev fallback fired
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  std::size_t lp_iterations = 0;  // simplex iterations, all solves summed
};

class SparseRecoveryEstimator : public Estimator {
 public:
  SparseRecoveryEstimator(const Graph& g, std::vector<Path> paths,
                          SparseRecoveryOptions options = {});

  EstimatorKind method() const override {
    return EstimatorKind::kSparseRecovery;
  }

  const SparseRecoveryOptions& options() const { return options_; }
  // The materialized prior (zeros when options().prior was empty).
  const Vector& prior() const { return prior_; }

  // Full recovery diagnostics: the estimate plus support set, realized ε,
  // relaxation flag and LP telemetry. kDimensionMismatch on a wrong-width
  // y or prior; kInvalidInput when the LP is infeasible and auto_relax is
  // off; kIterationLimit when the simplex hits its budget.
  robust::Expected<SparseRecoveryResult> recover(const Vector& y) const;

  // recover(y).x. With auto_relax (the default) this is total for any
  // correctly-sized y; on a failed recovery it falls back to the prior
  // (asserting in debug builds).
  Vector estimate(const Vector& y) const override;

  robust::Expected<Vector> try_estimate(const Vector& y) const override;

  // Σᵢ max(0, |rᵢ| − ε): the inconsistency the sparsity model cannot
  // explain (see file comment).
  double residual_statistic(const Vector& y) const override;

  std::unique_ptr<Estimator> clone() const override;

 private:
  SparseRecoveryOptions options_;
  Vector prior_;  // options_.prior resolved to full width
};

}  // namespace scapegoat
