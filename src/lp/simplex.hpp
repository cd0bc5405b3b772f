// Two-phase primal simplex over a condensed (Tucker) bounded-variable
// tableau.
//
// Problem sizes in this library (attack LPs on ~100-node topologies) are a
// few hundred variables by a few hundred rows, which a tableau handles
// comfortably and — more importantly for a reproduction — transparently:
// every pivot is observable and the phase-1 infeasibility certificate is the
// exact quantity Theorems 1-2 reason about ("does a feasible manipulation
// vector exist?").
//
// The tableau has one row per model constraint. A doubly-bounded variable,
// such as a manipulation 0 ≤ mᵢ ≤ cap, keeps its lower-bound shift and gets
// a range u = upper − lower instead of a row of its own. A ranged row
// lower ≤ aᵀx ≤ upper with lower < upper gets one slack s ∈ [lower, upper],
// shifted like a variable (s = lower + s′ when lower is finite, else
// s = upper − s′), so s′ has the range upper − lower and a two-sided row
// such as 0 ≤ rᵢΔx̂ ≤ cap costs one row, not two. The slack starts basic
// when its start value (every structural column at 0) lies in its range,
// strictly above 0 when lower-shifted; otherwise it starts nonbasic at 0,
// or reflected at its range when it starts above it, and the row gets a
// phase-1 artificial. An equality row (lower == upper) has no slack, only
// an artificial. Each nonbasic
// column sits at 0 or at its range; a column at 0 may enter when its reduced
// cost is below −kCostTol, one at its range when it is above +kCostTol. The
// ratio test lets a basic column block at 0 or at its range, and the
// entering column block at its own range: that is a bound flip, which moves
// the column to its other bound in O(rows) with no basis change. Flips are
// counted as lp.simplex.bound_flips, not in Solution::iterations. Only the
// nonbasic columns are stored, in one flat row-major buffer: a basic column
// is a unit vector, so it is implied by the basis. Pricing breaks ties by
// column id.
//
// Degeneracy is handled by switching from Dantzig to Bland's rule after a
// stall, which guarantees termination.
//
// The tableau is never refactored while it pivots, so roundoff can move its
// basic values. An optimal point that violates the model by more than
// kRefreshTol is therefore refreshed once: the basic values, the stored
// columns and the reduced costs are recomputed from the model at the final
// basis (an LU factorization of the basis matrix, counted as
// lp.simplex.refreshes), and the pivots resume if a reduced cost now prices
// in. The ℓ1 sparse-recovery models need this; the attack LPs do not. A
// point that still violates the model by more than kFeasTol is refused
// (kIterationLimit, counted as lp.simplex.residual_refusals) rather than
// returned as kOptimal.
//
// lp::solve is the one LP solver of the library. It refuses a model that is
// not well_formed() with kInfeasible, before building anything from it.

#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace scapegoat::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  // The pivot budget ran out, or the post-solve residual check refused an
  // optimal point. The Solution carries the exit basis and point.
  kIterationLimit,
  // The ambient robust::ScopedTrialDeadline expired mid-solve. Like
  // kIterationLimit, the Solution carries the exit basis and basic point as
  // a certificate.
  kTimeLimit,
};

std::string to_string(SolveStatus status);

inline std::ostream& operator<<(std::ostream& os, SolveStatus status) {
  return os << to_string(status);
}

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;        // in the model's original sense
  std::vector<double> x;         // values of the model's variables
  std::size_t iterations = 0;    // total pivots over both phases
  // Basis at exit, one column per model row (basis[i] = column basic in
  // row i) — on kIterationLimit this is the certificate of where the solver
  // stopped: together with x (the basic point, feasible only if phase 1
  // finished) a caller can audit or warm-start instead of facing an empty
  // result.
  std::vector<std::size_t> basis;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

// Tolerances. They decide the feasibility verdicts Theorems 1-2 reason
// about, so they are fixed, not per-solve options.
inline constexpr double kPivotTol = 1e-9;  // entries below this can't be pivots
inline constexpr double kCostTol = 1e-7;   // reduced-cost optimality tolerance
// Phase-1 objective below this ⇒ feasible.
inline constexpr double kFeasTol = 1e-6;
// An optimal point that violates the model by more than this is refreshed
// from the model before it is accepted or refused.
inline constexpr double kRefreshTol = 1e-9;

// The only per-solve option. Wall time is bounded by the ambient
// robust::ScopedTrialDeadline alone (kTimeLimit; DESIGN.md §10).
struct SimplexOptions {
  std::size_t max_iterations = 50'000;
};

Solution solve(const Model& model, const SimplexOptions& options = {});

}  // namespace scapegoat::lp
