// Two-phase primal simplex over a condensed (Tucker) tableau.
//
// Problem sizes in this library (attack LPs on ~100-node topologies) are a
// few hundred variables by a few hundred rows, which a tableau handles
// comfortably and — more importantly for a reproduction — transparently:
// every pivot is observable and the phase-1 infeasibility certificate is the
// exact quantity Theorems 1-2 reason about ("does a feasible manipulation
// vector exist?"). The tableau stores only its nonbasic columns, in one flat
// row-major buffer: a basic column is a unit vector, so it is implied by the
// basis. Pricing breaks ties by column id, so the pivots are those of the
// full tableau.
//
// Degeneracy is handled by switching from Dantzig to Bland's rule after a
// stall, which guarantees termination.
//
// lp::solve is the entry point: it runs the tableau here (solve_tableau)
// until the estimated full tableau would reach kRevisedCellThreshold cells,
// and the factorized revised simplex (revised_simplex.hpp) from there on.
// The choice is made from the model's size alone; callers that must pin one
// solver — differential tests, benchmarks — call solve_tableau or
// solve_revised directly. Both refuse a model that is not well_formed() with
// kInfeasible, before building anything from it.

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

// lp::solve's switchover point, in estimated full-tableau cells: rows
// including per-variable bound rows × columns including slacks and
// artificials (the condensed tableau stores fewer; the rule is kept as is). Small LPs keep the transparent tableau, large attack LPs get
// the factorized basis.
inline constexpr std::size_t kRevisedCellThreshold = std::size_t{1} << 18;

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;        // in the model's original sense
  std::vector<double> x;         // values of the model's variables
  std::size_t iterations = 0;    // total pivots over both phases
  // Tableau basis at exit (basis[i] = column basic in row i) — on
  // kIterationLimit this is the certificate of where the solver stopped:
  // together with x (the basic point, feasible only if phase 1 finished) a
  // caller can audit or warm-start instead of facing an empty result.
  std::vector<std::size_t> basis;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

// Tolerances shared by both solvers. They decide the feasibility verdicts
// Theorems 1-2 reason about, so they are fixed, not per-solve options.
inline constexpr double kPivotTol = 1e-9;  // entries below this can't be pivots
inline constexpr double kCostTol = 1e-7;   // reduced-cost optimality tolerance
// Phase-1 objective below this ⇒ feasible.
inline constexpr double kFeasTol = 1e-6;

// The only per-solve option. Wall time is bounded by the ambient
// robust::ScopedTrialDeadline alone (kTimeLimit; DESIGN.md §10).
struct SimplexOptions {
  std::size_t max_iterations = 50'000;
};

Solution solve(const Model& model, const SimplexOptions& options = {});

// The tableau solver, whatever the model's size.
Solution solve_tableau(const Model& model, const SimplexOptions& options = {});

}  // namespace scapegoat::lp
