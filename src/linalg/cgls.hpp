// CGLS — conjugate gradients on the normal equations, applied to the CSR
// routing matrix without ever forming AᵀA.
//
// Solves min ‖Ax − b‖₂ for full-column-rank A. Stops when the normal-
// equation residual satisfies ‖Aᵀ(b − Ax)‖₂ ≤ tol·‖Aᵀb‖₂ or the iteration
// cap is hit. Tolerance contract (DESIGN.md §12): the answer agrees with the
// dense QR solution to a conditioning-dependent tolerance — it is NOT
// bitwise-reproducible against QR, which is why the least-squares
// estimator takes it on its own only for matrices past the size rule below.
//
// CGLS cannot detect rank deficiency: on a rank-deficient system it
// converges to *a* least-norm-ish solution without complaint. Callers must
// establish identifiability first (TomographyEstimator does, via the dense
// rank check at construction).

#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/sparse_matrix.hpp"

namespace scapegoat {

struct CglsOptions {
  // Relative tolerance on ‖Aᵀr‖ against ‖Aᵀb‖. 1e-12 pushes to near machine
  // precision so downstream detector thresholds (Eq. 23) see solver noise
  // well below the attack margins they discriminate.
  double tol = 1e-12;
  // 0 = auto: 4·cols + 100, generous for well-conditioned routing systems
  // (theory: exact in cols iterations under exact arithmetic).
  std::size_t max_iterations = 0;
};

struct CglsResult {
  Vector x;
  std::size_t iterations = 0;
  // ‖Aᵀ(b − Ax)‖ / ‖Aᵀb‖ at exit (0 when Aᵀb = 0).
  double relative_residual = 0.0;
  bool converged = false;
};

// The size rule: the least-squares estimator (tomography/estimator.hpp)
// runs CGLS instead of dense QR, unasked, once R has at least
// kCglsMinCells cells of which at most kCglsMaxDensity are nonzero.
// 1<<20 cells keeps every checked-in experiment on QR.
inline constexpr std::size_t kCglsMinCells = std::size_t{1} << 20;
inline constexpr double kCglsMaxDensity = 0.25;

// True when `a` meets the size rule.
bool cgls_preferred(const SparseMatrix& a);

// Least-squares solve via CGLS. Requires a.rows() >= a.cols() and b.size()
// == a.rows(); asserts otherwise.
CglsResult cgls_solve(const SparseMatrix& a, const Vector& b,
                      const CglsOptions& options = {});

}  // namespace scapegoat
