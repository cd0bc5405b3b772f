// Estimation from partially-measured path sets.
//
// When probes are lost, time out, or a monitor is down, some rows of the
// measurement vector y′ never materialize. This module makes that a
// first-class state: `DegradedMeasurement` carries the per-path measured
// mask, and `degraded_estimate` solves the tomography system on the rows
// that survive (R arrives in CSR form; only the surviving rows are made
// dense, for the solve) —
//   * full column rank after the drop  → ordinary QR least squares
//     (certified by linalg/conditioning, whose condition estimate is
//     reported for observability),
//   * rank deficient                   → Tikhonov fallback
//     (RᵀR + λI)⁻¹(Rᵀy + λ·prior), the minimum-norm-flavoured regularized
//     solve that stays defined on under-determined systems,
//   * nothing measured / shape errors  → a structured Error, never a crash.

#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse_matrix.hpp"
#include "robust/expected.hpp"

namespace scapegoat::robust {

// A per-path measurement vector where entries may be missing. Entries of
// `y` with `measured[i] == false` are meaningless and must not be read.
struct DegradedMeasurement {
  Vector y;
  std::vector<bool> measured;

  std::size_t num_measured() const;
  double measured_fraction() const;
  bool complete() const { return num_measured() == measured.size(); }

  // A fully-measured vector (the lossless fast path).
  static DegradedMeasurement all_measured(Vector y);
};

enum class SolveMethod {
  kFullRank,             // QR on the surviving rows
  kRegularizedFallback,  // ridge solve after rank deficiency was detected
};

std::string to_string(SolveMethod method);
std::optional<SolveMethod> solve_method_from_string(std::string_view s);

inline std::ostream& operator<<(std::ostream& os, SolveMethod method) {
  return os << to_string(method);
}

struct DegradedOptions {
  const Vector* prior = nullptr;  // fallback shrinks toward this (default 0)
};

struct DegradedEstimate {
  Vector x;
  SolveMethod method = SolveMethod::kFullRank;
  std::size_t paths_used = 0;  // rows that survived the drop
  std::size_t rank = 0;        // numerical rank of the reduced R
  double condition = 0.0;      // κ(reduced R); 0 when rank deficient
};

// Drops unmeasured rows from (r, m.y) and solves what remains. Errors:
//   kDimensionMismatch — m does not have one entry per row of r, or
//                        opt.prior does not have one entry per link,
//   kEmptyInput        — no measured rows at all,
//   kIllConditioned    — even the regularized fallback failed to factor.
Expected<DegradedEstimate> degraded_estimate(const SparseMatrix& r,
                                             const DegradedMeasurement& m,
                                             const DegradedOptions& opt = {});

// ‖(y − R x)|measured‖₁ — the detector statistic restricted to rows that
// were actually observed. Same error conditions as degraded_estimate.
Expected<double> degraded_residual_norm1(const SparseMatrix& r,
                                         const DegradedMeasurement& m,
                                         const Vector& x);

}  // namespace scapegoat::robust
