#include "robust/degraded.hpp"

#include <cmath>

#include "linalg/conditioning.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/qr.hpp"

namespace scapegoat::robust {

std::size_t DegradedMeasurement::num_measured() const {
  std::size_t n = 0;
  for (bool m : measured)
    if (m) ++n;
  return n;
}

double DegradedMeasurement::measured_fraction() const {
  return measured.empty()
             ? 0.0
             : static_cast<double>(num_measured()) / measured.size();
}

DegradedMeasurement DegradedMeasurement::all_measured(Vector y) {
  DegradedMeasurement m;
  m.measured.assign(y.size(), true);
  m.y = std::move(y);
  return m;
}

std::string to_string(SolveMethod method) {
  switch (method) {
    case SolveMethod::kFullRank:
      return "full_rank";
    case SolveMethod::kRegularizedFallback:
      return "regularized_fallback";
  }
  return "unknown";
}

std::optional<SolveMethod> solve_method_from_string(std::string_view s) {
  for (SolveMethod m :
       {SolveMethod::kFullRank, SolveMethod::kRegularizedFallback}) {
    if (to_string(m) == s) return m;
  }
  return std::nullopt;
}

Expected<DegradedEstimate> degraded_estimate(const SparseMatrix& r,
                                             const DegradedMeasurement& m,
                                             const DegradedOptions& opt) {
  if (m.measured.size() != r.rows() || m.y.size() != r.rows()) {
    return Error{ErrorCode::kDimensionMismatch,
                 "measurement mask/vector must have one entry per path row"};
  }
  if (opt.prior != nullptr && opt.prior->size() != r.cols()) {
    return Error{ErrorCode::kDimensionMismatch,
                 "prior must have one entry per link"};
  }
  if (r.cols() == 0) {
    return Error{ErrorCode::kEmptyInput, "routing matrix has no links"};
  }
  // The rows of (r, y) where the measurement actually exists.
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < m.measured.size(); ++i)
    if (m.measured[i]) kept.push_back(i);
  if (kept.empty()) {
    return Error{ErrorCode::kEmptyInput, "no measured paths survive"};
  }
  const Matrix rk = r.select_rows(kept).to_dense();
  Vector yk(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) yk[i] = m.y[kept[i]];

  DegradedEstimate est;
  est.paths_used = rk.rows();
  // One pivoted factorization of the reduced system serves both the rank
  // and the full-rank solve.
  const QrDecomposition qr(rk, QrDecomposition::Pivoting::kColumn);
  est.rank = qr.rank();

  // Full-rank certification via the conditioning diagnostic: it succeeds
  // exactly when the reduced RᵀR is SPD, i.e. the drop left the link
  // metrics identifiable, and reports κ for observability either way.
  if (est.rank == rk.cols() && rk.rows() >= rk.cols()) {
    if (auto cond = estimate_condition(rk)) {
      est.x = qr.solve(yk);
      est.method = SolveMethod::kFullRank;
      est.condition = cond->condition();
      return est;
    }
  }

  // Rank-deficient (or numerically untrustworthy) drop: ridge fallback,
  // defined for any shape since λ > 0.
  constexpr double kRidgeLambda = 1e-3;
  auto fallback = ridge_least_squares(rk, yk, kRidgeLambda, opt.prior);
  if (!fallback.ok()) return fallback.error();
  est.x = std::move(*fallback);
  est.method = SolveMethod::kRegularizedFallback;
  est.condition = 0.0;
  return est;
}

Expected<double> degraded_residual_norm1(const SparseMatrix& r,
                                         const DegradedMeasurement& m,
                                         const Vector& x) {
  if (m.measured.size() != r.rows() || m.y.size() != r.rows()) {
    return Error{ErrorCode::kDimensionMismatch,
                 "measurement mask/vector must have one entry per path row"};
  }
  if (x.size() != r.cols()) {
    return Error{ErrorCode::kDimensionMismatch,
                 "estimate must have one entry per link column"};
  }
  double acc = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    if (!m.measured[i]) continue;
    double predicted = 0.0;  // R's structural zeros add nothing
    for (std::size_t p = r.row_begin(i); p < r.row_end(i); ++p)
      predicted += r.values()[p] * x[r.col_index()[p]];
    acc += std::abs(m.y[i] - predicted);
    ++used;
  }
  if (used == 0) {
    return Error{ErrorCode::kEmptyInput, "no measured paths survive"};
  }
  return acc;
}

}  // namespace scapegoat::robust
