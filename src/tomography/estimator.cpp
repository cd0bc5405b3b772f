#include "tomography/estimator.hpp"

#include <cassert>
#include <string>

#include "linalg/cgls.hpp"
#include "obs/obs.hpp"

namespace scapegoat {

TomographyEstimator::TomographyEstimator(const Graph& g,
                                         std::vector<Path> paths,
                                         LeastSquaresMethod method,
                                         BackendPolicy backend)
    : Estimator(g, std::move(paths), backend), method_(method) {}

bool TomographyEstimator::solve_iteratively() const {
  const SparseMatrix& rs = sparse_r();
  return backend().use_iterative_solver(rs.rows(), rs.cols(), rs.nnz());
}

Vector TomographyEstimator::estimate(const Vector& y) const {
  assert(ok());
  assert(y.size() == num_paths());
  if (solve_iteratively()) {
    CglsResult cg = cgls_solve(sparse_r(), y);
    if (cg.converged) {
      obs::count("tomography.estimate.sparse");
      return cg.x;
    }
    // Rare: stalled CGLS (extreme conditioning). QR is always available.
    obs::count("tomography.estimate.cgls_fallback");
  }
  obs::count("tomography.estimate.dense");
  if (method_ == LeastSquaresMethod::kQr) return factorization().solve(y);
  auto x = least_squares(r(), y, method_);
  assert(x.has_value());  // guaranteed by ok()
  return *x;
}

robust::Expected<Vector> TomographyEstimator::try_estimate(
    const Vector& y) const {
  if (y.size() != num_paths()) {
    return robust::Error{robust::ErrorCode::kDimensionMismatch,
                         std::to_string(y.size()) + " measurements for " +
                             std::to_string(num_paths()) + " paths"};
  }
  if (!ok()) {
    return robust::Error{robust::ErrorCode::kRankDeficient,
                         "path set does not identify the link metrics"};
  }
  if (solve_iteratively()) {
    CglsResult cg = cgls_solve(sparse_r(), y);
    if (cg.converged) {
      obs::count("tomography.estimate.sparse");
      return cg.x;
    }
    obs::count("tomography.estimate.cgls_fallback");
  }
  obs::count("tomography.estimate.dense");
  if (method_ == LeastSquaresMethod::kQr) return factorization().solve(y);
  return try_least_squares(r(), y, method_);
}

Vector TomographyEstimator::streaming_estimate(const Vector& y) const {
  return pseudo_inverse() * y;
}

std::unique_ptr<Estimator> TomographyEstimator::clone() const {
  return std::make_unique<TomographyEstimator>(*this);
}

}  // namespace scapegoat
