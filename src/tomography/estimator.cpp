#include "tomography/estimator.hpp"

#include <cassert>
#include <string>

#include "obs/obs.hpp"

namespace scapegoat {

TomographyEstimator::TomographyEstimator(const Graph& g,
                                         std::vector<Path> paths)
    : Estimator(g, std::move(paths)) {}

Vector TomographyEstimator::solve(const Vector& y) const {
  obs::count("tomography.estimate.dense");
  return factorization().solve(y);
}

Vector TomographyEstimator::estimate(const Vector& y) const {
  assert(ok());
  assert(y.size() == num_paths());
  return solve(y);
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
  return solve(y);
}

Vector TomographyEstimator::streaming_residual(const Vector& y) const {
  assert(y.size() == num_paths());
  const Matrix& nt = left_null_basis();
  const std::size_t m = y.size();
  Vector r(m);
  for (std::size_t k = 0; k < nt.rows(); ++k) {
    double t = 0.0;
    for (std::size_t j = 0; j < m; ++j) t += nt(k, j) * y[j];
    for (std::size_t j = 0; j < m; ++j) r[j] += t * nt(k, j);
  }
  return r;
}

std::unique_ptr<Estimator> TomographyEstimator::clone() const {
  return std::make_unique<TomographyEstimator>(*this);
}

}  // namespace scapegoat
