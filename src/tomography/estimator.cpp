#include "tomography/estimator.hpp"

#include <cassert>
#include <string>

#include "linalg/cgls.hpp"
#include "obs/obs.hpp"

namespace scapegoat {

TomographyEstimator::TomographyEstimator(const Graph& g,
                                         std::vector<Path> paths)
    : Estimator(g, std::move(paths)) {}

robust::Expected<Vector> TomographyEstimator::solve(const Vector& y) const {
  if (cgls_preferred(sparse_r())) {
    CglsResult cg = cgls_solve(sparse_r(), y);
    if (cg.converged) {
      obs::count("tomography.estimate.sparse");
      return std::move(cg.x);
    }
    // Rare: stalled CGLS (extreme conditioning). QR is always available.
    obs::count("tomography.estimate.cgls_fallback");
  }
  obs::count("tomography.estimate.dense");
  return factorization().solve(y);
}

Vector TomographyEstimator::estimate(const Vector& y) const {
  assert(ok());
  assert(y.size() == num_paths());
  robust::Expected<Vector> x = solve(y);
  assert(x.ok());  // guaranteed by ok()
  return std::move(*x);
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

Vector TomographyEstimator::streaming_estimate(const Vector& y) const {
  return pseudo_inverse() * y;
}

std::unique_ptr<Estimator> TomographyEstimator::clone() const {
  return std::make_unique<TomographyEstimator>(*this);
}

}  // namespace scapegoat
