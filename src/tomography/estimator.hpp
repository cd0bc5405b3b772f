// The least-squares tomography estimator — Eq. 2 of the paper, and the
// EstimatorKind::kLeastSquares implementation of the Estimator interface
// (estimator_interface.hpp, which owns the routing matrix, backend routing,
// the QR factorization of R, pseudo-inverse cache and path appends shared
// by every family):
//   * estimate(y)        — x̂ = (RᵀR)⁻¹Rᵀ y, one solve against the base
//                          class's kept QR factorization (R is factored once
//                          per estimator, not per call),
//   * pseudo_inverse()   — G = R⁺, cached; the attack LPs are linear in G,
//   * residual(y)        — y − R x̂(y), the quantity the detector thresholds.
// Construction fails (ok() == false) when R lacks full column rank, i.e.
// the link metrics are not identifiable from the chosen paths.
//
// Backend routing (DESIGN.md §12): R is held both dense and in CSR form.
// Products (R·x̂ in residual) resolve through BackendPolicy at call time and
// are bitwise-identical either way; the least-squares solve itself switches
// to iterative CGLS only when the policy's solver threshold says so (or a
// ScopedBackendOverride forces it), falling back to dense QR if CGLS fails
// to converge. Identifiability is always established densely — CGLS cannot
// detect rank deficiency.

#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/backend.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "robust/expected.hpp"
#include "tomography/estimator_interface.hpp"
#include "tomography/link_state.hpp"

namespace scapegoat {

class TomographyEstimator : public Estimator {
 public:
  TomographyEstimator(const Graph& g, std::vector<Path> paths,
                      LeastSquaresMethod method = LeastSquaresMethod::kQr,
                      BackendPolicy backend = {});

  EstimatorKind method() const override {
    return EstimatorKind::kLeastSquares;
  }

  // Which least-squares kernel estimate() uses when the backend policy does
  // not force CGLS.
  LeastSquaresMethod solver() const { return method_; }

  // x̂ from end-to-end measurements y (requires ok()).
  Vector estimate(const Vector& y) const override;

  // Checked estimate: kRankDeficient when the path set is not identifiable
  // (ok() == false), kDimensionMismatch when |y| ≠ |paths|. Never asserts —
  // the entry point for measurements that may be degraded or hostile.
  robust::Expected<Vector> try_estimate(const Vector& y) const override;

  // Streaming fast path: x̂ = G·y through the cached pseudo-inverse — no
  // per-batch factorization (the property the service shards rely on).
  Vector streaming_estimate(const Vector& y) const override;

  std::unique_ptr<Estimator> clone() const override;

 private:
  // Resolved per call; true when the solver should go through CGLS.
  bool solve_iteratively() const;

  LeastSquaresMethod method_;
};

}  // namespace scapegoat
