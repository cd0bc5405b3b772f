// The least-squares tomography estimator — Eq. 2 of the paper, and the
// EstimatorKind::kLeastSquares implementation of the Estimator interface
// (estimator_interface.hpp, which owns the routing matrix, the QR
// factorization of R, pseudo-inverse cache and path appends shared by every
// family):
//   * estimate(y)        — x̂ = (RᵀR)⁻¹Rᵀ y, one solve against the base
//                          class's kept QR factorization (R is factored once
//                          per estimator, not per call),
//   * pseudo_inverse()   — G = R⁺, cached; the attack LPs are linear in G,
//   * residual(y)        — y − R x̂(y), the quantity the detector thresholds.
// Construction fails (ok() == false) when R lacks full column rank, i.e.
// the link metrics are not identifiable from the chosen paths.
//
// Solver choice (DESIGN.md §12): the solve runs iterative CGLS over the CSR
// form of R when LeastSquaresMethod::kCgls is asked for or R meets the
// size rule beside cgls_solve (linalg/cgls.hpp), and falls back to the kept
// QR if CGLS fails to converge. Identifiability is always established by
// that QR — CGLS cannot detect rank deficiency.

#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "robust/expected.hpp"
#include "tomography/estimator_interface.hpp"
#include "tomography/link_state.hpp"

namespace scapegoat {

class TomographyEstimator : public Estimator {
 public:
  TomographyEstimator(const Graph& g, std::vector<Path> paths,
                      LeastSquaresMethod method = LeastSquaresMethod::kQr);

  EstimatorKind method() const override {
    return EstimatorKind::kLeastSquares;
  }

  // The least-squares kernel asked for; R's size may still send estimate()
  // to CGLS (see above).
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
  // The CGLS solution when the solver choice above picks CGLS and it
  // converges; otherwise the dense solve of method_. Callers check the
  // preconditions (ok(), |y|) first.
  robust::Expected<Vector> solve(const Vector& y) const;

  LeastSquaresMethod method_;
};

}  // namespace scapegoat
