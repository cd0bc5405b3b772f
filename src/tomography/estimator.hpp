// The least-squares tomography estimator — Eq. 2 of the paper, and the
// EstimatorKind::kLeastSquares implementation of the Estimator interface
// (estimator_interface.hpp, which owns the routing matrix, the QR
// factorization of R, pseudo-inverse cache and path appends shared by every
// family):
//   * estimate(y)        — x̂ = (RᵀR)⁻¹Rᵀ y, one solve against the base
//                          class's kept QR factorization (R is factored once
//                          per estimator, not per call),
//   * pseudo_inverse()   — G = R⁺, cached; the attack LPs are linear in G,
//   * residual(y)        — y − R x̂(y), the quantity the detector thresholds,
//   * streaming_residual — the same residual as N·(Nᵀy) through the cached
//                          left-null-space basis N, for the service shards.
// Construction fails (ok() == false) when R lacks full column rank, i.e.
// the link metrics are not identifiable from the chosen paths.

#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "robust/expected.hpp"
#include "tomography/estimator_interface.hpp"
#include "tomography/link_state.hpp"

namespace scapegoat {

class TomographyEstimator : public Estimator {
 public:
  TomographyEstimator(const Graph& g, std::vector<Path> paths);

  EstimatorKind method() const override {
    return EstimatorKind::kLeastSquares;
  }

  // x̂ from end-to-end measurements y (requires ok()).
  Vector estimate(const Vector& y) const override;

  // Checked estimate: kRankDeficient when the path set is not identifiable
  // (ok() == false), kDimensionMismatch when |y| ≠ |paths|. Never asserts —
  // the entry point for measurements that may be degraded or hostile.
  robust::Expected<Vector> try_estimate(const Vector& y) const override;

  // Streaming fast path: y − R·R⁺y = N·(Nᵀy) through the cached Nᵀ, whose
  // m − n rows are far fewer than G's n. No x̂, no per-batch factorization
  // (the property the service shards rely on). Agrees with residual(y) to
  // roundoff, not bitwise.
  Vector streaming_residual(const Vector& y) const override;

  std::unique_ptr<Estimator> clone() const override;

 private:
  // The kept QR's solve. Callers check the preconditions (ok(), |y|) first.
  Vector solve(const Vector& y) const;
};

}  // namespace scapegoat
