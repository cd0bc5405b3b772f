#include "detect/detector.hpp"

#include "obs/obs.hpp"

namespace scapegoat {

DetectionOutcome detect_scapegoating(const Estimator& estimator,
                                     const Vector& y_observed,
                                     const DetectorOptions& opt) {
  DetectionOutcome out;
  out.residual_norm1 = estimator.residual_statistic(y_observed);
  out.detected = out.residual_norm1 > opt.alpha;
  obs::count("detect.checks");
  if (out.detected) obs::count("detect.alarms");
  obs::observe("detect.residual_norm1", out.residual_norm1);
  return out;
}

robust::Expected<DegradedDetectionOutcome> detect_scapegoating_degraded(
    const Estimator& estimator,
    const robust::DegradedMeasurement& y_observed, const DetectorOptions& opt,
    const robust::DegradedOptions& solve_opt) {
  const SparseMatrix& r = estimator.sparse_r();
  auto est = robust::degraded_estimate(r, y_observed, solve_opt);
  if (!est.ok()) return est.error();
  auto residual = robust::degraded_residual_norm1(r, y_observed, est->x);
  if (!residual.ok()) return residual.error();

  DegradedDetectionOutcome out;
  out.residual_norm1 = *residual;
  out.detected = out.residual_norm1 > opt.alpha;
  out.paths_used = est->paths_used;
  out.method = est->method;
  obs::count("detect.degraded.checks");
  if (out.detected) obs::count("detect.degraded.alarms");
  obs::observe("detect.degraded.residual_norm1", out.residual_norm1);
  return out;
}

}  // namespace scapegoat
