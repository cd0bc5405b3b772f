#include "detect/localize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/least_squares.hpp"

namespace scapegoat {

namespace {

// Least squares restricted to the `kept` rows; nullopt if those rows no
// longer identify all links.
std::optional<Vector> restricted_estimate(const SparseMatrix& r,
                                          const Vector& y,
                                          const std::vector<bool>& kept,
                                          std::size_t kept_count) {
  if (kept_count < r.cols()) return std::nullopt;
  std::vector<std::size_t> rows;
  rows.reserve(kept_count);
  for (std::size_t i = 0; i < r.rows(); ++i)
    if (kept[i]) rows.push_back(i);
  Vector yk(kept_count);
  for (std::size_t k = 0; k < kept_count; ++k) yk[k] = y[rows[k]];
  return least_squares(r.select_rows(rows).to_dense(), yk);
}

// y_i − (R x)_i, subtracting the row's terms one by one in column order.
// Skipping R's structural zeros may only flip the sign of a zero result.
double row_residual(const SparseMatrix& r, const Vector& y, const Vector& x,
                    std::size_t i) {
  double row = y[i];
  for (std::size_t p = r.row_begin(i); p < r.row_end(i); ++p)
    row -= r.values()[p] * x[r.col_index()[p]];
  return row;
}

double restricted_residual_norm1(const SparseMatrix& r, const Vector& y,
                                 const Vector& x,
                                 const std::vector<bool>& kept) {
  double acc = 0.0;
  for (std::size_t i = 0; i < r.rows(); ++i)
    if (kept[i]) acc += std::abs(row_residual(r, y, x, i));
  return acc;
}

}  // namespace

LocalizationResult localize_manipulation(const Estimator& estimator,
                                         const Vector& y_observed,
                                         const LocalizationOptions& opt) {
  assert(estimator.ok());
  assert(y_observed.size() == estimator.num_paths());
  const SparseMatrix& r = estimator.sparse_r();

  LocalizationResult result;
  result.manipulated =
      estimator.residual(y_observed).norm1() > opt.alpha;
  if (!result.manipulated) {
    result.clean = true;
    result.x_cleaned = estimator.estimate(y_observed);
    return result;
  }

  std::vector<bool> kept(r.rows(), true);
  std::size_t kept_count = r.rows();

  for (std::size_t removal = 0; removal <= opt.max_removals; ++removal) {
    auto x = restricted_estimate(r, y_observed, kept, kept_count);
    if (!x) break;  // lost identifiability — cannot localize further
    const double resid =
        restricted_residual_norm1(r, y_observed, *x, kept);
    if (resid <= opt.alpha) {
      result.clean = true;
      result.x_cleaned = std::move(*x);
      break;
    }
    if (removal == opt.max_removals) break;

    // Drop the kept row with the largest absolute residual.
    std::size_t worst = r.rows();
    double worst_val = -1.0;
    for (std::size_t i = 0; i < r.rows(); ++i) {
      if (!kept[i]) continue;
      const double row = std::abs(row_residual(r, y_observed, *x, i));
      if (row > worst_val) {
        worst_val = row;
        worst = i;
      }
    }
    if (worst == r.rows()) break;
    kept[worst] = false;
    --kept_count;
    result.suspicious_paths.push_back(worst);
  }
  std::sort(result.suspicious_paths.begin(), result.suspicious_paths.end());

  // Suspect nodes: intersection of the suspicious paths' node sets.
  if (!result.suspicious_paths.empty()) {
    const auto& paths = estimator.paths();
    std::vector<NodeId> common =
        paths[result.suspicious_paths.front()].nodes;
    std::sort(common.begin(), common.end());
    for (std::size_t k = 1; k < result.suspicious_paths.size(); ++k) {
      std::vector<NodeId> nodes = paths[result.suspicious_paths[k]].nodes;
      std::sort(nodes.begin(), nodes.end());
      std::vector<NodeId> merged;
      std::set_intersection(common.begin(), common.end(), nodes.begin(),
                            nodes.end(), std::back_inserter(merged));
      common = std::move(merged);
      if (common.empty()) break;
    }
    result.suspect_nodes = std::move(common);
  }
  return result;
}

}  // namespace scapegoat
