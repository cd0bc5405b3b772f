#include "tomography/sparse_recovery.hpp"

#include <cassert>
#include <cmath>
#include <ostream>
#include <string>
#include <utility>

#include "lp/model.hpp"
#include "obs/obs.hpp"

namespace scapegoat {

std::string to_string(SparseConstraint c) {
  switch (c) {
    case SparseConstraint::kEquality:
      return "equality";
    case SparseConstraint::kInfBall:
      return "inf_ball";
  }
  return "unknown";
}

std::optional<SparseConstraint> sparse_constraint_from_string(
    std::string_view s) {
  if (s == "equality") return SparseConstraint::kEquality;
  if (s == "inf_ball") return SparseConstraint::kInfBall;
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, SparseConstraint c) {
  return os << to_string(c);
}

namespace {

// Adds the split variables of x = prior + u⁺ − u⁻ to `model`:
// u⁺ⱼ = variable j ∈ [0, ∞), u⁻ⱼ = variable n+j ∈ [0, priorⱼ] — the box on
// u⁻ is what keeps x ⪰ 0 without any extra rows.
void add_split_variables(lp::Model& model, const Vector& prior,
                         double objective) {
  for (std::size_t j = 0; j < prior.size(); ++j)
    model.add_variable(0.0, lp::kInfinity, objective);
  for (std::size_t j = 0; j < prior.size(); ++j)
    model.add_variable(0.0, std::max(0.0, prior[j]), objective);
}

// Row terms of (R(u⁺ − u⁻))ᵢ for path i — R's entries on a path are all 1.
std::vector<lp::Term> path_row(const Path& path, std::size_t num_links) {
  std::vector<lp::Term> terms;
  terms.reserve(path.links.size() * 2);
  for (LinkId l : path.links) terms.push_back({l, 1.0});
  for (LinkId l : path.links) terms.push_back({num_links + l, -1.0});
  return terms;
}

}  // namespace

SparseRecoveryEstimator::SparseRecoveryEstimator(const Graph& g,
                                                 std::vector<Path> paths,
                                                 SparseRecoveryOptions options)
    : Estimator(g, std::move(paths)), options_(std::move(options)) {
  prior_ = options_.prior.empty() ? Vector(num_links()) : options_.prior;
}

robust::Expected<SparseRecoveryResult> SparseRecoveryEstimator::recover(
    const Vector& y) const {
  if (y.size() != num_paths()) {
    return robust::Error{robust::ErrorCode::kDimensionMismatch,
                         std::to_string(y.size()) + " measurements for " +
                             std::to_string(num_paths()) + " paths"};
  }
  if (prior_.size() != num_links()) {
    return robust::Error{robust::ErrorCode::kDimensionMismatch,
                         "prior has " + std::to_string(prior_.size()) +
                             " entries for " + std::to_string(num_links()) +
                             " links"};
  }

  obs::ScopedTimer timer("tomography.sparse.recover_us");
  obs::count("tomography.sparse.recoveries");

  const std::size_t n = num_links();
  // b = y − R·prior: the anomaly measurements the LP explains.
  const Vector b = y - r() * prior_;

  SparseRecoveryResult result;

  // One ℓ1 solve at ball radius eps (eps == 0 emits equality rows).
  auto solve_l1 = [&](double eps) {
    lp::Model model(lp::Sense::kMinimize);
    add_split_variables(model, prior_, 1.0);
    for (std::size_t i = 0; i < num_paths(); ++i) {
      std::vector<lp::Term> terms = path_row(paths()[i], n);
      if (terms.empty()) continue;  // zero row constrains nothing when b≈0
      if (eps == 0.0) {
        model.add_constraint(std::move(terms), lp::RowType::kEqual, b[i]);
      } else {
        model.add_constraint(terms, lp::RowType::kGreaterEqual, b[i] - eps);
        model.add_constraint(std::move(terms), lp::RowType::kLessEqual,
                             b[i] + eps);
      }
    }
    lp::Solution sol = lp::solve(model, options_.lp_options);
    result.lp_iterations += sol.iterations;
    return sol;
  };

  double eps = options_.constraint == SparseConstraint::kInfBall
                   ? std::max(0.0, options_.epsilon_ms)
                   : 0.0;
  lp::Solution sol = solve_l1(eps);

  if (sol.status == lp::SolveStatus::kInfeasible && options_.auto_relax) {
    // Chebyshev auxiliary LP: the minimal ε* making the ball non-empty.
    // Always feasible (u = 0, t = max|bᵢ|), so only solver budgets can
    // stop it.
    lp::Model cheb(lp::Sense::kMinimize);
    add_split_variables(cheb, prior_, 0.0);
    const std::size_t t_var = cheb.add_variable(0.0, lp::kInfinity, 1.0);
    for (std::size_t i = 0; i < num_paths(); ++i) {
      std::vector<lp::Term> terms = path_row(paths()[i], n);
      if (terms.empty()) continue;
      terms.push_back({t_var, -1.0});
      cheb.add_constraint(terms, lp::RowType::kLessEqual, b[i]);
      terms.back().coeff = 1.0;
      cheb.add_constraint(std::move(terms), lp::RowType::kGreaterEqual, b[i]);
    }
    lp::Solution aux = lp::solve(cheb, options_.lp_options);
    result.lp_iterations += aux.iterations;
    if (aux.optimal()) {
      obs::count("tomography.sparse.relaxed");
      result.relaxed = true;
      // Absolute + relative slack keeps the re-solve strictly feasible in
      // floating point.
      eps = std::max(eps, aux.objective * (1.0 + 1e-9) +
                              std::max(options_.relax_slack_ms, 1e-9));
      sol = solve_l1(eps);
    }
  }

  result.status = sol.status;
  result.epsilon_used = eps;
  if (!sol.optimal()) {
    obs::count("tomography.sparse.failed");
    if (sol.status == lp::SolveStatus::kInfeasible) {
      return robust::Error{
          robust::ErrorCode::kInvalidInput,
          "no nonnegative sparse explanation within epsilon = " +
              std::to_string(eps)};
    }
    return robust::Error{robust::ErrorCode::kIterationLimit,
                         "recovery LP stopped: " + lp::to_string(sol.status)};
  }

  result.objective = sol.objective;
  result.x = Vector(n);
  for (std::size_t j = 0; j < n; ++j) {
    result.x[j] = prior_[j] + sol.x[j] - sol.x[n + j];
    if (std::abs(result.x[j] - prior_[j]) > options_.support_tol_ms)
      result.support.push_back(j);
  }
  obs::observe("tomography.sparse.support_size",
               static_cast<double>(result.support.size()));
  return result;
}

Vector SparseRecoveryEstimator::estimate(const Vector& y) const {
  auto rec = recover(y);
  if (!rec.ok()) {
    // Unreachable with auto_relax on and a correctly-sized y; the prior is
    // the only defensible total answer otherwise.
    assert(false && "sparse recovery failed; returning the prior");
    obs::count("tomography.sparse.estimate_failed");
    return prior_;
  }
  return std::move(rec->x);
}

robust::Expected<Vector> SparseRecoveryEstimator::try_estimate(
    const Vector& y) const {
  auto rec = recover(y);
  if (!rec.ok()) return rec.error();
  return std::move(rec->x);
}

double SparseRecoveryEstimator::residual_statistic(const Vector& y) const {
  const Vector res = residual(y);
  const double eps = options_.constraint == SparseConstraint::kInfBall
                         ? std::max(0.0, options_.epsilon_ms)
                         : 0.0;
  double excess = 0.0;
  for (double ri : res) {
    const double over = std::abs(ri) - eps;
    if (over > 0.0) excess += over;
  }
  return excess;
}

std::unique_ptr<Estimator> SparseRecoveryEstimator::clone() const {
  return std::make_unique<SparseRecoveryEstimator>(*this);
}

}  // namespace scapegoat
