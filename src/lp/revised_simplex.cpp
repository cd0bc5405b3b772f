#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "robust/watchdog.hpp"

namespace scapegoat::lp {
namespace {

constexpr std::size_t kWatchdogStride = 64;
// Basis changes between LU refreshes: long enough to amortize the O(m³)
// factorization, short enough that eta-file drift stays below kFeasTol.
constexpr std::size_t kRefactorStride = 64;
constexpr std::size_t kStallLimit = 200;  // matches the tableau's Bland trip

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class ColState { kBasic, kAtLower, kAtUpper };

// One sparse column of the standard-form constraint matrix.
struct SparseCol {
  std::vector<std::size_t> row;
  std::vector<double> coeff;
};

// Product-form eta: replacing basic row `r` with a column whose FTRAN image
// was `w` multiplies B by an identity-with-column-r-replaced-by-w factor.
struct Eta {
  std::size_t r;
  std::vector<double> w;
};

class RevisedSimplex {
 public:
  RevisedSimplex(const Model& model, const SimplexOptions& opt);
  Solution run();

 private:
  enum class StepResult { kPivoted, kOptimal, kUnbounded };

  void refactorize();
  Vector ftran(const Vector& v) const;
  Vector btran(const Vector& v) const;
  StepResult step(bool phase1, bool bland);
  double objective(bool phase1) const;
  std::vector<double> extract_model_solution() const;
  SolveStatus optimize(bool phase1);
  Solution finish(Solution sol, SolveStatus status);

  const Model& model_;
  const SimplexOptions& opt_;

  std::size_t m_ = 0;           // rows (model constraints)
  std::size_t n_ = 0;           // structural columns (model variables)
  std::size_t num_cols_ = 0;    // structural + slack + artificial
  std::size_t first_artificial_ = 0;

  std::vector<SparseCol> cols_;
  std::vector<double> lower_, upper_;  // per column
  std::vector<double> cost_;           // phase-2 cost (minimization form)
  std::vector<double> rhs_;

  std::vector<std::size_t> basis_;  // basis_[i] = column basic in row i
  std::vector<ColState> state_;     // per column
  std::vector<double> value_;       // per column; basic entries tracked live

  LuDecomposition lu_{Matrix(0, 0)};    // of B0
  LuDecomposition lu_t_{Matrix(0, 0)};  // of B0ᵀ (BTRAN without a
                                        // transpose-solve API on lu.hpp)
  std::vector<Eta> etas_;
  std::size_t pivots_since_refactor_ = 0;

  std::size_t iterations_ = 0;

  // The calling trial's ambient deadline, polled every kWatchdogStride pivots.
  const robust::Watchdog* deadline_ = robust::ScopedTrialDeadline::current();
};

RevisedSimplex::RevisedSimplex(const Model& model, const SimplexOptions& opt)
    : model_(model),
      opt_(opt) {
  m_ = model.num_constraints();
  n_ = model.num_variables();

  // Structural columns carry the model's own bounds — no shifts, no splits,
  // no bound rows; extraction is x[j] = value_[j] verbatim.
  const double sense = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  cols_.resize(n_ + m_);
  lower_.assign(n_ + m_, 0.0);
  upper_.assign(n_ + m_, 0.0);
  cost_.assign(n_ + m_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    const Variable& v = model.variable(j);
    lower_[j] = v.lower;
    upper_[j] = v.upper;
    cost_[j] = sense * v.objective;
  }
  rhs_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const Constraint& c = model.constraint(i);
    rhs_[i] = c.rhs;
    for (const Term& t : c.terms) {
      SparseCol& col = cols_[t.var];
      // Merge duplicate terms on the same row so each column stays a clean
      // (row, coeff) list.
      if (!col.row.empty() && col.row.back() == i) {
        col.coeff.back() += t.coeff;
      } else {
        col.row.push_back(i);
        col.coeff.push_back(t.coeff);
      }
    }
    // Row slack: a_i·x + s_i = rhs_i with the slack sign encoding the sense.
    const std::size_t s = n_ + i;
    cols_[s].row.push_back(i);
    cols_[s].coeff.push_back(1.0);
    switch (c.type) {
      case RowType::kLessEqual:
        lower_[s] = 0.0;
        upper_[s] = kInf;
        break;
      case RowType::kGreaterEqual:
        lower_[s] = -kInf;
        upper_[s] = 0.0;
        break;
      case RowType::kEqual:
        lower_[s] = 0.0;
        upper_[s] = 0.0;
        break;
    }
  }

  // Initial point: structurals at their nearest finite bound (0 if free),
  // then per row either the slack absorbs the residual (slack basic) or an
  // artificial does (slack pinned at its nearest bound).
  num_cols_ = n_ + m_;
  first_artificial_ = num_cols_;
  state_.assign(num_cols_, ColState::kAtLower);
  value_.assign(num_cols_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    if (std::isfinite(lower_[j])) {
      state_[j] = ColState::kAtLower;
      value_[j] = lower_[j];
    } else if (std::isfinite(upper_[j])) {
      state_[j] = ColState::kAtUpper;
      value_[j] = upper_[j];
    } else {
      state_[j] = ColState::kAtLower;  // free: parked at 0
      value_[j] = 0.0;
    }
  }
  Vector activity(m_);
  for (std::size_t j = 0; j < n_; ++j) {
    if (value_[j] == 0.0) continue;
    const SparseCol& col = cols_[j];
    for (std::size_t k = 0; k < col.row.size(); ++k)
      activity[col.row[k]] += col.coeff[k] * value_[j];
  }
  basis_.assign(m_, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t s = n_ + i;
    const double resid = rhs_[i] - activity[i];
    if (resid >= lower_[s] && resid <= upper_[s]) {
      basis_[i] = s;
      state_[s] = ColState::kBasic;
      value_[s] = resid;
      continue;
    }
    const double pinned = std::clamp(resid, lower_[s], upper_[s]);
    state_[s] = pinned == lower_[s] ? ColState::kAtLower : ColState::kAtUpper;
    value_[s] = pinned;
    const double v = resid - pinned;
    // Artificial with coefficient sign(v) keeps its own value ≥ 0.
    const std::size_t a = num_cols_++;
    cols_.push_back({{i}, {v < 0.0 ? -1.0 : 1.0}});
    lower_.push_back(0.0);
    upper_.push_back(kInf);
    cost_.push_back(0.0);
    state_.push_back(ColState::kBasic);
    value_.push_back(std::abs(v));
    basis_[i] = a;
  }

  refactorize();
}

void RevisedSimplex::refactorize() {
  Matrix b(m_, m_);
  for (std::size_t i = 0; i < m_; ++i) {
    const SparseCol& col = cols_[basis_[i]];
    for (std::size_t k = 0; k < col.row.size(); ++k)
      b(col.row[k], i) = col.coeff[k];
  }
  lu_ = LuDecomposition(b);
  lu_t_ = LuDecomposition(b.transposed());
  etas_.clear();
  pivots_since_refactor_ = 0;
  obs::count("lp.revised.refactorizations");

  // Recompute basic values from scratch: x_B = B⁻¹(rhs − N x_N). This is the
  // drift-control step that lets the eta file run kRefactorStride pivots.
  if (!lu_.ok()) return;  // singular basis: optimize() will stop on it
  Vector r(m_);
  for (std::size_t i = 0; i < m_; ++i) r[i] = rhs_[i];
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (state_[j] == ColState::kBasic || value_[j] == 0.0) continue;
    const SparseCol& col = cols_[j];
    for (std::size_t k = 0; k < col.row.size(); ++k)
      r[col.row[k]] -= col.coeff[k] * value_[j];
  }
  const Vector xb = lu_.solve(r);
  for (std::size_t i = 0; i < m_; ++i) value_[basis_[i]] = xb[i];
}

Vector RevisedSimplex::ftran(const Vector& v) const {
  Vector x = lu_.solve(v);
  for (const Eta& e : etas_) {
    const double xr = x[e.r] / e.w[e.r];
    for (std::size_t i = 0; i < m_; ++i) x[i] -= e.w[i] * xr;
    x[e.r] = xr;
  }
  return x;
}

Vector RevisedSimplex::btran(const Vector& v) const {
  Vector z = v;
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& e = *it;
    double dot = 0.0;
    for (std::size_t i = 0; i < m_; ++i) dot += z[i] * e.w[i];
    z[e.r] = (z[e.r] - (dot - z[e.r] * e.w[e.r])) / e.w[e.r];
  }
  return lu_t_.solve(z);
}

double RevisedSimplex::objective(bool phase1) const {
  double obj = 0.0;
  if (phase1) {
    for (std::size_t j = first_artificial_; j < num_cols_; ++j)
      obj += value_[j];
  } else {
    for (std::size_t j = 0; j < n_; ++j) obj += cost_[j] * value_[j];
  }
  return obj;
}

RevisedSimplex::StepResult RevisedSimplex::step(bool phase1, bool bland) {
  // Pricing: y = B⁻ᵀ c_B, then reduced costs on eligible nonbasic columns.
  Vector cb(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t j = basis_[i];
    cb[i] = phase1 ? (j >= first_artificial_ ? 1.0 : 0.0) : cost_[j];
  }
  const Vector y = btran(cb);

  std::size_t enter = num_cols_;
  double enter_dir = 0.0;
  double best = kCostTol;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (state_[j] == ColState::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;  // fixed: can never move
    if (phase1 && j >= first_artificial_) continue;
    const double cj = phase1 ? (j >= first_artificial_ ? 1.0 : 0.0)
                             : cost_[j];
    const SparseCol& col = cols_[j];
    double ya = 0.0;
    for (std::size_t k = 0; k < col.row.size(); ++k)
      ya += y[col.row[k]] * col.coeff[k];
    const double d = cj - ya;
    // Free columns are parked kAtLower at 0 and may move either way.
    const bool is_free = !std::isfinite(lower_[j]) && !std::isfinite(upper_[j]);
    double dir = 0.0;
    if (state_[j] == ColState::kAtLower && d < -kCostTol) dir = 1.0;
    else if (state_[j] == ColState::kAtUpper && d > kCostTol) dir = -1.0;
    else if (is_free && d > kCostTol) dir = -1.0;
    if (dir == 0.0) continue;
    if (bland) {
      enter = j;
      enter_dir = dir;
      break;
    }
    if (std::abs(d) > best) {
      best = std::abs(d);
      enter = j;
      enter_dir = dir;
    }
  }
  if (enter == num_cols_) return StepResult::kOptimal;

  // FTRAN the entering column; basic values move at −dir·w per unit step.
  Vector aq(m_);
  for (std::size_t k = 0; k < cols_[enter].row.size(); ++k)
    aq[cols_[enter].row[k]] = cols_[enter].coeff[k];
  const Vector w = ftran(aq);

  // Ratio test over (a) the entering column's own range, (b) each basic
  // column hitting a finite bound. Bland tie-break on the leaving column
  // index, mirroring the tableau.
  double t_max = kInf;
  if (std::isfinite(lower_[enter]) && std::isfinite(upper_[enter]))
    t_max = upper_[enter] - lower_[enter];
  std::size_t leave = m_;        // m_ = bound flip / none
  double leave_bound = 0.0;
  for (std::size_t i = 0; i < m_; ++i) {
    const double delta = -enter_dir * w[i];
    const std::size_t bj = basis_[i];
    double limit = kInf;
    double bound = 0.0;
    if (delta < -kPivotTol && std::isfinite(lower_[bj])) {
      limit = (value_[bj] - lower_[bj]) / -delta;
      bound = lower_[bj];
    } else if (delta > kPivotTol && std::isfinite(upper_[bj])) {
      limit = (upper_[bj] - value_[bj]) / delta;
      bound = upper_[bj];
    }
    if (limit == kInf) continue;
    if (limit < 0.0) limit = 0.0;  // drift: take the degenerate step
    if (limit < t_max - kPivotTol ||
        (limit < t_max + kPivotTol && leave != m_ &&
         bj < basis_[leave])) {
      t_max = limit;
      leave = i;
      leave_bound = bound;
    }
  }
  if (t_max == kInf) return StepResult::kUnbounded;
  if (t_max <= kPivotTol) obs::count("lp.revised.degenerate_pivots");

  // Apply the step to the basic values and the entering column.
  for (std::size_t i = 0; i < m_; ++i)
    value_[basis_[i]] -= enter_dir * w[i] * t_max;
  value_[enter] += enter_dir * t_max;
  ++iterations_;

  if (leave == m_) {
    // Blocked by the entering column's opposite bound: a pure bound flip.
    state_[enter] = enter_dir > 0.0 ? ColState::kAtUpper : ColState::kAtLower;
    value_[enter] = enter_dir > 0.0 ? upper_[enter] : lower_[enter];
    obs::count("lp.revised.bound_flips");
    return StepResult::kPivoted;
  }

  const std::size_t out = basis_[leave];
  state_[out] = leave_bound == lower_[out] ? ColState::kAtLower
                                           : ColState::kAtUpper;
  value_[out] = leave_bound;  // snap exactly onto the bound it hit
  basis_[leave] = enter;
  state_[enter] = ColState::kBasic;
  etas_.push_back({leave, std::vector<double>(w.begin(), w.end())});
  if (++pivots_since_refactor_ >= kRefactorStride) refactorize();
  return StepResult::kPivoted;
}

SolveStatus RevisedSimplex::optimize(bool phase1) {
  std::size_t stall = 0;
  double last_obj = objective(phase1);
  bool bland = false;
  while (iterations_ < opt_.max_iterations) {
    if (iterations_ % kWatchdogStride == 0 && deadline_ != nullptr &&
        deadline_->expired())
      return SolveStatus::kTimeLimit;
    if (!lu_.ok()) {
      // Singular refactorized basis — numerically wedged. Surface it as an
      // iteration limit with the certificate rather than looping.
      obs::count("lp.revised.singular_basis");
      return SolveStatus::kIterationLimit;
    }
    switch (step(phase1, bland)) {
      case StepResult::kOptimal:
        return SolveStatus::kOptimal;
      case StepResult::kUnbounded:
        return SolveStatus::kUnbounded;
      case StepResult::kPivoted:
        break;
    }
    const double obj = objective(phase1);
    if (obj < last_obj - 1e-12) {
      last_obj = obj;
      stall = 0;
    } else if (++stall > kStallLimit) {
      if (!bland) obs::count("lp.revised.bland_switches");
      bland = true;
    }
  }
  return SolveStatus::kIterationLimit;
}

std::vector<double> RevisedSimplex::extract_model_solution() const {
  std::vector<double> x(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) x[j] = value_[j];
  return x;
}

Solution RevisedSimplex::finish(Solution sol, SolveStatus status) {
  sol.status = status;
  sol.iterations = iterations_;
  sol.basis = basis_;
  // Same certificate shape as the tableau: x on optimal and on budget
  // exhaustion (the basic point where the solve stopped), empty otherwise.
  if (status == SolveStatus::kOptimal || status == SolveStatus::kTimeLimit ||
      status == SolveStatus::kIterationLimit) {
    sol.x = extract_model_solution();
    sol.objective = model_.objective_value(sol.x);
  }
  return sol;
}

Solution RevisedSimplex::run() {
  Solution sol;

  if (first_artificial_ < num_cols_) {
    const SolveStatus s1 = optimize(/*phase1=*/true);
    if (s1 == SolveStatus::kIterationLimit || s1 == SolveStatus::kTimeLimit)
      return finish(sol, s1);
    if (objective(/*phase1=*/true) > kFeasTol) {
      sol.status = SolveStatus::kInfeasible;
      sol.iterations = iterations_;
      sol.basis = basis_;
      return sol;
    }
    // Pin every artificial to zero. Basic artificials may remain basic at
    // level 0 (redundant rows) exactly like the tableau's harmless leftover;
    // with lower == upper == 0 they are never eligible to move again.
    for (std::size_t j = first_artificial_; j < num_cols_; ++j) {
      upper_[j] = 0.0;
      if (std::abs(value_[j]) <= kFeasTol) value_[j] = 0.0;
      if (state_[j] != ColState::kBasic) value_[j] = 0.0;
    }
    obs::count("lp.revised.phase_transitions");
  }
  obs::count("lp.revised.phase1_iterations", iterations_);
  const std::size_t phase1_iters = iterations_;

  const SolveStatus s2 = optimize(/*phase1=*/false);
  obs::count("lp.revised.phase2_iterations", iterations_ - phase1_iters);
  return finish(sol, s2);
}

}  // namespace

Solution solve_revised(const Model& model, const SimplexOptions& options) {
  obs::ScopedTimer timer("lp.revised.solve_us");
  obs::ScopedSpan span("lp.revised.solve");

  Solution sol;
  if (!model.well_formed()) {
    sol.status = SolveStatus::kInfeasible;
  } else if (model.num_constraints() == 0) {
    // No rows → the basis is empty; each variable optimizes independently
    // over its own box.
    const double sense = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
    sol.x.assign(model.num_variables(), 0.0);
    sol.status = SolveStatus::kOptimal;
    for (std::size_t j = 0; j < model.num_variables(); ++j) {
      const Variable& v = model.variable(j);
      const double c = sense * v.objective;
      double x = 0.0;
      if (c > 0.0) x = v.lower;        // minimize: push down
      else if (c < 0.0) x = v.upper;   // push up
      else x = std::isfinite(v.lower) ? v.lower
             : std::isfinite(v.upper) ? v.upper : 0.0;
      if (!std::isfinite(x)) {
        sol.status = SolveStatus::kUnbounded;
        x = 0.0;
      }
      sol.x[j] = x;
    }
    if (sol.status == SolveStatus::kOptimal)
      sol.objective = model.objective_value(sol.x);
    else
      sol.x.clear();
  } else {
    RevisedSimplex solver(model, options);
    sol = solver.run();
  }

  obs::count("lp.revised.solves");
  obs::count("lp.revised.pivots", sol.iterations);
  obs::count(std::string("lp.revised.status.") + to_string(sol.status));
  span.attr("status", to_string(sol.status));
  span.attr("iterations", static_cast<std::uint64_t>(sol.iterations));
  return sol;
}

}  // namespace scapegoat::lp
