#include "lp/simplex.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "lp/revised_simplex.hpp"
#include "obs/obs.hpp"
#include "robust/watchdog.hpp"

namespace scapegoat::lp {
namespace {

// Pivots between watchdog polls: frequent enough that an expired budget is
// noticed within microseconds of work, rare enough that the steady_clock
// read never shows up in profiles.
constexpr std::size_t kWatchdogStride = 64;

// How a model variable maps into standard-form columns.
struct VarMap {
  // x = shift + sign * col_value  (single column), or
  // x = col_plus - col_minus     (free variable split).
  std::size_t col = 0;
  std::size_t col_minus = 0;  // only used when `split`
  double shift = 0.0;
  double sign = 1.0;
  bool split = false;
};

// Dense standard-form tableau: min cᵀu s.t. T u = rhs, u ≥ 0.
class Tableau {
 public:
  Tableau(const Model& model, const SimplexOptions& opt);

  Solution run();

 private:
  enum class StepResult { kPivoted, kOptimal, kUnbounded };

  StepResult step(bool bland);
  void pivot(std::size_t row, std::size_t col);
  // Rebuilds the reduced-cost row and objective from `costs`.
  void install_costs(const std::vector<double>& costs);
  // Runs pivots until optimal/unbounded/limit; returns final status w.r.t.
  // the currently installed costs.
  SolveStatus optimize();
  bool drive_out_artificials();
  std::vector<double> extract_model_solution() const;

  const Model& model_;
  const SimplexOptions& opt_;

  std::size_t num_cols_ = 0;       // structural + slack columns
  std::size_t first_artificial_ = 0;
  std::size_t total_cols_ = 0;     // including artificials
  std::vector<VarMap> var_map_;

  std::vector<std::vector<double>> rows_;  // m rows of length total_cols_
  std::vector<double> rhs_;                // length m, kept ≥ 0 by invariant
  std::vector<std::size_t> basis_;         // basis_[i] = column basic in row i
  std::vector<double> phase2_costs_;       // length total_cols_ (0 on artificials)

  std::vector<double> d_;   // reduced costs
  double obj_ = 0.0;        // current objective (minimization form)
  std::size_t iterations_ = 0;
  bool allow_artificial_entering_ = true;

  // Cooperative budgets: the solve's own wall watchdog plus the calling
  // trial's ambient deadline, polled every kWatchdogStride pivots.
  robust::Watchdog own_watchdog_;
  const robust::Watchdog* ambient_watchdog_ = nullptr;

  bool out_of_time() const {
    return own_watchdog_.expired() ||
           (ambient_watchdog_ != nullptr && ambient_watchdog_->expired());
  }
};

Tableau::Tableau(const Model& model, const SimplexOptions& opt)
    : model_(model),
      opt_(opt),
      own_watchdog_(robust::Budget{opt.max_wall_ms, 0}),
      ambient_watchdog_(robust::ScopedTrialDeadline::current()) {
  const std::size_t n = model.num_variables();

  // 1. Assign structural columns (with shifts / splits for bounds) and
  //    collect upper-bound rows.
  var_map_.resize(n);
  std::size_t col = 0;
  struct BoundRow {
    std::size_t var;
    double range;  // upper - lower
  };
  std::vector<BoundRow> bound_rows;
  for (std::size_t j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    VarMap& m = var_map_[j];
    const bool lo_fin = std::isfinite(v.lower);
    const bool hi_fin = std::isfinite(v.upper);
    if (lo_fin) {
      m.col = col++;
      m.shift = v.lower;
      m.sign = 1.0;
      if (hi_fin) bound_rows.push_back({j, v.upper - v.lower});
    } else if (hi_fin) {
      // x = upper - u, u >= 0.
      m.col = col++;
      m.shift = v.upper;
      m.sign = -1.0;
    } else {
      m.split = true;
      m.col = col++;
      m.col_minus = col++;
    }
  }
  const std::size_t structural_cols = col;

  // 2. Build raw rows (structural part + rhs) from constraints and bound rows.
  struct RawRow {
    std::vector<double> coeffs;  // structural_cols wide
    RowType type;
    double rhs;
  };
  std::vector<RawRow> raw;
  raw.reserve(model.num_constraints() + bound_rows.size());
  for (std::size_t i = 0; i < model.num_constraints(); ++i) {
    const Constraint& c = model.constraint(i);
    RawRow r{std::vector<double>(structural_cols, 0.0), c.type, c.rhs};
    for (const Term& t : c.terms) {
      const VarMap& m = var_map_[t.var];
      if (m.split) {
        r.coeffs[m.col] += t.coeff;
        r.coeffs[m.col_minus] -= t.coeff;
      } else {
        r.coeffs[m.col] += t.coeff * m.sign;
        r.rhs -= t.coeff * m.shift;
      }
    }
    raw.push_back(std::move(r));
  }
  for (const BoundRow& b : bound_rows) {
    RawRow r{std::vector<double>(structural_cols, 0.0), RowType::kLessEqual,
             b.range};
    r.coeffs[var_map_[b.var].col] = 1.0;
    raw.push_back(std::move(r));
  }

  // 3. Normalize rhs ≥ 0, count slack and artificial columns.
  std::size_t num_slacks = 0, num_artificials = 0;
  for (RawRow& r : raw) {
    if (r.rhs < 0.0) {
      for (double& a : r.coeffs) a = -a;
      r.rhs = -r.rhs;
      if (r.type == RowType::kLessEqual)
        r.type = RowType::kGreaterEqual;
      else if (r.type == RowType::kGreaterEqual)
        r.type = RowType::kLessEqual;
    }
    switch (r.type) {
      case RowType::kLessEqual:
        ++num_slacks;  // slack enters the basis directly
        break;
      case RowType::kGreaterEqual:
        ++num_slacks;  // surplus
        ++num_artificials;
        break;
      case RowType::kEqual:
        ++num_artificials;
        break;
    }
  }

  num_cols_ = structural_cols + num_slacks;
  first_artificial_ = num_cols_;
  total_cols_ = num_cols_ + num_artificials;

  // 4. Assemble the dense tableau with identity basis.
  const std::size_t m = raw.size();
  rows_.assign(m, std::vector<double>(total_cols_, 0.0));
  rhs_.assign(m, 0.0);
  basis_.assign(m, 0);
  phase2_costs_.assign(total_cols_, 0.0);

  // Phase-2 costs: minimization form of the model objective on structural
  // columns. (Shifts contribute a constant handled at extraction time; we
  // report the objective by re-evaluating the model at the solution.)
  const double sense = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    const VarMap& mp = var_map_[j];
    if (mp.split) {
      phase2_costs_[mp.col] += sense * v.objective;
      phase2_costs_[mp.col_minus] -= sense * v.objective;
    } else {
      phase2_costs_[mp.col] += sense * v.objective * mp.sign;
    }
  }

  std::size_t slack_col = structural_cols;
  std::size_t art_col = first_artificial_;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < structural_cols; ++c)
      rows_[i][c] = raw[i].coeffs[c];
    rhs_[i] = raw[i].rhs;
    switch (raw[i].type) {
      case RowType::kLessEqual:
        rows_[i][slack_col] = 1.0;
        basis_[i] = slack_col++;
        break;
      case RowType::kGreaterEqual:
        rows_[i][slack_col] = -1.0;
        ++slack_col;
        rows_[i][art_col] = 1.0;
        basis_[i] = art_col++;
        break;
      case RowType::kEqual:
        rows_[i][art_col] = 1.0;
        basis_[i] = art_col++;
        break;
    }
  }
  assert(slack_col == num_cols_);
  assert(art_col == total_cols_);
}

void Tableau::install_costs(const std::vector<double>& costs) {
  d_ = costs;
  obj_ = 0.0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const double cb = costs[basis_[i]];
    if (cb == 0.0) continue;
    obj_ += cb * rhs_[i];
    for (std::size_t j = 0; j < total_cols_; ++j)
      d_[j] -= cb * rows_[i][j];
  }
}

void Tableau::pivot(std::size_t row, std::size_t col) {
  std::vector<double>& pr = rows_[row];
  const double piv = pr[col];
  assert(std::abs(piv) > 0.0);
  const double inv = 1.0 / piv;
  for (double& a : pr) a *= inv;
  rhs_[row] *= inv;
  pr[col] = 1.0;  // kill roundoff on the pivot itself

  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i == row) continue;
    const double f = rows_[i][col];
    if (f == 0.0) continue;
    std::vector<double>& ri = rows_[i];
    for (std::size_t j = 0; j < total_cols_; ++j) ri[j] -= f * pr[j];
    ri[col] = 0.0;
    rhs_[i] -= f * rhs_[row];
    if (rhs_[i] < 0.0 && rhs_[i] > -opt_.pivot_tol) rhs_[i] = 0.0;
  }
  const double fd = d_[col];
  if (fd != 0.0) {
    for (std::size_t j = 0; j < total_cols_; ++j) d_[j] -= fd * pr[j];
    d_[col] = 0.0;
    // Δobj = reduced cost × step length (rhs_[row] is already the
    // normalized ratio θ at this point).
    obj_ += fd * rhs_[row];
  }
  basis_[row] = col;
  ++iterations_;
}

Tableau::StepResult Tableau::step(bool bland) {
  // Entering column: negative reduced cost.
  std::size_t enter = total_cols_;
  const std::size_t limit =
      allow_artificial_entering_ ? total_cols_ : first_artificial_;
  if (bland) {
    for (std::size_t j = 0; j < limit; ++j) {
      if (d_[j] < -opt_.cost_tol) {
        enter = j;
        break;
      }
    }
  } else {
    double best = -opt_.cost_tol;
    for (std::size_t j = 0; j < limit; ++j) {
      if (d_[j] < best) {
        best = d_[j];
        enter = j;
      }
    }
  }
  if (enter == total_cols_) return StepResult::kOptimal;

  // Ratio test; Bland tie-break on the leaving basis index.
  std::size_t leave = rows_.size();
  double best_ratio = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const double a = rows_[i][enter];
    if (a <= opt_.pivot_tol) continue;
    const double ratio = rhs_[i] / a;
    if (ratio < best_ratio - opt_.pivot_tol ||
        (ratio < best_ratio + opt_.pivot_tol &&
         (leave == rows_.size() || basis_[i] < basis_[leave]))) {
      best_ratio = ratio;
      leave = i;
    }
  }
  if (leave == rows_.size()) return StepResult::kUnbounded;
  pivot(leave, enter);
  return StepResult::kPivoted;
}

SolveStatus Tableau::optimize() {
  // Dantzig until the objective stalls, then Bland (guaranteed finite).
  std::size_t stall = 0;
  double last_obj = obj_;
  bool bland = false;
  while (iterations_ < opt_.max_iterations) {
    if (iterations_ % kWatchdogStride == 0 && out_of_time())
      return SolveStatus::kTimeLimit;
    switch (step(bland)) {
      case StepResult::kOptimal:
        return SolveStatus::kOptimal;
      case StepResult::kUnbounded:
        return SolveStatus::kUnbounded;
      case StepResult::kPivoted:
        break;
    }
    if (obj_ < last_obj - 1e-12) {
      last_obj = obj_;
      stall = 0;
    } else if (++stall > 200) {
      if (!bland) obs::count("lp.simplex.bland_switches");
      bland = true;
    }
  }
  return SolveStatus::kIterationLimit;
}

bool Tableau::drive_out_artificials() {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (basis_[i] < first_artificial_) continue;
    // Basic artificial at (numerically) zero level: pivot in any usable
    // non-artificial column. If none exists the row is redundant; zero it.
    std::size_t col = total_cols_;
    for (std::size_t j = 0; j < first_artificial_; ++j) {
      if (std::abs(rows_[i][j]) > 1e-7) {
        col = j;
        break;
      }
    }
    if (col != total_cols_) {
      pivot(i, col);
    } else {
      for (double& a : rows_[i]) a = 0.0;
      rhs_[i] = 0.0;
      rows_[i][basis_[i]] = 1.0;  // keep the (harmless) artificial basic
    }
  }
  return true;
}

std::vector<double> Tableau::extract_model_solution() const {
  std::vector<double> u(total_cols_, 0.0);
  for (std::size_t i = 0; i < rows_.size(); ++i) u[basis_[i]] = rhs_[i];

  std::vector<double> x(model_.num_variables(), 0.0);
  for (std::size_t j = 0; j < model_.num_variables(); ++j) {
    const VarMap& m = var_map_[j];
    x[j] = m.split ? u[m.col] - u[m.col_minus]
                   : m.shift + m.sign * u[m.col];
  }
  return x;
}

Solution Tableau::run() {
  Solution sol;

  // Phase 1: minimize the sum of artificials.
  if (first_artificial_ < total_cols_) {
    std::vector<double> phase1(total_cols_, 0.0);
    for (std::size_t j = first_artificial_; j < total_cols_; ++j)
      phase1[j] = 1.0;
    install_costs(phase1);
    const SolveStatus s1 = optimize();
    sol.iterations = iterations_;
    if (s1 == SolveStatus::kIterationLimit || s1 == SolveStatus::kTimeLimit) {
      sol.status = s1;
      // Certificate: the basis and (not yet feasible) basic point where the
      // pivot or wall budget ran out, so the caller gets state, not a void.
      sol.basis = basis_;
      sol.x = extract_model_solution();
      sol.objective = model_.objective_value(sol.x);
      return sol;
    }
    // Phase-1 LP is bounded below by 0, so kUnbounded cannot happen.
    if (obj_ > opt_.feas_tol) {
      sol.status = SolveStatus::kInfeasible;
      sol.basis = basis_;
      return sol;
    }
    drive_out_artificials();
    obs::count("lp.simplex.phase_transitions");
  }
  obs::count("lp.simplex.phase1_iterations", iterations_);
  const std::size_t phase1_iters = iterations_;

  // Phase 2.
  allow_artificial_entering_ = false;
  install_costs(phase2_costs_);
  const SolveStatus s2 = optimize();
  obs::count("lp.simplex.phase2_iterations", iterations_ - phase1_iters);
  sol.iterations = iterations_;
  sol.status = s2;
  sol.basis = basis_;
  if (s2 != SolveStatus::kOptimal) {
    if (s2 == SolveStatus::kIterationLimit || s2 == SolveStatus::kTimeLimit) {
      // Same certificate as phase 1, but the point is primal feasible here.
      sol.x = extract_model_solution();
      sol.objective = model_.objective_value(sol.x);
    }
    return sol;
  }

  sol.x = extract_model_solution();
  sol.objective = model_.objective_value(sol.x);
  return sol;
}

}  // namespace

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration_limit";
    case SolveStatus::kTimeLimit:
      return "time_limit";
  }
  return "unknown";
}

namespace {

// Estimate of the dense tableau's footprint in cells: rows = constraints
// plus one bound row per doubly-bounded variable; columns = structurals plus
// up to a slack and an artificial per row.
std::size_t estimated_tableau_cells(const Model& model) {
  std::size_t bound_rows = 0;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    if (std::isfinite(v.lower) && std::isfinite(v.upper)) ++bound_rows;
  }
  const std::size_t rows = model.num_constraints() + bound_rows;
  const std::size_t cols = model.num_variables() + 2 * rows;
  return rows * cols;
}

}  // namespace

Solution solve(const Model& model, const SimplexOptions& options) {
  if (estimated_tableau_cells(model) >= kRevisedCellThreshold) {
    return solve_revised(model, options);
  }
  return solve_tableau(model, options);
}

Solution solve_tableau(const Model& model, const SimplexOptions& options) {
  obs::ScopedTimer timer("lp.simplex.solve_us");
  obs::ScopedSpan span("lp.simplex.solve");
  Tableau tableau(model, options);
  Solution sol = tableau.run();
  obs::count("lp.simplex.solves");
  obs::count("lp.simplex.pivots", sol.iterations);
  obs::count("lp.simplex.iterations", sol.iterations);
  switch (sol.status) {
    case SolveStatus::kOptimal:
      obs::count("lp.simplex.status.optimal");
      break;
    case SolveStatus::kInfeasible:
      obs::count("lp.simplex.status.infeasible");
      break;
    case SolveStatus::kUnbounded:
      obs::count("lp.simplex.status.unbounded");
      break;
    case SolveStatus::kIterationLimit:
      obs::count("lp.simplex.status.iteration_limit");
      break;
    case SolveStatus::kTimeLimit:
      obs::count("lp.simplex.status.time_limit");
      break;
  }
  span.attr("status", to_string(sol.status));
  span.attr("iterations", static_cast<std::uint64_t>(sol.iterations));
  return sol;
}

}  // namespace scapegoat::lp
