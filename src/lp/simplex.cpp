#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

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

// Condensed (Tucker) standard-form tableau: min cᵀu s.t. T u = rhs, u ≥ 0.
// A basic column is a unit vector with a zero reduced cost, so only the
// nonbasic columns are stored: one row-major m × nn buffer, with
// nonbasic_[p] naming the column at position p as basis_[i] names the one
// basic in row i. The pivots, and so every value returned, are those of the
// full tableau; only the sign of some zero entries differs.
class Tableau {
 public:
  Tableau(const Model& model, const SimplexOptions& opt);

  Solution run();

 private:
  enum class StepResult { kPivoted, kOptimal, kUnbounded };

  double* row(std::size_t i) { return a_.data() + i * nn_; }

  StepResult step(bool bland);
  // Pivots on row `row_index` and the column stored at position `q`.
  void pivot(std::size_t row_index, std::size_t q);
  // Rebuilds the reduced costs and objective from `costs` (by column id).
  void install_costs(const std::vector<double>& costs);
  // Runs pivots until optimal/unbounded/limit; returns final status w.r.t.
  // the currently installed costs.
  SolveStatus optimize();
  void drive_out_artificials();
  // Removes the nonbasic artificial columns, which phase 2 never lets enter.
  void drop_artificial_columns();
  std::vector<double> extract_model_solution() const;

  const Model& model_;
  const SimplexOptions& opt_;

  std::size_t first_artificial_ = 0;  // structural + slack columns
  std::size_t total_cols_ = 0;        // including artificials
  std::vector<VarMap> var_map_;

  std::size_t m_ = 0;                   // rows
  std::size_t nn_ = 0;                  // stored (nonbasic) columns
  std::vector<double> a_;               // m_ × nn_, row-major
  std::vector<std::size_t> nonbasic_;   // nonbasic_[p] = column at position p
  std::vector<double> rhs_;             // length m, kept ≥ 0 by invariant
  std::vector<std::size_t> basis_;      // basis_[i] = column basic in row i
  std::vector<double> phase2_costs_;    // by column id (0 on artificials)

  std::vector<double> d_;   // reduced costs of the stored columns
  double obj_ = 0.0;        // current objective (minimization form)
  std::size_t iterations_ = 0;

  // Cooperative budget: the calling trial's ambient deadline, polled every
  // kWatchdogStride pivots.
  const robust::Watchdog* deadline_ = robust::ScopedTrialDeadline::current();
};

Tableau::Tableau(const Model& model, const SimplexOptions& opt)
    : model_(model),
      opt_(opt) {
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

  // 2. Each row's rhs after the bound shifts and its sense after making
  //    the rhs ≥ 0 (a negated row flips ≤ and ≥).
  const std::size_t num_rows = model.num_constraints();
  m_ = num_rows + bound_rows.size();
  rhs_.assign(m_, 0.0);
  std::vector<RowType> types(m_, RowType::kLessEqual);
  std::vector<bool> negated(m_, false);
  std::size_t num_slacks = 0, num_surplus = 0, num_artificials = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    if (i < num_rows) {
      const Constraint& c = model.constraint(i);
      types[i] = c.type;
      rhs_[i] = c.rhs;
      for (const Term& t : c.terms) {
        const VarMap& m = var_map_[t.var];
        if (!m.split) rhs_[i] -= t.coeff * m.shift;
      }
    } else {
      rhs_[i] = bound_rows[i - num_rows].range;
    }
    if (rhs_[i] < 0.0) {
      negated[i] = true;
      rhs_[i] = -rhs_[i];
      if (types[i] == RowType::kLessEqual)
        types[i] = RowType::kGreaterEqual;
      else if (types[i] == RowType::kGreaterEqual)
        types[i] = RowType::kLessEqual;
    }
    switch (types[i]) {
      case RowType::kLessEqual:
        ++num_slacks;  // slack enters the basis directly
        break;
      case RowType::kGreaterEqual:
        ++num_slacks;  // surplus, nonbasic
        ++num_surplus;
        ++num_artificials;
        break;
      case RowType::kEqual:
        ++num_artificials;
        break;
    }
  }

  first_artificial_ = structural_cols + num_slacks;
  total_cols_ = first_artificial_ + num_artificials;

  // 3. The starting basis is the slack of every ≤ row and the artificial of
  //    every ≥ and = row, so the stored columns are the structurals followed
  //    by the surpluses.
  nn_ = structural_cols + num_surplus;
  a_.assign(m_ * nn_, 0.0);
  nonbasic_.resize(nn_);
  basis_.assign(m_, 0);
  for (std::size_t p = 0; p < structural_cols; ++p) nonbasic_[p] = p;
  std::size_t slack_col = structural_cols;
  std::size_t surplus_pos = structural_cols;
  std::size_t art_col = first_artificial_;
  for (std::size_t i = 0; i < m_; ++i) {
    double* r = row(i);
    if (i < num_rows) {
      for (const Term& t : model.constraint(i).terms) {
        const VarMap& m = var_map_[t.var];
        if (m.split) {
          r[m.col] += t.coeff;
          r[m.col_minus] -= t.coeff;
        } else {
          r[m.col] += t.coeff * m.sign;
        }
      }
    } else {
      r[var_map_[bound_rows[i - num_rows].var].col] = 1.0;
    }
    if (negated[i])
      for (std::size_t p = 0; p < structural_cols; ++p) r[p] = -r[p];
    switch (types[i]) {
      case RowType::kLessEqual:
        basis_[i] = slack_col++;
        break;
      case RowType::kGreaterEqual:
        r[surplus_pos] = -1.0;
        nonbasic_[surplus_pos++] = slack_col++;
        basis_[i] = art_col++;
        break;
      case RowType::kEqual:
        basis_[i] = art_col++;
        break;
    }
  }
  assert(slack_col == first_artificial_);
  assert(surplus_pos == nn_);
  assert(art_col == total_cols_);

  // Phase-2 costs: minimization form of the model objective on structural
  // columns. (Shifts contribute a constant handled at extraction time; we
  // report the objective by re-evaluating the model at the solution.)
  phase2_costs_.assign(total_cols_, 0.0);
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
}

void Tableau::install_costs(const std::vector<double>& costs) {
  d_.resize(nn_);
  for (std::size_t p = 0; p < nn_; ++p) d_[p] = costs[nonbasic_[p]];
  obj_ = 0.0;
  for (std::size_t i = 0; i < m_; ++i) {
    const double cb = costs[basis_[i]];
    if (cb == 0.0) continue;
    obj_ += cb * rhs_[i];
    const double* r = row(i);
    for (std::size_t p = 0; p < nn_; ++p) d_[p] -= cb * r[p];
  }
}

void Tableau::pivot(std::size_t row_index, std::size_t q) {
  // A local, not nn_ reloaded per row from the stack-resident Tableau: that
  // reload made the pivot ~40% slower under one stack layout.
  const std::size_t nn = nn_;
  double* pr = row(row_index);
  const double piv = pr[q];
  assert(std::abs(piv) > 0.0);
  const double inv = 1.0 / piv;
  // Position q changes hands: the entering column turns into an implicit
  // unit vector, and the leaving one, a unit vector until now, is stored
  // there. Seeding q with the leaving column's entries (1 in the pivot row,
  // 0 elsewhere) lets the one update below compute its new ones.
  pr[q] = 1.0;
  for (std::size_t p = 0; p < nn; ++p) pr[p] *= inv;
  rhs_[row_index] *= inv;

  for (std::size_t i = 0; i < m_; ++i) {
    if (i == row_index) continue;
    double* ri = row(i);
    const double f = ri[q];
    if (f == 0.0) continue;
    ri[q] = 0.0;
    for (std::size_t p = 0; p < nn; ++p) ri[p] -= f * pr[p];
    rhs_[i] -= f * rhs_[row_index];
    if (rhs_[i] < 0.0 && rhs_[i] > -kPivotTol) rhs_[i] = 0.0;
  }
  const double fd = d_[q];
  if (fd != 0.0) {
    d_[q] = 0.0;
    for (std::size_t p = 0; p < nn; ++p) d_[p] -= fd * pr[p];
    // Δobj = reduced cost × step length (rhs_[row_index] is already the
    // normalized ratio θ at this point).
    obj_ += fd * rhs_[row_index];
  }
  std::swap(basis_[row_index], nonbasic_[q]);
  ++iterations_;
}

Tableau::StepResult Tableau::step(bool bland) {
  // Entering column: negative reduced cost. Bland takes the smallest column
  // id, Dantzig the most negative cost with ties to the smallest id — the
  // columns a scan in id order picks.
  std::size_t enter = nn_;
  std::size_t enter_id = total_cols_;
  double best = -kCostTol;
  for (std::size_t p = 0; p < nn_; ++p) {
    const double dp = d_[p];
    if (!(dp < -kCostTol)) continue;
    const std::size_t id = nonbasic_[p];
    if (bland ? id < enter_id
              : dp < best || (dp == best && id < enter_id)) {
      best = dp;
      enter = p;
      enter_id = id;
    }
  }
  if (enter == nn_) return StepResult::kOptimal;

  // Ratio test; Bland tie-break on the leaving basis index.
  std::size_t leave = m_;
  double best_ratio = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m_; ++i) {
    const double a = a_[i * nn_ + enter];
    if (a <= kPivotTol) continue;
    const double ratio = rhs_[i] / a;
    if (ratio < best_ratio - kPivotTol ||
        (ratio < best_ratio + kPivotTol &&
         (leave == m_ || basis_[i] < basis_[leave]))) {
      best_ratio = ratio;
      leave = i;
    }
  }
  if (leave == m_) return StepResult::kUnbounded;
  pivot(leave, enter);
  return StepResult::kPivoted;
}

SolveStatus Tableau::optimize() {
  // Dantzig until the objective stalls, then Bland (guaranteed finite).
  std::size_t stall = 0;
  double last_obj = obj_;
  bool bland = false;
  while (iterations_ < opt_.max_iterations) {
    if (iterations_ % kWatchdogStride == 0 && deadline_ != nullptr &&
        deadline_->expired())
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

void Tableau::drive_out_artificials() {
  for (std::size_t i = 0; i < m_; ++i) {
    if (basis_[i] < first_artificial_) continue;
    // Basic artificial at (numerically) zero level: pivot in the usable
    // non-artificial column of smallest id. If none exists the row is
    // redundant; zero it and keep the (harmless) artificial basic.
    double* r = row(i);
    std::size_t q = nn_;
    std::size_t q_id = first_artificial_;
    for (std::size_t p = 0; p < nn_; ++p) {
      if (nonbasic_[p] < q_id && std::abs(r[p]) > 1e-7) {
        q = p;
        q_id = nonbasic_[p];
      }
    }
    if (q != nn_) {
      pivot(i, q);
    } else {
      std::fill(r, r + nn_, 0.0);
      rhs_[i] = 0.0;
    }
  }
}

void Tableau::drop_artificial_columns() {
  // In place, row by row: no position moves right, so every source entry is
  // read before it is overwritten.
  std::vector<std::size_t> keep;
  for (std::size_t p = 0; p < nn_; ++p)
    if (nonbasic_[p] < first_artificial_) keep.push_back(p);
  if (keep.size() == nn_) return;
  const std::size_t kept = keep.size();
  for (std::size_t i = 0; i < m_; ++i)
    for (std::size_t c = 0; c < kept; ++c)
      a_[i * kept + c] = a_[i * nn_ + keep[c]];
  for (std::size_t c = 0; c < kept; ++c) nonbasic_[c] = nonbasic_[keep[c]];
  nn_ = kept;
  a_.resize(m_ * nn_);
  nonbasic_.resize(nn_);
}

std::vector<double> Tableau::extract_model_solution() const {
  std::vector<double> u(total_cols_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) u[basis_[i]] = rhs_[i];

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
    if (obj_ > kFeasTol) {
      sol.status = SolveStatus::kInfeasible;
      sol.basis = basis_;
      return sol;
    }
    drive_out_artificials();
    drop_artificial_columns();
    obs::count("lp.simplex.phase_transitions");
  }
  obs::count("lp.simplex.phase1_iterations", iterations_);
  const std::size_t phase1_iters = iterations_;

  // Phase 2.
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

// Estimate of the full tableau's footprint in cells: rows = constraints
// plus one bound row per doubly-bounded variable; columns = structurals plus
// up to a slack and an artificial per row. The condensed tableau stores
// fewer columns; the estimate is kept so every model stays on its solver.
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
  Solution sol;
  if (model.well_formed()) {
    Tableau tableau(model, options);
    sol = tableau.run();
  } else {
    sol.status = SolveStatus::kInfeasible;
  }
  obs::count("lp.simplex.solves");
  obs::count("lp.simplex.pivots", sol.iterations);
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
