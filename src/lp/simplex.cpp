#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
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

// How a model row lower ≤ aᵀx ≤ upper maps into a standard-form row with
// rhs ≥ 0. A row with lower < upper gets a slack s ∈ [lower, upper],
// shifted the way a variable is: s = lower + s′ when lower is finite, so s′
// enters aᵀx − s′ = lower with coefficient −1, else s = upper − s′ and s′
// enters aᵀx + s′ = upper with +1. Either way s′ ∈ [0, upper − lower]. An
// equality row has no slack. The row is negated when its shifted rhs is
// negative, and gets an artificial unless its slack starts basic.
struct RowForm {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  double sign = 1.0;
  std::size_t slack = kNone;
  double slack_coeff = 1.0;  // in the negated row when sign < 0
  std::size_t artificial = kNone;
};

// Condensed (Tucker) bounded-variable tableau: min cᵀu s.t. T u = rhs,
// 0 ≤ u ≤ range. A boxed model variable keeps its lower-bound shift and
// gets range = upper − lower, and so does the slack of a row with both ends
// finite; every other column has an infinite range. A
// basic column is a unit vector with a zero reduced cost, so only the
// nonbasic columns are stored: one row-major m × nn buffer, with
// nonbasic_[p] naming the column at position p as basis_[i] names the one
// basic in row i. rhs_ holds the current basic values.
//
// A column that reaches its range is stored reflected, as range − u: its
// entries and reduced cost are negated and reflected_ (by column id) is
// toggled. So every nonbasic column sits at 0 in the orientation it is
// stored in — a reflected nonbasic column is at its upper bound — and
// pricing reads the tableau as if there were no upper bounds. The ratio
// test adds two blocks: a basic column at its range, and the entering
// column at its own range (a bound flip).
class Tableau {
 public:
  Tableau(const Model& model, const SimplexOptions& opt);

  Solution run();
  std::size_t flips() const { return flips_; }

 private:
  enum class StepResult { kMoved, kOptimal, kUnbounded };

  double* row(std::size_t i) { return a_.data() + i * nn_; }

  // The model row's anchor (lower if finite, else upper) after the bound
  // shifts, before any negation.
  double shifted_rhs(std::size_t i) const;
  // Calls f(column id, coefficient) for every term of standard-form row i,
  // its slack and artificial included. A column may be named more than once
  // (a model row may repeat a variable); the coefficients add up.
  template <class F>
  void for_each_entry(std::size_t i, F&& f) const;

  StepResult step(bool bland);
  // Pivots on row `row_index` and the column stored at position `q`; the
  // leaving column becomes nonbasic at its range when `leave_at_upper`,
  // else at 0.
  void pivot(std::size_t row_index, std::size_t q, bool leave_at_upper);
  // Moves the column stored at position `q` to its other bound. No basis
  // change: O(m), and not counted as a pivot.
  void flip(std::size_t q);
  // Cost of column `id` in the orientation it is stored in.
  double oriented(const std::vector<double>& costs, std::size_t id) const {
    return reflected_[id] ? -costs[id] : costs[id];
  }
  // Rebuilds the reduced costs and objective from `costs` (by column id).
  void install_costs(const std::vector<double>& costs);
  // Runs pivots until optimal/unbounded/limit; returns final status w.r.t.
  // the currently installed costs.
  SolveStatus optimize();
  void drive_out_artificials();
  // Removes the nonbasic artificial columns, which phase 2 never lets enter.
  void drop_artificial_columns();
  // Recomputes the basic values, the stored columns and the phase-2 reduced
  // costs from the model at the current basis, by an LU factorization of
  // the basis matrix. Returns false, leaving the tableau as it was, when the
  // basis is singular or its refreshed point is not primal feasible.
  bool refactor();
  // Phase 2 stopped optimal: extracts the point into `x` and decides whether
  // it stands (see kRefreshTol and kFeasTol). Returns the final status.
  SolveStatus accept_optimum(std::vector<double>& x);
  std::vector<double> extract_model_solution() const;

  const Model& model_;
  const SimplexOptions& opt_;

  std::size_t first_artificial_ = 0;  // structural + slack columns
  std::size_t total_cols_ = 0;        // including artificials
  std::vector<VarMap> var_map_;
  std::vector<RowForm> rows_;         // by model row
  std::vector<double> range_;         // by column id; +inf unless boxed
  std::vector<char> reflected_;       // by column id; stored as range − u

  std::size_t m_ = 0;                   // rows, one per model constraint
  std::size_t nn_ = 0;                  // stored (nonbasic) columns
  std::vector<double> a_;               // m_ × nn_, row-major
  std::vector<std::size_t> nonbasic_;   // nonbasic_[p] = column at position p
  std::vector<double> rhs_;             // basic values, in [0, range]
  std::vector<std::size_t> basis_;      // basis_[i] = column basic in row i
  std::vector<double> phase2_costs_;    // by column id (0 on artificials)

  std::vector<double> d_;   // reduced costs of the stored columns
  double obj_ = 0.0;        // current objective (minimization form)
  std::size_t iterations_ = 0;
  std::size_t flips_ = 0;

  // Cooperative budget: the calling trial's ambient deadline, polled every
  // kWatchdogStride pivots and flips.
  const robust::Watchdog* deadline_ = robust::ScopedTrialDeadline::current();
};

double Tableau::shifted_rhs(std::size_t i) const {
  const Constraint& c = model_.constraint(i);
  double rhs = c.lower != -kInfinity ? c.lower : c.upper;
  for (const Term& t : c.terms) {
    const VarMap& m = var_map_[t.var];
    if (!m.split) rhs -= t.coeff * m.shift;
  }
  return rhs;
}

template <class F>
void Tableau::for_each_entry(std::size_t i, F&& f) const {
  const RowForm& rf = rows_[i];
  for (const Term& t : model_.constraint(i).terms) {
    const VarMap& m = var_map_[t.var];
    const double coeff = rf.sign * t.coeff;
    if (m.split) {
      f(m.col, coeff);
      f(m.col_minus, -coeff);
    } else {
      f(m.col, coeff * m.sign);
    }
  }
  if (rf.slack != RowForm::kNone) f(rf.slack, rf.slack_coeff);
  if (rf.artificial != RowForm::kNone) f(rf.artificial, 1.0);
}

Tableau::Tableau(const Model& model, const SimplexOptions& opt)
    : model_(model),
      opt_(opt) {
  const std::size_t n = model.num_variables();

  // 1. Assign structural columns, with shifts / splits for bounds.
  var_map_.resize(n);
  std::size_t col = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    VarMap& m = var_map_[j];
    if (v.lower != -kInfinity) {
      m.col = col++;
      m.shift = v.lower;
      m.sign = 1.0;
    } else if (v.upper != kInfinity) {
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

  // 2. Each row's rhs after the bound shifts, made ≥ 0 by negating the row,
  //    and its slack and artificial columns. The slack starts basic when its
  //    coefficient in the negated row is +1 (a lower-shifted slack's start
  //    value must be strictly above 0, an upper-shifted one's at least 0)
  //    and its start value is within its range. Otherwise it starts
  //    nonbasic, at 0 or, when its start value is above its range,
  //    reflected there, and the row gets an artificial. Slacks are numbered
  //    after the structurals, artificials after every slack.
  m_ = model.num_constraints();
  rows_.resize(m_);
  rhs_.assign(m_, 0.0);
  std::vector<char> slack_basic(m_, 0);
  std::size_t num_slacks = 0, num_stored_slacks = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    const Constraint& c = model.constraint(i);
    RowForm& rf = rows_[i];
    const double r = shifted_rhs(i);
    rf.sign = r < 0.0 ? -1.0 : 1.0;
    rhs_[i] = rf.sign * r;
    if (c.lower == c.upper) continue;
    rf.slack_coeff = c.lower != -kInfinity ? -rf.sign : rf.sign;
    ++num_slacks;
    if (rf.slack_coeff > 0.0 && rhs_[i] <= c.upper - c.lower)
      slack_basic[i] = 1;
    else
      ++num_stored_slacks;
  }
  first_artificial_ = structural_cols + num_slacks;
  const std::size_t num_artificials = m_ - (num_slacks - num_stored_slacks);
  total_cols_ = first_artificial_ + num_artificials;
  range_.assign(total_cols_, kInfinity);
  reflected_.assign(total_cols_, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    if (!var_map_[j].split && v.lower != -kInfinity && v.upper != kInfinity)
      range_[var_map_[j].col] = v.upper - v.lower;
  }
  std::size_t slack_col = structural_cols;
  std::size_t art_col = first_artificial_;
  for (std::size_t i = 0; i < m_; ++i) {
    const Constraint& c = model.constraint(i);
    RowForm& rf = rows_[i];
    if (!slack_basic[i]) rf.artificial = art_col++;
    if (c.lower == c.upper) continue;
    rf.slack = slack_col++;
    range_[rf.slack] = c.upper - c.lower;
    if (!slack_basic[i] && rf.slack_coeff > 0.0) {
      // Starts above its range: reflected there, with the rest of the row
      // (still > 0) on the artificial.
      reflected_[rf.slack] = 1;
      rhs_[i] -= range_[rf.slack];
    }
  }
  assert(art_col == total_cols_);

  // 3. The starting basis is each basic slack and every other row's
  //    artificial, so the stored columns are the structurals followed by
  //    the nonbasic slacks, all at 0 in their stored orientation.
  nn_ = structural_cols + num_stored_slacks;
  a_.assign(m_ * nn_, 0.0);
  nonbasic_.resize(nn_);
  basis_.assign(m_, 0);
  for (std::size_t p = 0; p < structural_cols; ++p) nonbasic_[p] = p;
  std::size_t slack_pos = structural_cols;
  for (std::size_t i = 0; i < m_; ++i) {
    const RowForm& rf = rows_[i];
    const bool stored = rf.slack != RowForm::kNone && !slack_basic[i];
    if (stored) nonbasic_[slack_pos] = rf.slack;
    basis_[i] = slack_basic[i] ? rf.slack : rf.artificial;
    double* r = row(i);
    for_each_entry(i, [&](std::size_t id, double coeff) {
      if (id < structural_cols)
        r[id] += coeff;
      else if (stored && id == rf.slack)
        r[slack_pos] = reflected_[id] ? -coeff : coeff;
    });
    if (stored) ++slack_pos;
  }
  assert(slack_pos == nn_);

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
  for (std::size_t p = 0; p < nn_; ++p) d_[p] = oriented(costs, nonbasic_[p]);
  // A reflected column adds its cost × range to the objective.
  obj_ = 0.0;
  for (std::size_t j = 0; j < total_cols_; ++j)
    if (reflected_[j]) obj_ += costs[j] * range_[j];
  for (std::size_t i = 0; i < m_; ++i) {
    const double cb = oriented(costs, basis_[i]);
    if (cb == 0.0) continue;
    obj_ += cb * rhs_[i];
    const double* r = row(i);
    for (std::size_t p = 0; p < nn_; ++p) d_[p] -= cb * r[p];
  }
}

void Tableau::pivot(std::size_t row_index, std::size_t q,
                    bool leave_at_upper) {
  // A local, not nn_ reloaded per row from the stack-resident Tableau: that
  // reload made the pivot ~40% slower under one stack layout.
  const std::size_t nn = nn_;
  double* pr = row(row_index);
  const double piv = pr[q];
  assert(std::abs(piv) > 0.0);
  const double inv = 1.0 / piv;
  // The entering column's step from 0: the one that takes the leaving
  // basic value to the bound it leaves at.
  const double leave_value = leave_at_upper ? range_[basis_[row_index]] : 0.0;
  const double delta = (rhs_[row_index] - leave_value) * inv;
  // Position q changes hands: the entering column turns into an implicit
  // unit vector, and the leaving one, a unit vector until now, is stored
  // there. Seeding q with the leaving column's entries (1 in the pivot row,
  // 0 elsewhere) lets the one update below compute its new ones; a column
  // that leaves at its range is then stored reflected.
  pr[q] = 1.0;
  for (std::size_t p = 0; p < nn; ++p) pr[p] *= inv;
  if (leave_at_upper) pr[q] = -pr[q];
  rhs_[row_index] = delta;

  for (std::size_t i = 0; i < m_; ++i) {
    if (i == row_index) continue;
    double* ri = row(i);
    const double f = ri[q];
    if (f == 0.0) continue;
    ri[q] = 0.0;
    for (std::size_t p = 0; p < nn; ++p) ri[p] -= f * pr[p];
    rhs_[i] -= f * delta;
    if (rhs_[i] < 0.0 && rhs_[i] > -kPivotTol) rhs_[i] = 0.0;
  }
  const double fd = d_[q];
  if (fd != 0.0) {
    d_[q] = 0.0;
    for (std::size_t p = 0; p < nn; ++p) d_[p] -= fd * pr[p];
    obj_ += fd * delta;  // Δobj = reduced cost × step
  }
  std::swap(basis_[row_index], nonbasic_[q]);
  if (leave_at_upper) reflected_[nonbasic_[q]] ^= 1;
  ++iterations_;
}

void Tableau::flip(std::size_t q) {
  // The column moves by its whole range and is then stored reflected, so it
  // sits at 0 again.
  const double step = range_[nonbasic_[q]];
  for (std::size_t i = 0; i < m_; ++i) {
    double& a = a_[i * nn_ + q];
    rhs_[i] -= a * step;
    if (rhs_[i] < 0.0 && rhs_[i] > -kPivotTol) rhs_[i] = 0.0;
    a = -a;
  }
  obj_ += d_[q] * step;
  d_[q] = -d_[q];
  reflected_[nonbasic_[q]] ^= 1;
  ++flips_;
}

Tableau::StepResult Tableau::step(bool bland) {
  // Entering column: negative reduced cost in its stored orientation (so a
  // column at its range enters on a positive cost of its own). Bland takes
  // the smallest column id, Dantzig the most negative cost with ties to the
  // smallest id — the columns a scan in id order picks.
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

  // Ratio test. The entering column blocks itself at its range (a bound
  // flip, leave == m_), and keeps that block on a tie; a basic column
  // blocks at 0 or at its own range. Bland tie-break on the leaving basis
  // index.
  std::size_t leave = m_;
  bool leave_at_upper = false;
  double best_ratio = range_[enter_id];
  for (std::size_t i = 0; i < m_; ++i) {
    const double a = a_[i * nn_ + enter];
    const bool at_upper = a < -kPivotTol;
    if (!at_upper && a <= kPivotTol) continue;
    // A basic column without a range gets +inf here: it never blocks.
    const double ratio =
        at_upper ? (range_[basis_[i]] - rhs_[i]) / -a : rhs_[i] / a;
    if (ratio < best_ratio - kPivotTol ||
        (ratio < best_ratio + kPivotTol && leave != m_ &&
         basis_[i] < basis_[leave])) {
      best_ratio = ratio;
      leave = i;
      leave_at_upper = at_upper;
    }
  }
  if (leave == m_) {
    if (best_ratio == kInfinity) return StepResult::kUnbounded;
    flip(enter);
  } else {
    pivot(leave, enter, leave_at_upper);
  }
  return StepResult::kMoved;
}

SolveStatus Tableau::optimize() {
  // Dantzig until the objective stalls, then Bland (guaranteed finite).
  std::size_t stall = 0;
  double last_obj = obj_;
  bool bland = false;
  while (iterations_ < opt_.max_iterations) {
    if ((iterations_ + flips_) % kWatchdogStride == 0 &&
        deadline_ != nullptr && deadline_->expired())
      return SolveStatus::kTimeLimit;
    switch (step(bland)) {
      case StepResult::kOptimal:
        return SolveStatus::kOptimal;
      case StepResult::kUnbounded:
        return SolveStatus::kUnbounded;
      case StepResult::kMoved:
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
      pivot(i, q, false);
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

bool Tableau::refactor() {
  // where[j]: the row column j is basic in (< m_), m_ + its stored position,
  // or kNone for an artificial that phase 2 dropped.
  std::vector<std::size_t> where(total_cols_, RowForm::kNone);
  for (std::size_t i = 0; i < m_; ++i) where[basis_[i]] = i;
  for (std::size_t p = 0; p < nn_; ++p) where[nonbasic_[p]] = m_ + p;

  // The standard form in the stored orientation: a reflected column
  // u = range − v enters with its entries negated and moves range × its
  // entries to the rhs. Every stored column sits at 0, so B x_B = rhs.
  Matrix basic(m_, m_);
  Matrix stored(m_, nn_);
  Vector rhs(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    rhs[i] = rows_[i].sign * shifted_rhs(i);
    for_each_entry(i, [&](std::size_t id, double coeff) {
      if (reflected_[id]) {
        rhs[i] -= coeff * range_[id];
        coeff = -coeff;
      }
      const std::size_t w = where[id];
      if (w < m_)
        basic(i, w) += coeff;
      else if (w != RowForm::kNone)
        stored(i, w - m_) += coeff;
    });
  }
  const LuDecomposition lu(basic);
  if (!lu.ok()) return false;
  const Vector values = lu.solve(rhs);
  for (std::size_t i = 0; i < m_; ++i)
    if (values[i] < -kFeasTol || values[i] > range_[basis_[i]] + kFeasTol)
      return false;
  const Matrix columns = lu.solve(stored);

  for (std::size_t i = 0; i < m_; ++i) {
    double* r = row(i);
    if (basis_[i] >= first_artificial_) {
      // A redundant row, zeroed by drive_out_artificials: it stays zero.
      std::fill(r, r + nn_, 0.0);
      rhs_[i] = 0.0;
      continue;
    }
    for (std::size_t p = 0; p < nn_; ++p) r[p] = columns(i, p);
    rhs_[i] = std::clamp(values[i], 0.0, range_[basis_[i]]);
  }
  install_costs(phase2_costs_);
  return true;
}

SolveStatus Tableau::accept_optimum(std::vector<double>& x) {
  x = extract_model_solution();
  double violation = model_.max_violation(x);
  if (violation > kRefreshTol && refactor()) {
    obs::count("lp.simplex.refreshes");
    const SolveStatus resumed = optimize();
    if (resumed == SolveStatus::kUnbounded) {
      x.clear();
      return resumed;
    }
    x = extract_model_solution();
    if (resumed != SolveStatus::kOptimal) return resumed;
    violation = model_.max_violation(x);
  }
  // An optimal basis is only as good as the point it gives: one that
  // roundoff has pushed off the model is refused, not returned.
  if (violation > kFeasTol) {
    obs::count("lp.simplex.residual_refusals");
    return SolveStatus::kIterationLimit;
  }
  return SolveStatus::kOptimal;
}

std::vector<double> Tableau::extract_model_solution() const {
  std::vector<double> u(total_cols_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) u[basis_[i]] = rhs_[i];
  for (std::size_t j = 0; j < total_cols_; ++j)
    if (reflected_[j]) u[j] = range_[j] - u[j];

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
  SolveStatus s2 = optimize();
  if (s2 == SolveStatus::kOptimal) {
    s2 = accept_optimum(sol.x);
  } else if (s2 == SolveStatus::kIterationLimit ||
             s2 == SolveStatus::kTimeLimit) {
    // Same certificate as phase 1, but the point is primal feasible here.
    sol.x = extract_model_solution();
  }
  obs::count("lp.simplex.phase2_iterations", iterations_ - phase1_iters);
  sol.iterations = iterations_;
  sol.status = s2;
  sol.basis = basis_;
  if (!sol.x.empty()) sol.objective = model_.objective_value(sol.x);
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

Solution solve(const Model& model, const SimplexOptions& options) {
  obs::ScopedTimer timer("lp.simplex.solve_us");
  obs::ScopedSpan span("lp.simplex.solve");
  Solution sol;
  if (model.well_formed()) {
    Tableau tableau(model, options);
    sol = tableau.run();
    obs::count("lp.simplex.bound_flips", tableau.flips());
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
