// Linear-program model builder.
//
// All three scapegoating strategies in the paper reduce to LPs over the
// attack manipulation vector m (maximize ‖m‖₁ = Σ mᵢ subject to Constraint 1
// and link-state constraints on the manipulated tomography estimate). This
// model type is the neutral LP surface between the attack formulations and
// the simplex solver: named variables with box bounds, sparse constraint
// rows with ≤ / = / ≥ senses, and a linear objective.

#pragma once

#include <limits>
#include <string>
#include <vector>

namespace scapegoat::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { kMaximize, kMinimize };
enum class RowType { kLessEqual, kGreaterEqual, kEqual };

// One sparse coefficient: variable index and value.
struct Term {
  std::size_t var;
  double coeff;
};

struct Constraint {
  std::vector<Term> terms;
  RowType type = RowType::kLessEqual;
  double rhs = 0.0;
  std::string name;
};

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  std::string name;
};

class Model {
 public:
  explicit Model(Sense sense = Sense::kMaximize) : sense_(sense) {}

  Sense sense() const { return sense_; }
  void set_sense(Sense sense) { sense_ = sense; }

  // Returns the new variable's index. `lower` may be -inf and `upper` +inf.
  std::size_t add_variable(double lower, double upper, double objective,
                           std::string name = {});

  // Terms are taken as given; see well_formed().
  void add_constraint(std::vector<Term> terms, RowType type, double rhs,
                      std::string name = {});

  std::size_t num_variables() const { return variables_.size(); }
  std::size_t num_constraints() const { return constraints_.size(); }

  const Variable& variable(std::size_t i) const { return variables_[i]; }
  const Constraint& constraint(std::size_t i) const { return constraints_[i]; }

  // True when every term names a variable of this model and every term
  // coefficient and rhs is finite. Both solvers refuse any other model with
  // kInfeasible before building anything from it.
  bool well_formed() const;

  // Objective value of a candidate point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  // Max constraint/bound violation of a candidate point; 0 means feasible.
  double max_violation(const std::vector<double>& x) const;

 private:
  Sense sense_;
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

// Compact single-line rendering — "max 2x0 -x1 | x0 in [0,3] ...; 2x0+x1 <=
// 4; ..." — for logs and property-test counterexample reports.
std::string to_string(const Model& model);

}  // namespace scapegoat::lp
