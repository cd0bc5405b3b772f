#include "lp/model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace scapegoat::lp {

std::size_t Model::add_variable(double lower, double upper, double objective,
                                std::string name) {
  variables_.push_back(Variable{lower, upper, objective, std::move(name)});
  return variables_.size() - 1;
}

void Model::add_constraint(std::vector<Term> terms, RowType type, double rhs,
                           std::string name) {
  constraints_.push_back(
      Constraint{std::move(terms), type, rhs, std::move(name)});
}

bool Model::well_formed() const {
  for (const Variable& v : variables_) {
    // Also false when either bound is NaN.
    if (!(v.lower <= v.upper) || v.lower == kInfinity ||
        v.upper == -kInfinity)
      return false;
  }
  for (const Constraint& c : constraints_) {
    if (!std::isfinite(c.rhs)) return false;
    for (const Term& t : c.terms)
      if (t.var >= variables_.size() || !std::isfinite(t.coeff)) return false;
  }
  return true;
}

double Model::objective_value(const std::vector<double>& x) const {
  assert(x.size() == variables_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i)
    acc += variables_[i].objective * x[i];
  return acc;
}

double Model::max_violation(const std::vector<double>& x) const {
  assert(x.size() == variables_.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    worst = std::max(worst, variables_[i].lower - x[i]);
    worst = std::max(worst, x[i] - variables_[i].upper);
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const Term& t : c.terms) lhs += t.coeff * x[t.var];
    switch (c.type) {
      case RowType::kLessEqual:
        worst = std::max(worst, lhs - c.rhs);
        break;
      case RowType::kGreaterEqual:
        worst = std::max(worst, c.rhs - lhs);
        break;
      case RowType::kEqual:
        worst = std::max(worst, std::abs(lhs - c.rhs));
        break;
    }
  }
  return worst;
}

std::string to_string(const Model& model) {
  std::ostringstream os;
  os << (model.sense() == Sense::kMaximize ? "max" : "min");
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    if (v.objective != 0.0) os << ' ' << v.objective << "*x" << j;
  }
  os << " |";
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    os << " x" << j << " in [" << v.lower << ',' << v.upper << ']';
  }
  for (std::size_t i = 0; i < model.num_constraints(); ++i) {
    const Constraint& c = model.constraint(i);
    os << ';';
    for (const Term& t : c.terms) os << ' ' << t.coeff << "*x" << t.var;
    switch (c.type) {
      case RowType::kLessEqual:
        os << " <= ";
        break;
      case RowType::kGreaterEqual:
        os << " >= ";
        break;
      case RowType::kEqual:
        os << " == ";
        break;
    }
    os << c.rhs;
  }
  return os.str();
}

}  // namespace scapegoat::lp
