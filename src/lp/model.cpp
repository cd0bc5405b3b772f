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

void Model::add_constraint(std::vector<Term> terms, double lower,
                           double upper, std::string name) {
  constraints_.push_back(
      Constraint{std::move(terms), lower, upper, std::move(name)});
}

namespace {

// Also false when either end is NaN.
bool valid_range(double lower, double upper) {
  return lower <= upper && lower != kInfinity && upper != -kInfinity;
}

}  // namespace

bool Model::well_formed() const {
  for (const Variable& v : variables_)
    if (!valid_range(v.lower, v.upper)) return false;
  for (const Constraint& c : constraints_) {
    if (!valid_range(c.lower, c.upper) ||
        (c.lower == -kInfinity && c.upper == kInfinity))
      return false;
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
    worst = std::max(worst, c.lower - lhs);
    worst = std::max(worst, lhs - c.upper);
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
    os << " in [" << c.lower << ',' << c.upper << ']';
  }
  return os.str();
}

}  // namespace scapegoat::lp
