#include "linalg/least_squares.hpp"

#include <cassert>
#include <cmath>
#include <string>

#include "linalg/qr.hpp"
#include "obs/obs.hpp"

namespace scapegoat {

std::optional<Vector> least_squares(const Matrix& a, const Vector& b) {
  assert(a.rows() == b.size());
  if (a.cols() == 0 || a.rows() < a.cols()) return std::nullopt;
  obs::ScopedTimer timer("linalg.lstsq.solve_us");
  obs::count("linalg.lstsq.solves");
  QrDecomposition qr(a, QrDecomposition::Pivoting::kColumn);
  if (!qr.full_column_rank()) return std::nullopt;
  return qr.solve(b);
}

robust::Expected<Vector> try_least_squares(const Matrix& a,
                                           const Vector& b) {
  if (a.rows() != b.size()) {
    return robust::Error{robust::ErrorCode::kDimensionMismatch,
                         std::to_string(b.size()) + " measurements for " +
                             std::to_string(a.rows()) + " rows"};
  }
  if (a.rows() == 0 || a.cols() == 0) {
    return robust::Error{robust::ErrorCode::kEmptyInput,
                         "empty least-squares system"};
  }
  if (a.rows() < a.cols()) {
    return robust::Error{robust::ErrorCode::kRankDeficient,
                         "under-determined: " + std::to_string(a.rows()) +
                             " rows for " + std::to_string(a.cols()) +
                             " unknowns"};
  }
  auto x = least_squares(a, b);
  if (!x) {
    return robust::Error{robust::ErrorCode::kRankDeficient,
                         "matrix is numerically rank deficient"};
  }
  return *x;
}

robust::Expected<Vector> ridge_least_squares(const Matrix& a, const Vector& b,
                                             double lambda,
                                             const Vector* prior) {
  if (lambda <= 0.0) {
    return robust::Error{robust::ErrorCode::kInvalidInput,
                         "ridge solve requires lambda > 0"};
  }
  if (a.rows() != b.size() ||
      (prior != nullptr && prior->size() != a.cols())) {
    return robust::Error{robust::ErrorCode::kDimensionMismatch,
                         "rhs/prior sizes do not match the matrix"};
  }
  if (a.cols() == 0) {
    return robust::Error{robust::ErrorCode::kEmptyInput,
                         "ridge solve with no unknowns"};
  }
  obs::ScopedTimer timer("linalg.lstsq.ridge_us");
  obs::count("linalg.lstsq.ridge_solves");
  const RidgeSolver ridge(a, lambda, prior != nullptr ? *prior : Vector());
  if (!ridge.ok()) {
    return robust::Error{robust::ErrorCode::kIllConditioned,
                         "regularized normal matrix failed to factor"};
  }
  return ridge.solve(b);
}

namespace {

Matrix regularized_normal_matrix(const Matrix& at, double lambda) {
  Matrix m = at * at.transposed();  // aᵀa, since at = aᵀ
  for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += lambda;
  return m;
}

}  // namespace

RidgeSolver::RidgeSolver(const Matrix& a, double lambda, Vector prior)
    : at_(a.transposed()),
      lambda_(lambda),
      prior_(std::move(prior)),
      chol_(regularized_normal_matrix(at_, lambda)) {
  assert(lambda >= 0.0);
  assert(prior_.empty() || prior_.size() == a.cols());
}

Vector RidgeSolver::solve(const Vector& b) const {
  assert(ok());
  assert(b.size() == at_.cols());
  Vector rhs = at_ * b;
  if (!prior_.empty()) {
    for (std::size_t i = 0; i < rhs.size(); ++i)
      rhs[i] += lambda_ * prior_[i];
  }
  return chol_.solve(rhs);
}

Vector residual(const Matrix& a, const Vector& x, const Vector& b) {
  return b - a * x;
}

}  // namespace scapegoat
