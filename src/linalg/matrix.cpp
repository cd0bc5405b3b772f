#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace scapegoat {

Vector& Vector::operator+=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Vector::dot(const Vector& rhs) const {
  assert(size() == rhs.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += data_[i] * rhs.data_[i];
  return acc;
}

double Vector::norm1() const {
  double acc = 0.0;
  for (double x : data_) acc += std::abs(x);
  return acc;
}

double Vector::norm2() const { return std::sqrt(dot(*this)); }

double Vector::norm_inf() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

bool Vector::componentwise_geq(const Vector& rhs, double tol) const {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i)
    if (data_[i] < rhs.data_[i] - tol) return false;
  return true;
}

std::string Vector::to_string(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << '[';
  for (std::size_t i = 0; i < size(); ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  os << ']';
  return os.str();
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(double s, Vector v) { return v *= s; }

bool approx_equal(const Vector& a, const Vector& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > tol) return false;
  return true;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    assert(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Vector Matrix::row(std::size_t r) const {
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::col(std::size_t c) const {
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  assert(v.size() == cols_);
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Matrix::norm_fro() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Matrix::max_abs() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    os << (r + 1 == rows_ ? "]]" : "]\n");
  }
  return os.str();
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(double s, Matrix m) { return m *= s; }

namespace {

// Multiply-accumulate for every output row. The k-loop is blocked for cache
// reuse of b's rows; blocking never reorders the per-entry accumulation (k
// stays ascending), so it changes no bit of the result.
constexpr std::size_t kMulKBlock = 64;

void multiply_rows(const Matrix& a, const Matrix& b, Matrix& out) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k0 = 0; k0 < a.cols(); k0 += kMulKBlock) {
      const std::size_t k1 = std::min(a.cols(), k0 + kMulKBlock);
      for (std::size_t k = k0; k < k1; ++k) {
        const double av = a(r, k);
        if (av == 0.0) continue;
        for (std::size_t c = 0; c < b.cols(); ++c) out(r, c) += av * b(k, c);
      }
    }
  }
}

}  // namespace

Matrix operator*(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  multiply_rows(a, b, out);
  return out;
}

Vector operator*(const Matrix& a, const Vector& x) {
  assert(a.cols() == x.size());
  Vector out(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    out[r] = acc;
  }
  return out;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (std::abs(a(r, c) - b(r, c)) > tol) return false;
  return true;
}

}  // namespace scapegoat
