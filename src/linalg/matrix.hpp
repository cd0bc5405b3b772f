// Dense row-major matrix / vector types.
//
// This is the library's replacement for Eigen: the tomography estimator,
// routing matrices, and the simplex tableau all sit on these types. Sizes in
// this problem domain are modest (hundreds of rows/columns), so a simple,
// well-tested dense implementation is the right tool — no expression
// templates, no allocation tricks, just value semantics and asserts on shape.

#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace scapegoat {

class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  double operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);

  double dot(const Vector& rhs) const;
  // L1, L2 and max norms.
  double norm1() const;
  double norm2() const;
  double norm_inf() const;

  // True iff every entry of *this is >= the matching entry of rhs - tol.
  // This is the componentwise ⪰ relation from the paper's Table I.
  bool componentwise_geq(const Vector& rhs, double tol = 0.0) const;

  std::string to_string(int precision = 3) const;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(double s, Vector v);
bool approx_equal(const Vector& a, const Vector& b, double tol = 1e-9);

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Row-major construction from nested initializer lists; all rows must have
  // equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix transposed() const;
  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  // Frobenius norm.
  double norm_fro() const;
  double max_abs() const;

  std::string to_string(int precision = 3) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(double s, Matrix m);

// Product a·b, on the calling thread. Each entry accumulates over k in
// ascending order (k-blocked for cache reuse, zero entries of a skipped), so
// the result does not depend on the thread that runs it; parallelism lives
// one level up, in the trial engine (DESIGN.md §7).
Matrix operator*(const Matrix& a, const Matrix& b);

Vector operator*(const Matrix& a, const Vector& x);
bool approx_equal(const Matrix& a, const Matrix& b, double tol = 1e-9);

}  // namespace scapegoat
