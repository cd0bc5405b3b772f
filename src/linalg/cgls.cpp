#include "linalg/cgls.hpp"

#include <cassert>
#include <cmath>

#include "obs/obs.hpp"

namespace scapegoat {

bool cgls_preferred(const SparseMatrix& a) {
  if (a.rows() == 0 || a.cols() == 0) return false;
  const double cells =
      static_cast<double>(a.rows()) * static_cast<double>(a.cols());
  if (cells < static_cast<double>(kCglsMinCells)) return false;
  return static_cast<double>(a.nnz()) <= kCglsMaxDensity * cells;
}

CglsResult cgls_solve(const SparseMatrix& a, const Vector& b,
                      const CglsOptions& options) {
  assert(b.size() == a.rows());
  assert(a.rows() >= a.cols());
  obs::ScopedTimer timer("linalg.cgls.solve_us");
  obs::count("linalg.cgls.solves");

  const std::size_t n = a.cols();
  CglsResult result;
  result.x = Vector(n);

  // r = b − Ax = b at x = 0; s = Aᵀr; p = s.
  Vector r = b;
  Vector s = a.multiply_transpose(r);
  const double s0_norm = s.norm2();
  if (s0_norm == 0.0) {
    // Aᵀb = 0: x = 0 is already the least-squares solution.
    result.converged = true;
    return result;
  }
  Vector p = s;
  double gamma = s.dot(s);

  const std::size_t max_iters = options.max_iterations != 0
                                    ? options.max_iterations
                                    : 4 * n + 100;
  const double stop = options.tol * s0_norm;

  for (std::size_t it = 0; it < max_iters; ++it) {
    const Vector q = a.multiply(p);
    const double qq = q.dot(q);
    if (qq == 0.0) break;  // p in the null space: cannot make progress
    const double alpha = gamma / qq;
    for (std::size_t j = 0; j < n; ++j) result.x[j] += alpha * p[j];
    for (std::size_t i = 0; i < r.size(); ++i) r[i] -= alpha * q[i];
    s = a.multiply_transpose(r);
    const double gamma_next = s.dot(s);
    ++result.iterations;
    if (std::sqrt(gamma_next) <= stop) {
      result.converged = true;
      gamma = gamma_next;
      break;
    }
    const double beta = gamma_next / gamma;
    gamma = gamma_next;
    for (std::size_t j = 0; j < n; ++j) p[j] = s[j] + beta * p[j];
  }

  result.relative_residual = std::sqrt(gamma) / s0_norm;
  // Guard the qq == 0 early break: gamma there is the pre-break value, so
  // recompute the honest residual from the final x.
  if (!result.converged) {
    const Vector final_s =
        a.multiply_transpose(b - a.multiply(result.x));
    result.relative_residual = final_s.norm2() / s0_norm;
    result.converged = result.relative_residual <= options.tol;
  }
  obs::count(result.converged ? "linalg.cgls.converged"
                              : "linalg.cgls.stalled");
  obs::observe("linalg.cgls.iterations",
               static_cast<double>(result.iterations));
  return result;
}

}  // namespace scapegoat
