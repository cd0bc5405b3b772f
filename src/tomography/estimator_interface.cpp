#include "tomography/estimator_interface.hpp"

#include <cassert>
#include <cmath>
#include <ostream>

#include "obs/obs.hpp"
#include "tomography/estimator.hpp"
#include "tomography/multicast_mle.hpp"
#include "tomography/routing_matrix.hpp"
#include "tomography/sparse_recovery.hpp"

namespace scapegoat {

std::string to_string(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kLeastSquares:
      return "least_squares";
    case EstimatorKind::kSparseRecovery:
      return "sparse_recovery";
    case EstimatorKind::kMulticastMle:
      return "multicast_mle";
  }
  return "unknown";
}

std::optional<EstimatorKind> estimator_kind_from_string(std::string_view s) {
  if (s == "least_squares") return EstimatorKind::kLeastSquares;
  if (s == "sparse_recovery") return EstimatorKind::kSparseRecovery;
  if (s == "multicast_mle") return EstimatorKind::kMulticastMle;
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, EstimatorKind kind) {
  return os << to_string(kind);
}

Estimator::Estimator(const Graph& g, std::vector<Path> paths)
    : paths_(std::move(paths)), r_(routing_matrix(g, paths_)) {
  if (r_.empty()) return;  // nothing identifiable
  qr_ = std::make_shared<const QrDecomposition>(
      r_.to_dense(), QrDecomposition::Pivoting::kColumn);
  ok_ = qr_->rank() == r_.cols();  // full column rank: identifiable
}

namespace {

// w = Gᵀa for the incidence row aᵀ of `links`, which drives both row-append
// updates below.
std::vector<double> incidence_times_pseudo_inverse(
    const Matrix& g, const std::vector<std::size_t>& links) {
  std::vector<double> w(g.cols(), 0.0);
  for (const std::size_t l : links)
    for (std::size_t j = 0; j < w.size(); ++j) w[j] += g(l, j);
  return w;
}

// Greville's row-append update of G = R⁺ for a full-column-rank R gaining
// the 0/1 incidence row aᵀ of `links`, in O(mn) instead of a fresh O(mn²)
// QR: with w = Gᵀa and u = G·w = (RᵀR)⁻¹a, s = 1 + aᵀu ≥ 1 and
// G_new = [G − (u/s)·wᵀ | u/s].
Matrix append_row_to_pseudo_inverse(const Matrix& g,
                                    const std::vector<std::size_t>& links,
                                    const std::vector<double>& w) {
  const std::size_t n = g.rows(), m = g.cols();
  std::vector<double> u(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) u[i] += g(i, j) * w[j];
  double s = 1.0;
  for (const std::size_t l : links) s += u[l];
  Matrix grown(n, m + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = u[i] / s;
    for (std::size_t j = 0; j < m; ++j) grown(i, j) = g(i, j) - c * w[j];
    grown(i, m) = c;
  }
  return grown;
}

// Nᵀ of a full-column-rank R from its pivoted QR R·P = Q·[R₁; 0]: the
// trailing m − n columns of Q span the orthogonal complement of range(R).
// Row k is Q·e_{n+k}.
Matrix left_null_basis_of(const QrDecomposition& qr) {
  const std::size_t m = qr.rows(), n = qr.cols();
  Matrix nt(m - n, m);
  for (std::size_t k = 0; k < m - n; ++k) {
    Vector e(m);
    e[n + k] = 1.0;
    const Vector q = qr.q_times(e);
    for (std::size_t j = 0; j < m; ++j) nt(k, j) = q[j];
  }
  return nt;
}

// The matching O(m) update of Nᵀ when R gains the row aᵀ, with the same
// w = Gᵀa: z = [w; −1] is in the grown R's left null space (Rᵀw = a, as
// GR = I) and orthogonal to [N; 0] (NᵀGᵀ = (GN)ᵀ = 0), so
// N_new = [[N; 0] | z/‖z‖].
Matrix append_row_to_left_null_basis(const Matrix& nt,
                                     const std::vector<double>& w) {
  const std::size_t k = nt.rows(), m = nt.cols();
  Matrix grown(k + 1, m + 1);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) grown(i, j) = nt(i, j);
  double norm2 = 1.0;
  for (const double v : w) norm2 += v * v;
  const double scale = 1.0 / std::sqrt(norm2);
  for (std::size_t j = 0; j < m; ++j) grown(k, j) = w[j] * scale;
  grown(k, m) = -scale;
  return grown;
}

}  // namespace

robust::Status Estimator::try_append_path(const Path& path) {
  std::vector<std::size_t> cols(path.links.begin(), path.links.end());
  std::vector<double> ones(cols.size(), 1.0);
  // G and N of the current R first (from the kept QR if nothing cached them
  // yet), so both after k appends depend only on the path set and append
  // order.
  if (ok_) {
    (void)pseudo_inverse();
    (void)left_null_basis();
  }
  if (robust::Status st = r_.try_append_row(cols, ones); !st.ok()) {
    return st;
  }
  paths_.push_back(path);
  if (ok_) {
    const std::vector<double> w = incidence_times_pseudo_inverse(*pinv_, cols);
    pinv_ = append_row_to_pseudo_inverse(*pinv_, cols, w);
    null_t_ = append_row_to_left_null_basis(*null_t_, w);
    obs::count("tomography.pinv.row_updates");
  }
  // The kept QR no longer matches R; the next estimate re-factors.
  qr_.reset();
  return robust::ok_status();
}

const QrDecomposition& Estimator::factorization() const {
  if (!qr_) {
    qr_ = std::make_shared<const QrDecomposition>(
        r_.to_dense(), QrDecomposition::Pivoting::kColumn);
  }
  return *qr_;
}

const Matrix& Estimator::pseudo_inverse() const {
  assert(ok_);
  if (!pinv_) pinv_ = scapegoat::pseudo_inverse(factorization());
  return *pinv_;
}

const Matrix& Estimator::left_null_basis() const {
  assert(ok_);
  // Formed before the first append, so the QR kept since construction is
  // still here: forming N never factors R.
  assert(null_t_ || qr_);
  if (!null_t_) null_t_ = left_null_basis_of(*qr_);
  return *null_t_;
}

Vector Estimator::residual(const Vector& y) const {
  return y - r_ * estimate(y);
}

std::vector<LinkState> Estimator::classify(const Vector& y,
                                           const StateThresholds& t) const {
  return classify_all(estimate(y), t);
}

std::unique_ptr<Estimator> make_estimator(EstimatorKind kind, const Graph& g,
                                          std::vector<Path> paths,
                                          const EstimatorOptions& options) {
  switch (kind) {
    case EstimatorKind::kLeastSquares:
      return std::make_unique<TomographyEstimator>(g, std::move(paths));
    case EstimatorKind::kSparseRecovery: {
      SparseRecoveryOptions sparse;
      sparse.epsilon_ms = options.sparse_epsilon_ms;
      sparse.prior = options.sparse_prior;
      return std::make_unique<SparseRecoveryEstimator>(g, std::move(paths),
                                                       std::move(sparse));
    }
    case EstimatorKind::kMulticastMle: {
      MulticastMleOptions mle;
      mle.min_rate = options.mle_min_rate;
      return std::make_unique<MulticastMleEstimator>(g, std::move(paths),
                                                     mle);
    }
  }
  return nullptr;
}

}  // namespace scapegoat
