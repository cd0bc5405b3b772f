#include "tomography/estimator_interface.hpp"

#include <cassert>
#include <ostream>

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
    : paths_(std::move(paths)),
      r_(routing_matrix(g, paths_)),
      rs_(sparse_routing_matrix(g, paths_)) {
  if (r_.rows() == 0 || r_.cols() == 0) return;  // nothing identifiable
  qr_ = std::make_shared<const QrDecomposition>(
      r_, QrDecomposition::Pivoting::kColumn);
  ok_ = qr_->rank() == r_.cols();  // full column rank: identifiable
}

robust::Status Estimator::try_append_path(const Path& path) {
  std::vector<std::size_t> cols(path.links.begin(), path.links.end());
  std::vector<double> ones(cols.size(), 1.0);
  if (robust::Status st = rs_.try_append_row(cols, ones); !st.ok()) {
    return st;
  }
  // Dense mirror: one-row extension by copy (the CSR side is the storage
  // that matters at scale; to_dense(rs_) == r_ stays exact).
  Matrix grown(r_.rows() + 1, r_.cols());
  for (std::size_t i = 0; i < r_.rows(); ++i)
    for (std::size_t j = 0; j < r_.cols(); ++j) grown(i, j) = r_(i, j);
  for (LinkId l : path.links) grown(r_.rows(), l) = 1.0;
  r_ = std::move(grown);
  paths_.push_back(path);
  // R changed shape: both caches are recomputed on next use.
  qr_.reset();
  pinv_.reset();
  return robust::ok_status();
}

const QrDecomposition& Estimator::factorization() const {
  if (!qr_) {
    qr_ = std::make_shared<const QrDecomposition>(
        r_, QrDecomposition::Pivoting::kColumn);
  }
  return *qr_;
}

const Matrix& Estimator::pseudo_inverse() const {
  assert(ok_);
  if (!pinv_) {
    pinv_ = qr_ ? scapegoat::pseudo_inverse(*qr_)
                : scapegoat::pseudo_inverse(r_);
  }
  return *pinv_;
}

Vector Estimator::residual(const Vector& y) const {
  return y - rs_ * estimate(y);
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
      return std::make_unique<TomographyEstimator>(
          g, std::move(paths), options.least_squares);
    case EstimatorKind::kSparseRecovery: {
      SparseRecoveryOptions sparse;
      sparse.constraint = options.sparse_epsilon_ms > 0.0
                              ? SparseConstraint::kInfBall
                              : SparseConstraint::kEquality;
      sparse.epsilon_ms = options.sparse_epsilon_ms;
      sparse.prior = options.sparse_prior;
      sparse.lp_options = options.lp_options;
      return std::make_unique<SparseRecoveryEstimator>(g, std::move(paths),
                                                       std::move(sparse));
    }
    case EstimatorKind::kMulticastMle: {
      MulticastMleOptions mle;
      mle.min_rate = options.mle_min_rate;
      mle.max_fixed_point_iters = options.mle_fixed_point_iters;
      return std::make_unique<MulticastMleEstimator>(g, std::move(paths),
                                                     mle);
    }
  }
  return nullptr;
}

}  // namespace scapegoat
