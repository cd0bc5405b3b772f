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
    : paths_(std::move(paths)), r_(routing_matrix(g, paths_)) {
  if (r_.empty()) return;  // nothing identifiable
  qr_ = std::make_shared<const QrDecomposition>(
      r_.to_dense(), QrDecomposition::Pivoting::kColumn);
  ok_ = qr_->rank() == r_.cols();  // full column rank: identifiable
}

robust::Status Estimator::try_append_path(const Path& path) {
  std::vector<std::size_t> cols(path.links.begin(), path.links.end());
  std::vector<double> ones(cols.size(), 1.0);
  if (robust::Status st = r_.try_append_row(cols, ones); !st.ok()) {
    return st;
  }
  paths_.push_back(path);
  // R changed shape: both caches are recomputed on next use.
  qr_.reset();
  pinv_.reset();
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
  if (!pinv_) {
    pinv_ = qr_ ? scapegoat::pseudo_inverse(*qr_)
                : scapegoat::pseudo_inverse(r_.to_dense());
  }
  return *pinv_;
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
