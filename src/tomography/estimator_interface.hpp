// The estimator interface every downstream consumer (attack LPs, the Eq. 23
// detector, the experiment drivers, the streaming service shards) compiles
// against. Concrete families:
//
//   * EstimatorKind::kLeastSquares   — TomographyEstimator (estimator.hpp),
//     x̂ = R⁺y via the kept QR; the paper's Eq. 2 defender.
//   * EstimatorKind::kSparseRecovery — SparseRecoveryEstimator
//     (sparse_recovery.hpp), min ‖x − x_prior‖₁ s.t. ‖Rx − y‖∞ ≤ ε, x ⪰ 0
//     as a bounded-variable LP; the FRANTIC-style compressive-sensing
//     defender.
//   * EstimatorKind::kMulticastMle — MulticastMleEstimator
//     (multicast_mle.hpp), the Cáceres et al. gamma-recursion MLE on rooted
//     multicast trees; the loss-domain defender. Tree-native on root→leaf
//     path sets, pseudo-inverse delegation otherwise.
//
// The base class owns everything that is a property of the path set rather
// than of the solve strategy: the routing matrix (stored once, in CSR form),
// the column-pivoted QR factorization of R,
// identifiability (read off that factorization's rank), the lazily-cached
// pseudo-inverse G = R⁺ and left-null-space basis N, and the incremental
// path append, which updates both in place of re-forming them. R is factored
// once, at construction, from a dense copy that lives only for that
// factorization: least-squares estimates, G and N reuse that one
// factorization, and clones share it rather than copy it. Virtuals cover the
// solve itself plus two hooks the families genuinely differ on:
//
//   * streaming_residual — the service shard's per-batch Eq. 23 residual.
//     Least squares answers N·(Nᵀy) from the cached N and never solves for
//     x̂ or re-factorizes; the other families fit y and subtract R·x̂.
//   * residual_statistic — the scalar the Eq. 23 detector thresholds
//     against α. Least squares uses ‖y − Rx̂‖₁ verbatim; sparse recovery
//     subtracts its own per-path noise allowance ε first (the discrepancy
//     its measurement model cannot explain), otherwise the ℓ1 fit parked at
//     the ε-ball boundary would read as a permanent pseudo-inconsistency.
//
// clone() exists because Scenario and the service shards copy estimators
// into worker-private state.

#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse_matrix.hpp"
#include "robust/expected.hpp"
#include "tomography/link_state.hpp"

namespace scapegoat {

enum class EstimatorKind {
  kLeastSquares,
  kSparseRecovery,
  kMulticastMle,
};

std::string to_string(EstimatorKind kind);
std::optional<EstimatorKind> estimator_kind_from_string(std::string_view s);
std::ostream& operator<<(std::ostream& os, EstimatorKind kind);

class Estimator {
 public:
  virtual ~Estimator() = default;

  // Which family this estimator belongs to.
  virtual EstimatorKind method() const = 0;

  // x̂ from end-to-end measurements y. Preconditions are family-specific
  // (least squares requires ok(); sparse recovery works on any R).
  virtual Vector estimate(const Vector& y) const = 0;

  // Checked estimate with the structured error taxonomy — the entry point
  // for measurements that may be degraded or hostile.
  virtual robust::Expected<Vector> try_estimate(const Vector& y) const = 0;

  // Deep copy preserving all cached state (Scenario / shard copies).
  virtual std::unique_ptr<Estimator> clone() const = 0;

  // The per-batch streaming residual (service shards), whose ‖·‖₁ is the
  // Eq. 23 statistic. Defaults to residual(y) = y − R·estimate(y); least
  // squares overrides with N·(Nᵀy), the same vector to roundoff.
  virtual Vector streaming_residual(const Vector& y) const {
    return residual(y);
  }

  // The Eq. 23 inconsistency statistic thresholded against α. Defaults to
  // ‖y − R·estimate(y)‖₁ (Eq. 23 verbatim).
  virtual double residual_statistic(const Vector& y) const {
    return residual(y).norm1();
  }

  // False iff the path set does not identify all link metrics. Least
  // squares refuses to estimate when false; sparse recovery still works
  // (that is the m < n compressive-sensing regime) — for it this is
  // informational only.
  bool ok() const { return ok_; }

  std::size_t num_paths() const { return paths_.size(); }
  std::size_t num_links() const { return r_.cols(); }
  const std::vector<Path>& paths() const { return paths_; }
  // R in CSR form. A dense kernel takes sparse_r().to_dense() for the
  // length of one call rather than keeping a second copy.
  const SparseMatrix& sparse_r() const { return r_; }

  // Absorbs one more measurement path as a new row of R — the streaming
  // shape, where monitors announce additional (possibly repeated, i.e.
  // redundancy-adding) probe routes mid-run. R grows via the incremental
  // SparseMatrix::try_append_row (no rebuild from triplets). On an
  // ok() estimator G = R⁺ follows R by Greville's row-append update in
  // O(mn), and N gains one column in O(m) from the same w = Gᵀa: G and N of
  // the current R are formed first from the kept QR if nothing cached them
  // yet, so both after k appends are a pure function of the constructed path
  // set and the append order, whatever reads came between. The kept QR is
  // dropped; the next least-squares estimate() re-factors the grown R and
  // keeps the result, so estimates stay bitwise equal to a fresh QR while G
  // and N agree with one to roundoff. A row append can never lose column
  // rank, so ok() is preserved. kInvalidInput when the path's links don't
  // fit R's width or repeat a link.
  //
  // Thread safety: a constructed estimator's estimates only read the kept
  // factorization, so concurrent callers may share one. pseudo_inverse()
  // and left_null_basis() fill their caches on first call: make those calls
  // before sharing, as the experiment runners do before they fan out. An
  // append is a write, and the next estimate() re-fills the QR cache, so
  // after an append the estimator has a single owner until an estimate has
  // run again.
  robust::Status try_append_path(const Path& path);

  // Cached Moore-Penrose pseudo-inverse G = R⁺ (requires ok()): solved from
  // the kept factorization on first use, then carried along each
  // try_append_path by the row-append update. A property of R alone, so it
  // lives here: the attack LPs are linear in G whichever family the
  // defender runs.
  const Matrix& pseudo_inverse() const;

  // Nᵀ (requires ok()): its m − n rows are an orthonormal basis of the left
  // null space of R, so Nᵀy = 0 exactly when y ∈ range(R) (Theorem 1's
  // consistency condition) and N·Nᵀy = y − R·R⁺y. Formed from the kept
  // factorization on first use, never by factoring R, then extended by each
  // try_append_path. Stored as rows so Nᵀy and N·t both stream over
  // contiguous memory.
  const Matrix& left_null_basis() const;

  // y − R·estimate(y): zero (to numerical precision) iff y is consistent
  // with the linear model as this family fits it. The product runs through
  // the CSR form, bitwise equal to the dense one (sparse_matrix.hpp).
  Vector residual(const Vector& y) const;

  // Convenience: estimate then classify per Definition 1.
  std::vector<LinkState> classify(const Vector& y,
                                  const StateThresholds& t) const;

 protected:
  Estimator(const Graph& g, std::vector<Path> paths);
  Estimator(const Estimator&) = default;
  Estimator& operator=(const Estimator&) = default;
  Estimator(Estimator&&) = default;
  Estimator& operator=(Estimator&&) = default;

  // The column-pivoted QR of R: made by the constructor, shared by clones,
  // re-made (and kept) on first use after try_append_path.
  const QrDecomposition& factorization() const;

 private:
  std::vector<Path> paths_;
  SparseMatrix r_;
  bool ok_ = false;
  // Immutable once made, so copies share it; null after an append until
  // factorization() refills it.
  mutable std::shared_ptr<const QrDecomposition> qr_;
  // Lazily computed; once cached, updated (not dropped) by each append.
  mutable std::optional<Matrix> pinv_;
  mutable std::optional<Matrix> null_t_;  // Nᵀ, same life cycle as pinv_
};

// Factory configuration. Only the fields relevant to the requested kind are
// consulted; the sparse-recovery knobs map onto SparseRecoveryOptions
// (sparse_recovery.hpp) which carries the full set.
struct EstimatorOptions {
  // Sparse recovery: per-path ∞-ball noise allowance; 0 demands exact
  // consistency (the equality-constrained LP).
  double sparse_epsilon_ms = 0.0;
  // Sparse recovery: x_prior of the ℓ1 objective; empty means zeros (the
  // "anomalies over a silent baseline" model).
  Vector sparse_prior;
  // Multicast MLE: clamp floor for fitted per-link success rates
  // (MulticastMleOptions::min_rate, multicast_mle.hpp).
  double mle_min_rate = 1e-6;
};

std::unique_ptr<Estimator> make_estimator(EstimatorKind kind, const Graph& g,
                                          std::vector<Path> paths,
                                          const EstimatorOptions& options = {});

}  // namespace scapegoat
