#include "testkit/properties.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>

#include "attack/attack_lp.hpp"
#include "attack/chosen_victim.hpp"
#include "attack/cut.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "detect/detector.hpp"
#include "graph/paths.hpp"
#include "linalg/cgls.hpp"
#include "linalg/conditioning.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse_matrix.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "obs/obs.hpp"
#include "simnet/multicast_probe.hpp"
#include "testkit/gen.hpp"
#include "testkit/oracles.hpp"
#include "tomography/estimator.hpp"
#include "tomography/multicast_mle.hpp"
#include "tomography/sparse_recovery.hpp"

namespace scapegoat::testkit {
namespace {

std::string describe_model(const lp::Model& model) {
  std::ostringstream os;
  os << model.num_variables() << " vars / " << model.num_constraints()
     << " constraints: " << lp::to_string(model);
  return os.str();
}

// ---- lp_simplex_matches_reference -----------------------------------------

bool prop_lp_simplex_matches_reference(Source& src) {
  const lp::Model model = gen_lp_model(src);
  const ReferenceLpResult ref = solve_lp_by_vertex_enumeration(model);
  const lp::Solution sol = lp::solve(model);

  if (!ref.feasible) {
    if (sol.status == lp::SolveStatus::kInfeasible) return true;
    // Status disagreement on a numerically borderline instance (feasibility
    // decided by < 1e-4 of slack) is indeterminate, not a bug.
    if (solve_lp_by_vertex_enumeration(model, 1e-4).feasible) return true;
    src.note("oracle: infeasible, simplex: " + lp::to_string(sol.status));
    src.note(describe_model(model));
    return false;
  }

  if (sol.status != lp::SolveStatus::kOptimal) {
    if (!solve_lp_by_vertex_enumeration(model, 1e-9).feasible) return true;
    src.note("oracle: feasible (obj " + std::to_string(ref.objective) +
             "), simplex: " + lp::to_string(sol.status));
    src.note(describe_model(model));
    return false;
  }
  if (model.max_violation(sol.x) > 1e-6) {
    src.note("simplex point violates the model by " +
             std::to_string(model.max_violation(sol.x)));
    src.note(describe_model(model));
    return false;
  }
  const double tol = 1e-6 * (1.0 + std::abs(ref.objective));
  if (std::abs(sol.objective - ref.objective) > tol) {
    src.note("objective mismatch: simplex " + std::to_string(sol.objective) +
             " vs reference " + std::to_string(ref.objective) + " over " +
             std::to_string(ref.vertices_checked) + " vertices");
    src.note(describe_model(model));
    return false;
  }
  return true;
}

// ---- lp_revised_simplex_matches_tableau -----------------------------------

bool prop_lp_revised_simplex_matches_tableau(Source& src) {
  const lp::Model model = gen_lp_model(src);
  const lp::Solution tab = lp::solve_tableau(model);
  const lp::Solution rev = lp::solve_revised(model);

  if (tab.status != rev.status) {
    // Borderline feasibility (the loose and tight vertex oracles disagree)
    // is indeterminate, not a divergence — the same adjudication the
    // simplex-vs-reference property uses.
    const bool loose = solve_lp_by_vertex_enumeration(model, 1e-4).feasible;
    const bool tight = solve_lp_by_vertex_enumeration(model, 1e-9).feasible;
    if (loose != tight) return true;
    src.note("status: tableau " + lp::to_string(tab.status) + " vs revised " +
             lp::to_string(rev.status));
    src.note(describe_model(model));
    return false;
  }
  if (tab.status != lp::SolveStatus::kOptimal) return true;
  if (model.max_violation(rev.x) > 1e-6) {
    src.note("revised point violates the model by " +
             std::to_string(model.max_violation(rev.x)));
    src.note(describe_model(model));
    return false;
  }
  const double tol = 1e-6 * (1.0 + std::abs(tab.objective));
  if (std::abs(tab.objective - rev.objective) > tol) {
    src.note("objective mismatch: tableau " + std::to_string(tab.objective) +
             " vs revised " + std::to_string(rev.objective));
    src.note(describe_model(model));
    return false;
  }
  return true;
}

// ---- linalg properties ----------------------------------------------------

// ---- linalg_sparse_matches_dense_least_squares ----------------------------

bool prop_sparse_matches_dense_least_squares(Source& src) {
  const std::size_t links = 2 + src.index(8);
  const std::size_t extra = src.index(8);
  const Matrix a = gen_full_rank_routing_matrix(src, links, extra);
  const Vector b = gen_vector(src, a.rows());

  // CSR round-trip must be lossless on this draw…
  const SparseMatrix s = SparseMatrix::from_dense(a);
  if (!approx_equal(s, a, 0.0) || !approx_equal(s.to_dense(), a, 0.0)) {
    src.note("CSR round-trip lost entries on a " + s.to_string());
    return false;
  }
  // …and SpMV must honor the bitwise contract against the dense product.
  const Vector probe = gen_vector(src, links);
  const Vector dense_prod = a * probe;
  const Vector sparse_prod = s * probe;
  for (std::size_t i = 0; i < dense_prod.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(dense_prod[i]) !=
        std::bit_cast<std::uint64_t>(sparse_prod[i])) {
      std::ostringstream os;
      os << "SpMV not bitwise at row " << i << ": dense " << dense_prod[i]
         << " vs sparse " << sparse_prod[i] << " (" << s.to_string() << ")";
      src.note(os.str());
      return false;
    }
  }

  const auto x_qr = least_squares(a, b, LeastSquaresMethod::kQr);
  const CglsResult cg = cgls_solve(s, b);
  if (!x_qr.has_value() || !cg.converged) {
    src.note("solver refused a full-rank routing system: qr=" +
             std::to_string(x_qr.has_value()) +
             " cgls_converged=" + std::to_string(cg.converged) +
             " rel_resid=" + std::to_string(cg.relative_residual));
    return false;
  }
  // CGLS error scales with κ² (normal equations); the identity block keeps
  // κ modest, but scale the tolerance by the measured conditioning anyway.
  const auto cond = estimate_condition(a);
  const double kappa =
      cond.has_value() ? std::max(1.0, cond->condition()) : 1e3;
  double scale = 1.0;
  for (const double v : *x_qr) scale = std::max(scale, std::abs(v));
  const double tol = 1e-9 * kappa * kappa * scale;
  for (std::size_t j = 0; j < links; ++j) {
    if (std::abs((*x_qr)[j] - cg.x[j]) > tol) {
      std::ostringstream os;
      os << a.rows() << "x" << links << " kappa " << kappa << ": x[" << j
         << "] qr=" << (*x_qr)[j] << " cgls=" << cg.x[j] << " tol=" << tol;
      src.note(os.str());
      return false;
    }
  }
  // Both must fit the data equally well (optimal LS values coincide even
  // when the matrix is ill-conditioned enough to spread the iterates).
  const double fit_qr = (b - a * (*x_qr)).norm2();
  const double fit_cg = (b - s * cg.x).norm2();
  if (std::abs(fit_qr - fit_cg) > 1e-7 * (1.0 + fit_qr)) {
    src.note("LS optimum differs: qr fit " + std::to_string(fit_qr) +
             " vs cgls fit " + std::to_string(fit_cg));
    return false;
  }
  return true;
}

// ---- linalg_sparse_row_append_matches_rebuild ------------------------------

// Incremental CSR row append (the streaming-service growth path) must leave
// storage BITWISE identical to rebuilding the whole matrix from triplets:
// same row offsets, same column indices, same value bit patterns — across
// any split point between "constructed" and "appended" rows, with exact
// zeros dropped either way, and with SpMV still bitwise equal to dense.
bool prop_sparse_row_append_matches_rebuild(Source& src) {
  const std::size_t cols = 1 + src.index(10);
  const std::size_t rows = 1 + src.index(12);

  std::vector<Triplet> triplets;
  std::vector<std::vector<std::size_t>> row_cols(rows);
  std::vector<std::vector<double>> row_vals(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t entries = src.index(cols + 1);  // 0..cols per row
    for (std::size_t c : src.distinct_indices(cols, entries)) {
      // Exact zeros sometimes, to exercise the drop rule on both paths.
      const double v = src.maybe(0.15) ? 0.0 : src.grid(0.25, 40);
      row_cols[r].push_back(c);
      row_vals[r].push_back(v);
      triplets.push_back({r, c, v});
    }
  }
  const auto rebuilt = SparseMatrix::try_from_triplets(rows, cols, triplets);
  if (!rebuilt.ok()) {
    src.note("triplet rebuild refused a clean draw: " +
             rebuilt.error_message());
    return false;
  }

  // Grow from a split point: rows [0, split) via triplets, the rest
  // appended one by one (split == 0 grows from the empty matrix).
  const std::size_t split = src.index(rows + 1);
  std::vector<Triplet> head;
  for (const Triplet& t : triplets)
    if (t.row < split) head.push_back(t);
  auto grown_or = SparseMatrix::try_from_triplets(split, cols, head);
  if (!grown_or.ok()) {
    src.note("head rebuild refused: " + grown_or.error_message());
    return false;
  }
  SparseMatrix grown = grown_or.value();
  for (std::size_t r = split; r < rows; ++r) {
    const robust::Status appended =
        grown.try_append_row(row_cols[r], row_vals[r]);
    if (!appended.ok()) {
      src.note("append of row " + std::to_string(r) +
               " refused: " + appended.error_message());
      return false;
    }
  }

  // A duplicate-column append must be rejected and leave storage untouched.
  if (cols >= 2) {
    const std::size_t nnz_before = grown.nnz();
    if (grown.try_append_row({0, 0}, {1.0, 2.0}).ok()) {
      src.note("duplicate-column append was accepted");
      return false;
    }
    if (grown.rows() != rows || grown.nnz() != nnz_before) {
      src.note("rejected append mutated the matrix");
      return false;
    }
  }

  const SparseMatrix& reference = rebuilt.value();
  if (grown.rows() != reference.rows() || grown.nnz() != reference.nnz() ||
      grown.col_index() != reference.col_index()) {
    src.note("storage shape diverged: grown " + grown.to_string() +
             " vs rebuilt " + reference.to_string());
    return false;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (grown.row_begin(r) != reference.row_begin(r) ||
        grown.row_end(r) != reference.row_end(r)) {
      src.note("row_ptr diverged at row " + std::to_string(r));
      return false;
    }
  }
  for (std::size_t i = 0; i < grown.values().size(); ++i) {
    if (std::bit_cast<std::uint64_t>(grown.values()[i]) !=
        std::bit_cast<std::uint64_t>(reference.values()[i])) {
      src.note("value not bitwise at nnz index " + std::to_string(i));
      return false;
    }
  }

  // And the grown matrix still honors the §12 bitwise SpMV contract.
  const Vector probe = gen_vector(src, cols);
  const Vector dense_prod = reference.to_dense() * probe;
  const Vector sparse_prod = grown * probe;
  for (std::size_t i = 0; i < dense_prod.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(dense_prod[i]) !=
        std::bit_cast<std::uint64_t>(sparse_prod[i])) {
      src.note("SpMV on the grown matrix not bitwise at row " +
               std::to_string(i));
      return false;
    }
  }
  return true;
}

bool prop_qr_matches_normal_equations(Source& src) {
  const std::size_t cols = 1 + src.index(5);
  const std::size_t rows = cols + src.index(4);
  const double decades = src.grid_nonneg(1.0, 2);  // condition ≤ ~10²
  const Matrix a = gen_matrix_with_rank(src, rows, cols, cols, decades);
  const Vector b = gen_vector(src, rows);

  const auto x_qr = least_squares(a, b, LeastSquaresMethod::kQr);
  const auto x_ne = least_squares(a, b, LeastSquaresMethod::kNormalEquations);
  const std::vector<double> x_ref = ref_normal_equations(a, b);
  if (!x_qr.has_value() || !x_ne.has_value() || x_ref.empty()) {
    src.note("a full-column-rank solve refused: qr=" +
             std::to_string(x_qr.has_value()) +
             " ne=" + std::to_string(x_ne.has_value()) +
             " ref=" + std::to_string(!x_ref.empty()));
    return false;
  }
  // Normal equations square the conditioning; scale the agreement tolerance
  // by the generated condition decades.
  double scale = 1.0;
  for (const double v : x_ref) scale = std::max(scale, std::abs(v));
  const double tol = 1e-8 * std::pow(10.0, 2.0 * decades) * scale;
  for (std::size_t j = 0; j < cols; ++j) {
    const double d_ne = std::abs((*x_qr)[j] - (*x_ne)[j]);
    const double d_ref = std::abs((*x_qr)[j] - x_ref[j]);
    if (d_ne > tol || d_ref > tol) {
      std::ostringstream os;
      os << rows << "x" << cols << " cond decades " << decades << ": x[" << j
         << "] qr=" << (*x_qr)[j] << " ne=" << (*x_ne)[j]
         << " ref=" << x_ref[j] << " tol=" << tol;
      src.note(os.str());
      return false;
    }
  }
  return true;
}

bool prop_pinv_satisfies_moore_penrose(Source& src) {
  const std::size_t cols = 1 + src.index(4);
  const std::size_t rows = cols + src.index(4);
  const double decades = src.grid_nonneg(1.0, 2);
  const Matrix a = gen_matrix_with_rank(src, rows, cols, cols, decades);

  const Matrix g = pseudo_inverse(a);
  const double tol = 1e-8 * std::pow(10.0, 2.0 * decades);
  if (!check_moore_penrose(a, g, tol)) {
    std::ostringstream os;
    os << rows << "x" << cols << " cond decades " << decades
       << ": Moore-Penrose axioms violated beyond tol " << tol;
    src.note(os.str());
    return false;
  }
  const auto checked = try_pseudo_inverse(a);
  if (!checked.ok() || !approx_equal(g, *checked, 1e-12)) {
    src.note("try_pseudo_inverse disagrees with pseudo_inverse: " +
             checked.error_message());
    return false;
  }
  return true;
}

bool prop_rank_detects_deficiency(Source& src) {
  const std::size_t rows = 2 + src.index(5);
  const std::size_t cols = 2 + src.index(4);
  const std::size_t max_rank = std::min(rows, cols);
  const std::size_t rank = 1 + src.index(max_rank);
  const Matrix a = gen_matrix_with_rank(src, rows, cols, rank);
  const Vector b = gen_vector(src, rows);

  const std::size_t measured = matrix_rank(a);
  if (measured != rank) {
    src.note("constructed rank " + std::to_string(rank) +
             " but matrix_rank reports " + std::to_string(measured));
    return false;
  }
  RankTracker tracker(cols);
  for (std::size_t i = 0; i < rows; ++i) tracker.add(a.row(i));
  if (tracker.rank() != rank) {
    src.note("RankTracker reports " + std::to_string(tracker.rank()) +
             " for constructed rank " + std::to_string(rank));
    return false;
  }
  const auto solve = try_least_squares(a, b);
  if (rank < cols) {
    if (solve.ok() ||
        solve.code() != robust::ErrorCode::kRankDeficient) {
      src.note("rank-deficient solve was not refused as kRankDeficient");
      return false;
    }
    if (least_squares(a, b).has_value()) {
      src.note("least_squares accepted a rank-deficient system");
      return false;
    }
  } else if (!solve.ok()) {
    src.note("full-rank solve refused: " + solve.error_message());
    return false;
  }
  return true;
}

// ---- attack_feasibility_matches_cut_condition -----------------------------

bool prop_attack_feasibility_matches_cut_condition(Source& src) {
  auto sc = gen_er_scenario(src, 14 + src.index(8), 0.25);
  if (!sc.has_value()) return true;  // unidentifiable draw: vacuous
  const auto& paths = sc->estimator().paths();

  // Differential check of the cut predicate itself on an arbitrary draw.
  const std::vector<NodeId> rand_attackers = gen_attackers(src, *sc, 4);
  const std::vector<LinkId> rand_victims{gen_victim(src, *sc)};
  if (is_perfect_cut(paths, rand_attackers, rand_victims) !=
      ref_perfect_cut(paths, rand_attackers, rand_victims)) {
    src.note("is_perfect_cut disagrees with the literal graph evaluation");
    return false;
  }

  // Theorem 1 construction: victim with non-monitor endpoints, attackers =
  // the endpoints' full outside neighborhood — a perfect cut by design.
  const std::size_t offset = src.index(sc->graph().num_links());
  for (std::size_t step = 0; step < sc->graph().num_links(); ++step) {
    const LinkId victim = (offset + step) % sc->graph().num_links();
    const Link& l = sc->graph().link(victim);
    if (sc->is_monitor(l.u) || sc->is_monitor(l.v)) continue;
    std::vector<NodeId> attackers;
    for (const Adjacent& a : sc->graph().neighbors(l.u))
      if (a.neighbor != l.v) attackers.push_back(a.neighbor);
    for (const Adjacent& a : sc->graph().neighbors(l.v))
      if (a.neighbor != l.u &&
          std::find(attackers.begin(), attackers.end(), a.neighbor) ==
              attackers.end())
        attackers.push_back(a.neighbor);
    if (attackers.empty()) continue;

    if (!ref_perfect_cut(paths, attackers, {victim})) {
      src.note("neighborhood construction is not a perfect cut (victim " +
               std::to_string(victim) + ")");
      return false;
    }
    AttackContext ctx = sc->context(attackers);
    const AttackResult r =
        chosen_victim_attack(ctx, {victim}, ManipulationMode::kConsistent);
    if (!r.success) {
      src.note("Theorem 1 violated: perfect cut but consistent LP " +
               lp::to_string(r.status) + " (victim " + std::to_string(victim) +
               ", " + std::to_string(attackers.size()) + " attackers)");
      return false;
    }
    const double residual =
        detect_scapegoating(sc->estimator(), r.y_observed).residual_norm1;
    if (residual >= 1.0) {
      src.note("Theorem 3 violated: consistent attack left residual " +
               std::to_string(residual));
      return false;
    }
    return true;  // one constructed victim per case
  }
  return true;  // no interior link in this draw: vacuous
}

// ---- detector_residual_matches_eq23 ---------------------------------------

bool prop_detector_residual_matches_eq23(Source& src) {
  auto sc = gen_er_scenario(src, 12 + src.index(6), 0.3);
  if (!sc.has_value()) return true;
  const Estimator& est = sc->estimator();

  Vector y = sc->clean_measurements();
  const std::size_t tampered = src.index(y.size() + 1);
  for (std::size_t i = 0; i < tampered; ++i)
    y[src.index(y.size())] += src.grid_nonneg(50.0, 24);  // up to 1200 ms

  const DetectionOutcome out = detect_scapegoating(est, y);
  const double ref = ref_eq23_residual(est.r(), est.estimate(y), y);
  if (std::abs(out.residual_norm1 - ref) > 1e-6 * (1.0 + ref)) {
    src.note("detector residual " + std::to_string(out.residual_norm1) +
             " vs literal Eq. 23 " + std::to_string(ref));
    return false;
  }
  const DetectorOptions defaults;
  if (std::abs(ref - defaults.alpha) > 1e-6 &&
      out.detected != (ref > defaults.alpha)) {
    src.note("detected flag inconsistent with residual " +
             std::to_string(ref) + " vs alpha " +
             std::to_string(defaults.alpha));
    return false;
  }
  return true;
}

// ---- tomography_cached_factorization_matches_fresh_qr ---------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (!same_bits(a(i, j), b(i, j))) return false;
  return true;
}

// The least-squares estimator answers from the one QR factorization of R it
// keeps, rather than factoring per call. Differential oracle: every answer
// must be bitwise equal to the stateless kernels that factor R afresh —
// least_squares(R, y, kQr) for estimate/try_estimate/residual and
// pseudo_inverse(R) for G — on the constructed path set and again after
// try_append_path (against an estimator built on the grown path set).
// Under an installed registry, repeated calls and clone() must factor 0
// more times than construction did.
bool prop_cached_factorization_matches_fresh_qr(Source& src) {
  auto sc = gen_er_scenario(src, 10 + src.index(8), 0.3);
  if (!sc.has_value()) return true;  // unidentifiable draw: vacuous
  std::vector<Path> paths = sc->estimator().paths();
  const Graph& g = sc->graph();

  // Compares one estimator's answers on y against fresh factorizations of
  // its current R.
  auto matches_fresh = [&](const Estimator& est, const Vector& y,
                           const std::string& when) {
    const auto fresh_x = least_squares(est.r(), y, LeastSquaresMethod::kQr);
    if (!fresh_x.has_value()) {
      src.note(when + ": fresh QR refused an identifiable system");
      return false;
    }
    const auto tried = est.try_estimate(y);
    const char* differs = nullptr;
    if (!same_bits(est.estimate(y), *fresh_x)) {
      differs = "estimate";
    } else if (!tried.ok() || !same_bits(*tried, *fresh_x)) {
      differs = "try_estimate";
    } else if (!same_bits(est.residual(y), residual(est.r(), *fresh_x, y))) {
      differs = "residual";
    } else if (!same_bits(est.pseudo_inverse(), pseudo_inverse(est.r()))) {
      differs = "pseudo_inverse";
    }
    if (differs == nullptr) return true;
    src.note(when + ": " + differs + " not bitwise equal to a fresh QR on a " +
             std::to_string(est.num_paths()) + "x" +
             std::to_string(est.num_links()) + " system");
    return false;
  };

  obs::MetricsRegistry registry;
  std::uint64_t built = 0, reused = 0;
  std::unique_ptr<Estimator> est;
  std::unique_ptr<Estimator> copy;
  Vector y = gen_vector(src, paths.size());
  {
    obs::ScopedInstrumentation scope(registry);
    est = std::make_unique<TomographyEstimator>(g, paths);
    built = registry.snapshot().counter_value("linalg.qr.factorizations");
    if (!est->ok()) {
      src.note("estimator refused the scenario's identifiable path set");
      return false;
    }
    for (int round = 0; round < 2; ++round) {
      (void)est->estimate(y);
      (void)est->try_estimate(y);
      (void)est->residual(y);
      (void)est->pseudo_inverse();
    }
    copy = est->clone();
    (void)copy->estimate(y);
    (void)copy->residual(y);
    reused = registry.snapshot().counter_value("linalg.qr.factorizations") -
             built;
  }
  if (built != 1 || reused != 0) {
    src.note("construction factored " + std::to_string(built) +
             " times, later calls and clone() " + std::to_string(reused) +
             " more");
    return false;
  }
  if (!matches_fresh(*est, y, "constructed") ||
      !matches_fresh(*copy, y, "clone")) {
    return false;
  }

  // Grow the path set: repeats of existing routes and freshly sampled ones.
  Rng rng = gen_rng(src);
  const std::size_t appends = 1 + src.index(3);
  for (std::size_t k = 0; k < appends; ++k) {
    Path extra = paths[src.index(paths.size())];
    if (src.maybe(0.5)) {
      const auto ends = src.distinct_indices(g.num_nodes(), 2);
      Path sampled = sample_simple_path(g, ends[0], ends[1], 8, rng);
      if (!sampled.empty()) extra = std::move(sampled);
    }
    if (!est->try_append_path(extra).ok()) {
      src.note("try_append_path refused a simple path of the graph");
      return false;
    }
    paths.push_back(std::move(extra));
  }
  y = gen_vector(src, paths.size());
  // pseudo_inverse() first: the order a service shard calls in.
  const TomographyEstimator rebuilt(g, paths);
  if (!same_bits(est->pseudo_inverse(), rebuilt.pseudo_inverse()) ||
      !same_bits(est->estimate(y), rebuilt.estimate(y))) {
    src.note("after " + std::to_string(appends) +
             " appends: not bitwise equal to an estimator built on the grown "
             "path set");
    return false;
  }
  return matches_fresh(*est, y, "after append");
}

// ---- tomography_sparse_matches_least_squares ------------------------------

// Differential oracle for the sparse-recovery family on identifiable
// systems: with R full column rank and exactly consistent measurements,
// Rx = y has the unique nonnegative solution x, so the equality-mode ℓ1
// LP must return the SAME point least squares does — elementwise, with the
// planted anomaly support recovered exactly, no relaxation, and zero
// excess residual statistic.
bool prop_sparse_recovery_matches_least_squares(Source& src) {
  auto sc = gen_er_scenario(src, 12 + src.index(6), 0.3);
  if (!sc.has_value()) return true;  // unidentifiable draw: vacuous
  const Estimator& ls = sc->estimator();
  const std::size_t n = ls.num_links();

  // Plant a k-sparse anomaly (well inside the abnormal band) over the true
  // metrics — the compressive-sensing ground-truth model.
  const std::size_t k = 1 + src.index(std::min<std::size_t>(n, 4));
  Vector x = sc->x_true();
  std::vector<std::size_t> planted = src.distinct_indices(n, k);
  std::sort(planted.begin(), planted.end());
  for (const std::size_t l : planted) x[l] += 300.0 + src.grid_nonneg(100.0, 9);
  const Vector y = ls.r() * x;

  SparseRecoveryOptions so;
  so.prior = sc->x_true();
  const SparseRecoveryEstimator sparse(sc->graph(), ls.paths(), so);
  const auto rec = sparse.recover(y);
  if (!rec.ok()) {
    src.note("equality recovery refused consistent measurements: " +
             rec.error_message());
    return false;
  }
  if (rec->relaxed) {
    src.note("relaxation fired on exactly consistent measurements (eps " +
             std::to_string(rec->epsilon_used) + ")");
    return false;
  }
  const Vector x_ls = ls.estimate(y);
  double scale = 1.0;
  for (const double v : x_ls) scale = std::max(scale, std::abs(v));
  for (std::size_t j = 0; j < n; ++j) {
    if (rec->x[j] < -1e-9) {
      src.note("recovered metric went negative at link " + std::to_string(j));
      return false;
    }
    if (std::abs(rec->x[j] - x_ls[j]) > 1e-6 * scale) {
      std::ostringstream os;
      os << "x[" << j << "] sparse=" << rec->x[j] << " vs ls=" << x_ls[j]
         << " on a " << ls.num_paths() << "x" << n << " system (k=" << k
         << ")";
      src.note(os.str());
      return false;
    }
  }
  const std::vector<LinkId> want(planted.begin(), planted.end());
  if (rec->support != want) {
    src.note("support missed the planted anomaly set (got " +
             std::to_string(rec->support.size()) + " links, planted " +
             std::to_string(want.size()) + ")");
    return false;
  }
  if (sparse.residual_statistic(y) > 1e-6 * (1.0 + y.norm1())) {
    src.note("nonzero excess statistic on consistent measurements: " +
             std::to_string(sparse.residual_statistic(y)));
    return false;
  }
  return true;
}

// ---- tomography_mle_matches_closed_form -----------------------------------

// Three independent checks of the gamma-recursion MLE on one generated
// tree:
//   1. exact interpolation — on model-implied γ's the fit must reproduce
//      the generating logical rates (closed form and fixed point alike);
//   2. the textbook two-leaf closed form on every binary internal node
//      whose children are both leaves, against the fit's reach estimate;
//   3. brute force — on trees with ≤ 4 logical links, the fit's exhaustive
//      outcome log-likelihood must match the best grid-search rate vector
//      (the recursive solution is the maximizer, or it is wrong).
// Clamped fits (infeasible empirical γ's — negative sampled correlation)
// leave the interior of the parameter space, where the recursion's output
// is a boundary point, not the interior MLE; 2 and 3 are skipped there.
bool prop_mle_matches_closed_form(Source& src) {
  const MulticastTreeDraw draw = gen_multicast_tree(src, 5, 2);
  const MulticastTree& tree = draw.tree;
  const std::size_t n = tree.num_nodes();
  const std::size_t num_links = draw.graph.num_links();

  // Ground truth: per-physical-link delivery on a 0.05 grid in [0.6, 1];
  // logical rates are the chain products.
  std::vector<double> delivery(num_links);
  for (double& d : delivery) d = 1.0 - src.grid_nonneg(0.05, 8);
  Vector alpha(n);
  alpha[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    alpha[k] = 1.0;
    for (const LinkId l : tree.nodes[k].chain) alpha[k] *= delivery[l];
  }

  // 1) Exact-gamma interpolation.
  const auto exact =
      solve_multicast_mle(num_links, tree, model_gammas(tree, alpha));
  if (!exact.ok()) {
    src.note("exact-gamma solve refused: " + exact.error_message());
    return false;
  }
  if (!exact->converged || exact->residual > 1e-9) {
    src.note("exact gammas left residual " + std::to_string(exact->residual) +
             " (converged=" + std::to_string(exact->converged) + ")");
    return false;
  }
  for (std::size_t k = 1; k < n; ++k) {
    if (std::abs(exact->link_success[k] - alpha[k]) > 1e-7) {
      std::ostringstream os;
      os << "node " << k << ": recovered " << exact->link_success[k]
         << " vs true " << alpha[k] << " on " << n << " nodes";
      src.note(os.str());
      return false;
    }
  }

  // 2+3) Finite-probe run through the simulator.
  simnet::MulticastProbeOptions popt;
  popt.probes = 256 + 64 * static_cast<std::size_t>(src.choice(8));
  popt.seed = src.choice(0xffffffffull);
  popt.link_delivery = delivery;
  const simnet::MulticastProbeRun run =
      simnet::run_multicast_probes(tree, popt);

  const auto fit = solve_multicast_mle(num_links, tree, run.obs);
  if (!fit.ok()) {
    // A dead leaf is the one legitimate refusal on a finite run.
    if (fit.code() == robust::ErrorCode::kMissingData) return true;
    src.note("finite-run solve refused: " + fit.error_message());
    return false;
  }
  if (fit->clamped > 0) return true;  // boundary fit: interior checks vacuous

  // Two-leaf closed form — hidden internal nodes only: the root's reach is
  // pinned at 1 (probes originate there), so the Cáceres Â formula does not
  // apply to a root-split shape.
  for (std::size_t k = 1; k < n; ++k) {
    const auto& node = tree.nodes[k];
    if (node.children.size() != 2 ||
        !tree.nodes[node.children[0]].is_leaf() ||
        !tree.nodes[node.children[1]].is_leaf())
      continue;
    const std::vector<double> ref =
        ref_two_leaf_mle(run.obs.gamma(node.children[0]),
                         run.obs.gamma(node.children[1]), run.obs.gamma(k));
    if (std::abs(fit->node_reach[k] - ref[0]) >
        1e-9 * std::max(1.0, std::abs(ref[0]))) {
      std::ostringstream os;
      os << "two-leaf node " << k << ": fit reach " << fit->node_reach[k]
         << " vs textbook " << ref[0];
      src.note(os.str());
      return false;
    }
  }

  if (n - 1 <= 4 && !run.outcome_counts.empty()) {
    const double fit_ll = ref_multicast_outcome_loglik(
        tree, fit->link_success, run.outcome_counts, run.probes_sent);
    if (std::isfinite(fit_ll)) {
      const double best = ref_multicast_mle_grid(tree, run.outcome_counts,
                                                 run.probes_sent);
      // Grid resolution bounds how much the grid can win by near the
      // optimum: the likelihood is smooth in the interior, so a true
      // maximizer can trail the best grid point only marginally.
      const double slack =
          1e-3 * static_cast<double>(run.probes_sent) / 9.0 + 1e-6;
      if (fit_ll < best - slack) {
        std::ostringstream os;
        os << "recursive fit loglik " << fit_ll << " < grid best " << best
           << " − " << slack << " on " << n - 1 << " links, "
           << run.probes_sent << " probes";
        src.note(os.str());
        return false;
      }
    }
  }
  return true;
}

// ---- checkpoint_resume_equivalence ----------------------------------------

std::string unique_checkpoint_path() {
  static std::atomic<unsigned> counter{0};
  std::ostringstream os;
  os << (std::filesystem::temp_directory_path() / "scapegoat_prop_ckpt_")
            .string()
     << ::getpid() << "_" << counter.fetch_add(1) << ".ckpt";
  return os.str();
}

bool same_series(const PresenceRatioSeries& a, const PresenceRatioSeries& b,
                 Source& src) {
  if (a.total_trials != b.total_trials || a.bins.size() != b.bins.size()) {
    src.note("series shape differs after resume");
    return false;
  }
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    if (a.bins[i].trials != b.bins[i].trials ||
        a.bins[i].successes != b.bins[i].successes) {
      src.note("bin " + std::to_string(i) + " differs after resume: " +
               std::to_string(b.bins[i].successes) + "/" +
               std::to_string(b.bins[i].trials) + " vs " +
               std::to_string(a.bins[i].successes) + "/" +
               std::to_string(a.bins[i].trials));
      return false;
    }
  }
  return true;
}

bool prop_checkpoint_resume_equivalence(Source& src) {
  PresenceRatioOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 4 + src.index(5);
  opt.seed = src.choice(0xffffull);
  opt.threads = 1 + src.index(2);
  const std::size_t stop_after = 1 + src.index(opt.trials_per_topology - 1);

  const PresenceRatioSeries full =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);

  const std::string path = unique_checkpoint_path();
  opt.resilience.checkpoint_path = path;
  opt.resilience.stop_after_new_trials = stop_after;
  const PresenceRatioSeries partial =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);

  opt.resilience.resume = true;
  opt.resilience.stop_after_new_trials = 0;
  const PresenceRatioSeries resumed =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);

  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".manifest", ec);

  if (partial.total_trials < full.total_trials && !partial.interrupted) {
    src.note("stopped run not marked interrupted at quota " +
             std::to_string(stop_after));
    return false;
  }
  if (resumed.trials_replayed == 0) {
    src.note("resume replayed no trials despite a journaled prefix");
    return false;
  }
  return same_series(full, resumed, src);
}

}  // namespace

const std::map<std::string, NamedProperty>& property_registry() {
  static const std::map<std::string, NamedProperty> registry = {
      {"lp_simplex_matches_reference",
       {prop_lp_simplex_matches_reference, 200, 1}},
      {"lp_revised_simplex_matches_tableau",
       {prop_lp_revised_simplex_matches_tableau, 200, 1}},
      {"linalg_sparse_matches_dense_least_squares",
       {prop_sparse_matches_dense_least_squares, 200, 1}},
      {"linalg_sparse_row_append_matches_rebuild",
       {prop_sparse_row_append_matches_rebuild, 200, 1}},
      {"linalg_qr_matches_normal_equations",
       {prop_qr_matches_normal_equations, 200, 1}},
      {"linalg_pinv_satisfies_moore_penrose",
       {prop_pinv_satisfies_moore_penrose, 200, 1}},
      {"linalg_rank_detects_deficiency",
       {prop_rank_detects_deficiency, 200, 1}},
      {"attack_feasibility_matches_cut_condition",
       {prop_attack_feasibility_matches_cut_condition, 40, 5}},
      {"detector_residual_matches_eq23",
       {prop_detector_residual_matches_eq23, 60, 4}},
      {"tomography_cached_factorization_matches_fresh_qr",
       {prop_cached_factorization_matches_fresh_qr, 60, 4}},
      {"tomography_sparse_matches_least_squares",
       {prop_sparse_recovery_matches_least_squares, 60, 4}},
      {"tomography_mle_matches_closed_form",
       {prop_mle_matches_closed_form, 100, 3}},
      {"checkpoint_resume_equivalence",
       {prop_checkpoint_resume_equivalence, 8, 25}},
  };
  return registry;
}

PropertyOutcome check_registry_property(const std::string& name) {
  const auto it = property_registry().find(name);
  if (it == property_registry().end()) {
    PropertyOutcome out;
    out.name = name;
    out.passed = false;
    out.notes.push_back("unknown property name");
    return out;
  }
  PropertyConfig cfg = PropertyConfig::from_env(it->second.default_iters);
  if (cfg.env_iterations) cfg = cfg.scaled(it->second.iters_divisor);
  return check_property(name, it->second.property, cfg);
}

}  // namespace scapegoat::testkit
