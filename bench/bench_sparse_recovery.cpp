// Sparse-recovery estimator bench: the PR-8 acceptance harness.
//
// Two regimes, both with a planted k-sparse anomaly (+900 ms on k random
// links over a U[1,20] ms prior — the abnormal band of §V-A):
//
//   identifiable    — a wireline scenario's routing matrix (m > n, full
//                     column rank). Both defenders apply; the equality-mode
//                     ℓ1 recovery must agree with least squares (the LP's
//                     feasible set is the singleton R⁺y) and both hit the
//                     planted support exactly.
//   underdetermined — a synthetic m = n/2 measurement matrix of random
//                     8-link paths. Least squares refuses (rank-deficient);
//                     the compressive-sensing LP still recovers, and for
//                     small k it must find the exact planted support most
//                     of the time — the regime this estimator exists for.
//
// Reported per (regime, k): support-exact rate, mean |x̂ − x|₁/n error, mean
// recover() wall time, mean LP iterations, relaxation count. Acceptance
// gate: identifiable equality recovery matches least squares elementwise
// (1e-6) on every trial, and the underdetermined support-exact rate is
// ≥ 0.8 for k ≤ 2. --quick shrinks trial counts; the gate still applies.
//
//   bench_sparse_recovery [--quick] [--repeats N] [--out PATH]
//
// --out writes the JSON consumed by scripts/bench_report.sh
// --sparse-recovery-out (checked in as BENCH_pr8.json).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "tomography/estimator.hpp"
#include "tomography/sparse_recovery.hpp"
#include "util/args.hpp"
#include "util/atomic_file.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

using namespace scapegoat;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Synthetic underdetermined system over a ring graph of `links` links. The
// Path rows are measurement index sets (only .links is consumed by the
// routing matrix), sampled as 8 random links each — an expander-style 0/1
// sensing matrix.
struct Underdetermined {
  Graph g;
  std::vector<Path> paths;
};

Underdetermined make_underdetermined(std::size_t links, std::size_t rows,
                                     Rng& rng) {
  Underdetermined out;
  for (std::size_t v = 0; v < links; ++v) out.g.add_node();
  for (NodeId v = 0; v < links; ++v)
    out.g.add_link(v, (v + 1) % static_cast<NodeId>(links));
  for (std::size_t i = 0; i < rows; ++i) {
    Path p;
    const auto picked = rng.sample_without_replacement(links, 8);
    p.links.assign(picked.begin(), picked.end());
    out.paths.push_back(std::move(p));
  }
  return out;
}

struct Cell {
  std::string regime;
  std::size_t k = 0;
  std::size_t trials = 0;
  std::size_t support_exact = 0;
  std::size_t relaxed = 0;
  std::size_t ls_matches = 0;  // identifiable regime only
  double mean_err_ms = 0.0;    // ‖x̂ − x_true‖₁ / n
  double mean_recover_s = 0.0;
  double mean_iterations = 0.0;
  double exact_rate() const {
    return trials == 0 ? 0.0 : static_cast<double>(support_exact) / trials;
  }
};

bool same_support(const std::vector<LinkId>& got,
                  const std::vector<LinkId>& want) {
  return got.size() == want.size() &&
         std::equal(got.begin(), got.end(), want.begin());
}

// One sweep cell: plant k anomalies over the prior, recover, score. `ls`
// is null in the underdetermined regime (least squares refuses there).
Cell run_cell(const std::string& regime, const SparseRecoveryEstimator& est,
              const TomographyEstimator* ls, std::size_t k,
              std::size_t trials, std::uint64_t seed) {
  Cell cell;
  cell.regime = regime;
  cell.k = k;
  const std::size_t n = est.num_links();
  for (std::size_t trial = 0; trial < trials; ++trial) {
    Rng rng(derive_seed(seed + k, trial));
    Vector x = est.prior();
    std::vector<std::size_t> planted =
        rng.sample_without_replacement(n, std::min(k, n));
    std::sort(planted.begin(), planted.end());
    for (std::size_t l : planted) x[l] += 900.0;
    const Vector y = est.sparse_r() * x;

    const double start = now_seconds();
    const auto rec = est.recover(y);
    cell.mean_recover_s += now_seconds() - start;
    if (!rec.ok()) continue;
    ++cell.trials;
    cell.mean_iterations += static_cast<double>(rec->lp_iterations);
    if (rec->relaxed) ++cell.relaxed;
    const std::vector<LinkId> want(planted.begin(), planted.end());
    if (same_support(rec->support, want)) ++cell.support_exact;
    double err = 0.0;
    for (std::size_t j = 0; j < n; ++j) err += std::abs(rec->x[j] - x[j]);
    cell.mean_err_ms += err / static_cast<double>(n);

    if (ls != nullptr) {
      const Vector x_ls = ls->estimate(y);
      bool match = true;
      for (std::size_t j = 0; j < n; ++j)
        if (std::abs(x_ls[j] - rec->x[j]) > 1e-6) match = false;
      if (match) ++cell.ls_matches;
    }
  }
  if (cell.trials > 0) {
    cell.mean_err_ms /= static_cast<double>(cell.trials);
    cell.mean_recover_s /= static_cast<double>(cell.trials);
    cell.mean_iterations /= static_cast<double>(cell.trials);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool quick = args.get_bool("quick");
  const std::size_t trials =
      quick ? 8 : static_cast<std::size_t>(args.get_int("repeats", 25));
  const std::string out_path = args.get_string("out");
  for (const std::string& err : args.errors())
    std::cerr << "warning: " << err << '\n';

  std::vector<Cell> cells;

  // ---- identifiable regime: wireline scenario, equality-mode recovery ----
  {
    Rng rng(0xa5e11ull);
    std::optional<Scenario> sc = make_scenario(TopologyKind::kWireline, rng);
    if (!sc) {
      std::cerr << "error: could not draw an identifiable scenario\n";
      return 1;
    }
    SparseRecoveryOptions so;
    so.prior = sc->x_true();
    const SparseRecoveryEstimator sparse(sc->graph(), sc->estimator().paths(),
                                         so);
    const TomographyEstimator ls(sc->graph(), sc->estimator().paths());
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}})
      cells.push_back(
          run_cell("identifiable", sparse, &ls, k, trials, 0x1de9ull));
  }

  // ---- underdetermined regime: m = n/2 synthetic sensing matrix ---------
  {
    Rng rng(0xc5c5ull);
    const std::size_t links = 64;
    const Underdetermined ud = make_underdetermined(links, links / 2, rng);
    SparseRecoveryOptions so;
    Vector prior(links);
    for (std::size_t j = 0; j < links; ++j) prior[j] = rng.uniform(1.0, 20.0);
    so.prior = prior;
    const SparseRecoveryEstimator sparse(ud.g, ud.paths, so);
    const TomographyEstimator ls(ud.g, ud.paths);
    if (ls.ok()) {
      std::cerr << "error: underdetermined system is unexpectedly "
                   "identifiable\n";
      return 1;
    }
    for (std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}})
      cells.push_back(
          run_cell("underdetermined", sparse, nullptr, k, trials, 0xcde9ull));
  }

  Table table({"regime", "k", "trials", "exact_support", "ls_match",
               "mean_err_ms", "recover_ms", "lp_iters", "relaxed"});
  for (const Cell& c : cells) {
    table.add_row({c.regime, std::to_string(c.k), std::to_string(c.trials),
                   Table::num(c.exact_rate(), 3),
                   c.regime == "identifiable" ? std::to_string(c.ls_matches)
                                              : std::string("-"),
                   Table::num(c.mean_err_ms, 4),
                   Table::num(c.mean_recover_s * 1e3, 2),
                   Table::num(c.mean_iterations, 1),
                   std::to_string(c.relaxed)});
  }
  std::cout << "sparse-recovery estimator, " << trials << " trials per cell"
            << (quick ? " (quick)" : "") << '\n';
  table.print(std::cout);

  bool ls_gate = true;
  bool support_gate = true;
  for (const Cell& c : cells) {
    if (c.regime == "identifiable" && c.ls_matches != c.trials)
      ls_gate = false;
    if (c.regime == "underdetermined" && c.k <= 2 && c.exact_rate() < 0.8)
      support_gate = false;
  }
  const bool gate_met = ls_gate && support_gate;
  std::cout << "gate: equality-vs-LS agreement "
            << (ls_gate ? "PASS" : "FAIL") << ", underdetermined support "
            << (support_gate ? "PASS" : "FAIL") << '\n';

  if (!out_path.empty()) {
    std::string json = "{\n  \"bench\": \"bench_sparse_recovery\",\n";
    json += "  \"workload\": \"planted_k_sparse_anomaly\",\n";
    json += "  \"trials_per_cell\": " + std::to_string(trials) + ",\n";
    json += "  \"quick\": " + std::string(quick ? "true" : "false") + ",\n";
    json += "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      char buf[384];
      std::snprintf(buf, sizeof buf,
                    "    {\"regime\": \"%s\", \"k\": %zu, \"trials\": %zu, "
                    "\"support_exact_rate\": %.3f, \"mean_err_ms\": %.4f, "
                    "\"mean_recover_seconds\": %.6f, \"mean_lp_iterations\": "
                    "%.1f, \"relaxed\": %zu, \"ls_matches\": %zu}%s\n",
                    c.regime.c_str(), c.k, c.trials, c.exact_rate(),
                    c.mean_err_ms, c.mean_recover_s, c.mean_iterations,
                    c.relaxed, c.ls_matches,
                    i + 1 < cells.size() ? "," : "");
      json += buf;
    }
    json += "  ],\n";
    json += "  \"gate_met\": " + std::string(gate_met ? "true" : "false") +
            "\n}\n";
    if (!write_file_atomic(out_path, json).ok()) {
      std::cerr << "error: cannot write " << out_path << '\n';
      return 1;
    }
    std::cout << "wrote " << out_path << '\n';
  }
  return gate_met ? 0 : 1;
}
