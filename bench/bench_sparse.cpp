// LP crossover bench: the condensed tableau simplex against the factorized
// revised simplex.
//
// Generates an attack-shaped LP over `size` links (box-bounded manipulation
// variables, path-sum rows) and times both solvers on it. The tableau
// keeps no row per box-bounded variable (bounds are flips), so what is
// left to measure is the per-pivot cost: condensed tableau row updates
// against factorized FTRAN/BTRAN.
//
// Acceptance bar: at the largest size (≥5000 links in the default run) the
// revised simplex must beat the tableau by ≥5×, with the objectives in
// agreement to relative 1e-6. Exit code 1 on a miss. --quick runs reduced
// sizes below the 5k gate for smoke-testing and only enforces agreement.
//
//   bench_sparse [--quick] [--repeats N] [--out PATH]
//
// --out writes the machine-readable JSON consumed by scripts/bench_report.sh
// (checked in as BENCH_pr6.json).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "util/args.hpp"
#include "util/atomic_file.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

using scapegoat::Rng;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double best_of(std::size_t repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < repeats; ++r) {
    const double start = now_seconds();
    fn();
    best = std::min(best, now_seconds() - start);
  }
  return best;
}

// Attack-shaped LP: maximize total manipulation over box-bounded per-link
// variables subject to path-capacity rows. Only every 8th link is
// "attractive" (nonzero objective) — the rest stay parked at their lower
// bound under either solver, keeping the pivot count comparable across
// backends while the per-pivot cost difference (full tableau row ops vs
// factorized FTRAN/BTRAN) is what gets measured.
scapegoat::lp::Model make_attack_lp(std::size_t links, Rng& rng) {
  scapegoat::lp::Model m(scapegoat::lp::Sense::kMaximize);
  for (std::size_t j = 0; j < links; ++j)
    m.add_variable(0.0, rng.uniform(0.5, 2.0), j % 8 == 0 ? 1.0 : 0.0);
  const std::size_t rows = std::max<std::size_t>(30, links / 12);
  std::vector<char> used(links, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<scapegoat::lp::Term> terms;
    const std::size_t hops = 6 + rng.index(10);
    for (std::size_t h = 0; h < hops; ++h) {
      const std::size_t l = rng.index(links);
      if (used[l]) continue;
      used[l] = 1;
      terms.push_back({l, 1.0});
    }
    for (const auto& term : terms) used[term.var] = 0;
    m.add_constraint(std::move(terms), scapegoat::lp::RowType::kLessEqual,
                     rng.uniform(1.0, 4.0));
  }
  return m;
}

struct SizeResult {
  std::size_t links = 0;
  double tableau_lp_s = 0.0, revised_lp_s = 0.0;
  bool agree = false;
  double lp_speedup() const {
    return revised_lp_s > 0.0 ? tableau_lp_s / revised_lp_s : 0.0;
  }
};

SizeResult run_size(std::size_t links, std::size_t repeats) {
  Rng rng(0x5eed5eedull + links);
  SizeResult out;
  out.links = links;

  const scapegoat::lp::Model lp = make_attack_lp(links, rng);
  const std::size_t lp_repeats = links >= 2000 ? 1 : repeats;
  scapegoat::lp::Solution st, sr;
  out.tableau_lp_s =
      best_of(lp_repeats, [&] { st = scapegoat::lp::solve_tableau(lp); });
  out.revised_lp_s =
      best_of(repeats, [&] { sr = scapegoat::lp::solve_revised(lp); });

  out.agree = st.status == scapegoat::lp::SolveStatus::kOptimal &&
              sr.status == scapegoat::lp::SolveStatus::kOptimal &&
              std::abs(st.objective - sr.objective) <=
                  1e-6 * (1.0 + std::abs(st.objective)) &&
              lp.max_violation(sr.x) <= 1e-6;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  scapegoat::ArgParser args(argc, argv);
  const bool quick = args.get_bool("quick");
  const std::size_t repeats =
      static_cast<std::size_t>(args.get_int("repeats", 3));
  const std::string out_path = args.get_string("out");
  for (const std::string& err : args.errors())
    std::cerr << "warning: " << err << '\n';

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{250, 500, 1000}
            : std::vector<std::size_t>{500, 1000, 2000, 5000};

  run_size(sizes.front(), 1);  // warm-up, untimed

  std::vector<SizeResult> results;
  scapegoat::Table table(
      {"links", "tableau_lp_ms", "revised_lp_ms", "lp_speedup", "agree"});
  for (std::size_t links : sizes) {
    const SizeResult r = run_size(links, repeats);
    results.push_back(r);
    table.add_row({std::to_string(r.links),
                   scapegoat::Table::num(r.tableau_lp_s * 1e3, 2),
                   scapegoat::Table::num(r.revised_lp_s * 1e3, 2),
                   scapegoat::Table::num(r.lp_speedup(), 1),
                   r.agree ? "yes" : "NO"});
    std::cerr << "done: " << r.links << " links\n";
  }
  std::cout << "tableau vs revised simplex crossover, best of " << repeats
            << (quick ? " (quick sizes, 5x gate not enforced)" : "") << '\n';
  table.print(std::cout);

  const SizeResult& top = results.back();
  bool all_agree = true;
  for (const SizeResult& r : results) all_agree = all_agree && r.agree;
  const bool gate_met =
      quick || (top.links >= 5000 && top.lp_speedup() >= 5.0);
  std::cout << "gate at " << top.links << " links: lp "
            << scapegoat::Table::num(top.lp_speedup(), 1) << "x — "
            << (gate_met && all_agree ? "PASS" : "FAIL") << '\n';

  if (!out_path.empty()) {
    std::string json = "{\n  \"bench\": \"bench_sparse\",\n";
    json += "  \"workload\": \"synthetic_attack_lp\",\n";
    json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
    json += "  \"quick\": " + std::string(quick ? "true" : "false") + ",\n";
    json += "  \"sizes\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SizeResult& r = results[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "    {\"links\": %zu, \"tableau_lp_seconds\": %.6f, "
                    "\"revised_lp_seconds\": %.6f, \"lp_speedup\": %.2f, "
                    "\"agree\": %s}%s\n",
                    r.links, r.tableau_lp_s, r.revised_lp_s, r.lp_speedup(),
                    r.agree ? "true" : "false",
                    i + 1 < results.size() ? "," : "");
      json += buf;
    }
    json += "  ],\n";
    json += "  \"gate_links\": " + std::to_string(top.links) + ",\n";
    char gate[160];
    std::snprintf(gate, sizeof gate,
                  "  \"gate_lp_speedup\": %.2f,\n"
                  "  \"gate_met\": %s,\n  \"all_agree\": %s\n}\n",
                  top.lp_speedup(),
                  gate_met ? "true" : "false", all_agree ? "true" : "false");
    json += gate;
    if (!scapegoat::write_file_atomic(out_path, json).ok()) {
      std::cerr << "error: cannot write " << out_path << '\n';
      return 1;
    }
    std::cout << "wrote " << out_path << '\n';
  }
  return gate_met && all_agree ? 0 : 1;
}
