// Ablation: §VI's security-aware path selection.
//
// Same topology and monitor set, two path-selection policies:
//   baseline — rank-greedy (select_paths),
//   secure   — rank-greedy with per-step minimization of the maximum node
//              presence ratio (secure_select_paths).
// Reported: max/mean node presence ratio, and single-attacker maximum-damage
// success probability over random attacker placements.
//
//   ./bench_ablation_security [trials]

#include <cstdlib>
#include <iostream>

#include "core/scapegoat.hpp"
#include "tomography/secure_placement.hpp"

namespace {

using namespace scapegoat;

struct PolicyResult {
  std::string name;
  double max_ratio = 0.0;
  double mean_ratio = 0.0;
  double success = 0.0;
  std::size_t paths = 0;
  bool ok = false;
};

PolicyResult evaluate(const Graph& g, const std::vector<Path>& paths,
                      std::string name, std::size_t trials, Rng& rng) {
  PolicyResult out;
  out.name = std::move(name);
  out.paths = paths.size();
  TomographyEstimator est(g, paths);
  if (!est.ok()) return out;
  out.ok = true;

  const auto ratios = node_presence_ratios(g, paths);
  Summary s = summarize(ratios);
  out.mean_ratio = s.mean;
  out.max_ratio = s.max;

  ScenarioConfig cfg;
  std::size_t successes = 0;
  Vector x(g.num_links());
  for (std::size_t trial = 0; trial < trials; ++trial) {
    for (auto& xi : x) xi = rng.uniform(cfg.delay_min_ms, cfg.delay_max_ms);
    AttackContext ctx(g, est, {rng.index(g.num_nodes())});
    ctx.x_true = x;
    MaxDamageOptions opt;
    opt.max_candidates = 24;
    opt.max_victims = 3;
    if (max_damage_attack(ctx, opt).best.success) ++successes;
  }
  out.success = ratio(successes, trials);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scapegoat;
  const std::size_t trials =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60;

  Rng rng(91);
  Graph g = isp_topology(IspParams{}, rng);
  MonitorPlacementOptions mp;
  mp.path_options.redundant_paths = 10;
  MonitorPlacementResult placement = place_monitors(g, mp, rng);
  if (!placement.identifiable) {
    std::cout << "placement failed\n";
    return 1;
  }

  // Baseline = the placement's own paths; secure = re-selection over the
  // same monitors with the exposure-aware policy.
  SecureSelectionOptions sopt;
  sopt.base.redundant_paths = 10;
  Rng rng_secure(92);
  PathSelectionResult secure =
      secure_select_paths(g, placement.monitors, sopt, rng_secure);

  Rng rng_eval_a(93), rng_eval_b(93);
  const PolicyResult base =
      evaluate(g, placement.paths, "baseline", trials, rng_eval_a);
  const PolicyResult sec = secure.identifiable
                               ? evaluate(g, secure.paths, "secure(§VI)",
                                          trials, rng_eval_b)
                               : PolicyResult{};

  std::cout << "Ablation — §VI security-aware path selection (wireline, "
            << placement.monitors.size() << " monitors)\n\n";
  Table t({"policy", "paths", "max_presence", "mean_presence",
           "1-attacker_success"});
  for (const PolicyResult* r : {&base, &sec}) {
    if (!r->ok) continue;
    t.add_row({r->name, std::to_string(r->paths), Table::num(r->max_ratio, 3),
               Table::num(r->mean_ratio, 3), Table::num(r->success, 3)});
  }
  t.print(std::cout);
  std::cout << "\nLower presence ratios shrink what any single compromised "
               "node can manipulate.\n";
  return 0;
}
