// scapegoat_cli — command-line driver over the library.
//
//   scapegoat_cli topo    --topology wireline --seed 3 --dump
//   scapegoat_cli attack  --topology fig1 --strategy chosen --victim 10
//   scapegoat_cli attack  --topology wireless --strategy max --attackers 4,17
//   scapegoat_cli detect  --topology wireline --strategy obfuscation
//   scapegoat_cli fig     --n 4
//
// Topologies: fig1 | wireline | wireless | file:<edge-list path>.
// Strategies: chosen (needs --victim, 1-based link id) | max | obfuscation.
// Common flags: --seed N, --attackers a,b,c (node ids; default: Fig. 1's
// B,C or 2 random nodes), --redundant N, --alpha MS, --csv.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "core/resilience_flags.hpp"
#include "core/scapegoat.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "robust/watchdog.hpp"
#include "service/session.hpp"
#include "util/args.hpp"
#include "util/atomic_file.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace scapegoat;

int usage(const char* reason) {
  if (reason) std::cerr << "error: " << reason << "\n\n";
  std::cerr <<
      "usage: scapegoat_cli <command> [flags]\n"
      "  topo    — generate/inspect a topology (--dump prints an edge list)\n"
      "  attack  — run a scapegoating strategy and print the link table\n"
      "  detect  — attack + Eq. 23 detection + localization\n"
      "  fig     — reproduce a paper figure (--n 2|4|5|6)\n"
      "  faults  — probe-loss sweep through the degraded pipeline\n"
      "            (--rates permille list, --trials N, --retries N)\n"
      "  metrics — run an instrumented workload and print the metrics\n"
      "            registry (--trials N, --format table|json|csv)\n"
      "  ablate-defender — detection trade-off curves, least squares vs\n"
      "            sparse recovery on the same attacks (DESIGN.md §14)\n"
      "            (--topology wireline|wireless --topologies N --trials N\n"
      "             --clean-trials N --k a,b,c --eps e1,e2 --families\n"
      "             unrestricted,consistent,sparse-aware --alpha MS\n"
      "             --noise MS --anomaly MS --attack-eps MS --out PATH)\n"
      "  ablate-loss — loss-domain grey-hole grid, multicast MLE vs least\n"
      "            squares on the same ground truth (DESIGN.md §15)\n"
      "            (--topology wireline|wireless --topologies N --trials N\n"
      "             --clean-trials N --probes N --receivers N\n"
      "             --rates permille list --families\n"
      "             subtree_framing,split_framing --probe-mode\n"
      "             unicast|multicast --mle-alpha P --ls-alpha X\n"
      "             --min-delivery permille --out PATH)\n"
      "  serve   — streaming probe-ingest session: bounded queues, shards,\n"
      "            online Eq. 23 windows, supervised restart\n"
      "            (--topologies N --shards N --batches N --producers N\n"
      "             --capacity N --high-water N --shed off|auto|pinned\n"
      "             --shed-permille N --window N --stride N --alpha MS\n"
      "             --attack-every N --noise MS --grow-every N --open-loop\n"
      "             --batch-budget-ms MS --journal PATH --resume)\n"
      "flags: --topology fig1|wireline|wireless|file:PATH  --seed N\n"
      "       --estimator ls|sparse|mle  --epsilon MS (sparse defender ε)\n"
      "       --strategy chosen|max|obfuscation  --victim L(1-based)\n"
      "       --attackers a,b,c  --redundant N  --alpha MS  --csv\n"
      "       --stealthy (Theorem-1 consistent manipulation)\n"
      "       --save PATH / --load PATH (scenario persistence)\n"
      "       --threads N (worker threads for linalg/experiments; "
      "absent = auto)\n"
      "       --trace PATH (write a JSONL trace of spans for any command)\n"
      "crash safety (faults, metrics, ablate-defender, ablate-loss):\n"
      "       --checkpoint PATH  --resume\n"
      "       --trial-budget-ms MS (quarantine trials exceeding the budget)\n"
      "       --stop-after N (stop resumably after N new trials)\n"
      "       SIGINT/SIGTERM stop at the next block boundary with the\n"
      "       journal flushed; rerun with --resume to continue.\n";
  return 2;
}

// A count flag. A negative value is refused rather than cast: -1 would
// become SIZE_MAX topologies, trials or shards.
std::optional<std::size_t> get_count(ArgParser& args, const std::string& flag,
                                     long fallback) {
  const long value = args.get_int(flag, fallback);
  if (value < 0) {
    std::cerr << "error: --" << flag << " expects a non-negative count\n";
    return std::nullopt;
  }
  return static_cast<std::size_t>(value);
}

struct Setup {
  Scenario scenario;
  std::vector<NodeId> attackers;
};

std::optional<Setup> build_setup(ArgParser& args) {
  const std::string topo = args.get_string("topology", "fig1");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::optional<std::size_t> redundant =
      get_count(args, "redundant", 8);
  if (!redundant) return std::nullopt;
  Rng rng(seed);

  // Which defender the deployment runs (DESIGN.md §14). --load keeps the
  // estimator the file recorded.
  ScenarioConfig config;
  const std::string estimator = args.get_string("estimator", "ls");
  if (estimator == "sparse") {
    config.estimator_kind = EstimatorKind::kSparseRecovery;
    config.sparse_epsilon_ms = args.get_double("epsilon", 0.0);
  } else if (estimator == "mle") {
    config.estimator_kind = EstimatorKind::kMulticastMle;
  } else if (estimator != "ls") {
    std::cerr << "error: --estimator expects ls|sparse|mle\n";
    return std::nullopt;
  }

  std::optional<Scenario> scenario;
  std::vector<NodeId> default_attackers;
  if (const std::string load = args.get_string("load"); !load.empty()) {
    scenario = load_scenario_file(load);
    if (!scenario) {
      std::cerr << "error: cannot load scenario from " << load << '\n';
      return std::nullopt;
    }
  } else if (topo == "fig1") {
    scenario = Scenario::fig1(rng, config);
    default_attackers = fig1_network().attackers;
  } else if (topo == "wireline") {
    scenario = make_scenario(TopologyKind::kWireline, rng, config,
                             *redundant);
  } else if (topo == "wireless") {
    scenario = make_scenario(TopologyKind::kWireless, rng, config,
                             *redundant);
  } else if (topo.rfind("file:", 0) == 0) {
    auto loaded = load_edge_list_file(topo.substr(5));
    if (!loaded) {
      std::cerr << "error: cannot load edge list from " << topo.substr(5)
                << '\n';
      return std::nullopt;
    }
    scenario = Scenario::from_graph(std::move(loaded->graph), rng,
                                    config, *redundant);
  } else {
    std::cerr << "error: unknown topology '" << topo << "'\n";
    return std::nullopt;
  }
  if (!scenario) {
    std::cerr << "error: could not build an identifiable scenario\n";
    return std::nullopt;
  }

  std::vector<NodeId> attackers;
  for (long v : args.get_int_list("attackers")) {
    if (v < 0 || static_cast<std::size_t>(v) >= scenario->graph().num_nodes()) {
      std::cerr << "error: attacker node " << v << " out of range\n";
      return std::nullopt;
    }
    attackers.push_back(static_cast<NodeId>(v));
  }
  if (attackers.empty()) {
    attackers = default_attackers;
    if (attackers.empty()) {
      const auto draw =
          rng.sample_without_replacement(scenario->graph().num_nodes(), 2);
      attackers.assign(draw.begin(), draw.end());
    }
  }
  if (const std::string save = args.get_string("save"); !save.empty()) {
    if (!save_scenario_file(save, *scenario)) {
      std::cerr << "error: cannot write scenario to " << save << '\n';
      return std::nullopt;
    }
    std::cerr << "scenario saved to " << save << '\n';
  }
  return Setup{std::move(*scenario), std::move(attackers)};
}

void print_attack_table(const Setup& setup, const AttackResult& r,
                        bool csv) {
  Table t({"link", "true_ms", "estimated_ms", "state"});
  for (LinkId l = 0; l < setup.scenario.x_true().size(); ++l) {
    t.add_row({std::to_string(l + 1),
               Table::num(setup.scenario.x_true()[l]),
               Table::num(r.x_estimated[l]), to_string(r.states[l])});
  }
  if (csv) {
    std::cout << t.to_csv();
  } else {
    t.print(std::cout);
  }
}

AttackResult run_strategy(ArgParser& args, const Setup& setup) {
  const std::string strategy = args.get_string("strategy", "max");
  // --stealthy: use the Theorem-1 consistent construction (undetectable by
  // Eq. 23; feasible essentially only under perfect cuts).
  const ManipulationMode mode = args.get_bool("stealthy")
                                    ? ManipulationMode::kConsistent
                                    : ManipulationMode::kUnrestricted;
  AttackContext ctx = setup.scenario.context(setup.attackers);
  if (strategy == "chosen") {
    const long victim = args.get_int("victim", 0);
    if (victim < 1 ||
        static_cast<std::size_t>(victim) > setup.scenario.graph().num_links()) {
      std::cerr << "error: --victim must be a 1-based link id\n";
      return {};
    }
    return chosen_victim_attack(ctx, {static_cast<LinkId>(victim - 1)}, mode,
                                CollateralPolicy::kAvoidAbnormal);
  }
  if (strategy == "max") {
    MaxDamageOptions opt;
    opt.mode = mode;
    opt.collateral = CollateralPolicy::kAvoidAbnormal;
    return max_damage_attack(ctx, opt).best;
  }
  if (strategy == "obfuscation") {
    ObfuscationOptions opt;
    opt.mode = mode;
    opt.min_victims = 1;
    return obfuscation_attack(ctx, opt);
  }
  std::cerr << "error: unknown strategy '" << strategy << "'\n";
  return {};
}

int cmd_topo(ArgParser& args) {
  auto setup = build_setup(args);
  if (!setup) return 1;
  const Graph& g = setup->scenario.graph();
  if (args.get_bool("dump")) {
    write_edge_list(std::cout, g);
    return 0;
  }
  std::cout << g.to_string() << '\n'
            << "monitors: " << setup->scenario.monitors().size()
            << "  measurement paths: "
            << setup->scenario.estimator().num_paths() << "  (rank "
            << setup->scenario.estimator().num_links() << ")\n"
            << "max node presence ratio: "
            << Table::num(max_presence_ratio(
                              g, setup->scenario.estimator().paths()),
                          3)
            << '\n';
  if (auto cond = estimate_condition(
          setup->scenario.estimator().sparse_r().to_dense())) {
    std::cout << "routing-matrix condition number: "
              << Table::num(cond->condition(), 1)
              << "  (higher = more attacker leverage via R⁺)\n";
  }
  return 0;
}

int cmd_attack(ArgParser& args) {
  auto setup = build_setup(args);
  if (!setup) return 1;
  const AttackResult r = run_strategy(args, *setup);
  if (!r.success) {
    std::cout << "attack infeasible (" << lp::to_string(r.status) << ")\n";
    return 0;
  }
  std::cout << "attackers:";
  for (NodeId a : setup->attackers) std::cout << ' ' << a;
  std::cout << "\nvictims (1-based links):";
  for (LinkId v : r.victims) std::cout << ' ' << (v + 1);
  std::cout << "\ndamage ‖m‖₁: " << Table::num(r.damage) << " ms\n\n";
  print_attack_table(*setup, r, args.get_bool("csv"));
  return 0;
}

int cmd_detect(ArgParser& args) {
  auto setup = build_setup(args);
  if (!setup) return 1;
  const AttackResult r = run_strategy(args, *setup);
  if (!r.success) {
    std::cout << "attack infeasible — nothing to detect\n";
    return 0;
  }
  DetectorOptions det;
  det.alpha = args.get_double("alpha", 200.0);
  const DetectionOutcome d = detect_scapegoating(
      setup->scenario.estimator(), r.y_observed, det);
  const bool perfect = is_perfect_cut(setup->scenario.estimator().paths(),
                                      setup->attackers, r.victims);
  std::cout << "cut: " << (perfect ? "perfect" : "imperfect")
            << "   residual: " << Table::num(d.residual_norm1)
            << " ms   verdict: "
            << (d.detected ? "MANIPULATED" : "consistent") << '\n';
  LocalizationOptions lopt;
  lopt.alpha = det.alpha;
  const LocalizationResult loc = localize_manipulation(
      setup->scenario.estimator(), r.y_observed, lopt);
  std::cout << "localization: " << loc.suspicious_paths.size()
            << " paths flagged"
            << (loc.clean ? ", consistency restored" : "") << '\n';
  return 0;
}

int cmd_fig(ArgParser& args) {
  switch (args.get_int("n", 4)) {
    case 2:
      print_fig2(run_fig2(), std::cout);
      return 0;
    case 4:
      print_fig4(run_fig4(), std::cout);
      return 0;
    case 5:
      print_fig5(run_fig5(), std::cout);
      return 0;
    case 6:
      print_fig6(run_fig6(), std::cout);
      return 0;
    default:
      std::cerr << "only figures 2, 4, 5, 6 run instantly; use the "
                   "bench_fig7/8/9 binaries for the Monte-Carlo figures\n";
      return 2;
  }
}

// Measurement-plane fault sweep: honest network, faulty probes, degraded
// estimation/detection. Structured per-cell statuses, never a crash —
// the CLI face of core/fault_experiment (bench_fault_tolerance is the
// full harness with checksums).
int cmd_faults(ArgParser& args) {
  FaultSweepOptions opt;
  const std::optional<std::size_t> topologies =
      get_count(args, "topologies", 1);
  const std::optional<std::size_t> trials = get_count(args, "trials", 20);
  const std::optional<std::size_t> retries = get_count(args, "retries", 2);
  if (!topologies || !trials || !retries) return 2;
  opt.topologies = *topologies;
  opt.trials_per_topology = *trials;
  args.apply_execution(opt);
  opt.alpha = args.get_double("alpha", 200.0);
  opt.retry.max_retries = *retries;
  apply_resilience_flags(args, opt.resilience);
  if (const std::vector<long> permille = args.get_int_list("rates");
      !permille.empty()) {
    opt.loss_rates.clear();
    for (long r : permille) opt.loss_rates.push_back(r / 1000.0);
  }
  const std::string topo = args.get_string("topology", "wireline");
  const TopologyKind kind =
      topo == "wireless" ? TopologyKind::kWireless : TopologyKind::kWireline;

  const FaultSweepSeries series = run_fault_sweep(kind, opt);
  Table table({"loss_rate", "trials", "full_rank", "fallback", "unsolvable",
               "measured_frac", "mean_err_ms", "alarms"});
  for (const FaultSweepCell& c : series.cells) {
    table.add_row({Table::num(c.loss_rate, 3), std::to_string(c.trials),
                   std::to_string(c.full_rank), std::to_string(c.fallback),
                   std::to_string(c.unsolvable),
                   Table::num(c.measured_fraction(), 3),
                   Table::num(c.mean_abs_error_ms, 3),
                   std::to_string(c.alarms)});
  }
  std::cout << "fault sweep (" << to_string(kind) << ", honest network, "
            << opt.retry.attempts() << " probe attempts)\n";
  if (args.get_bool("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
  }
  print_resilience_notes(series.trials_quarantined, series.trials_replayed,
                         series.interrupted, std::cout);
  return 0;
}

// Runs a representative instrumented workload — Monte-Carlo presence-ratio
// trials, which exercise the estimator's QR/pinv, the attack LPs and the
// detector — then prints the folded metrics registry. The registry is the
// one main() installed, so the printout also includes anything recorded
// before the command ran.
int cmd_metrics(ArgParser& args, obs::MetricsRegistry& registry) {
  PresenceRatioOptions opt;
  opt.topologies = 1;
  const std::optional<std::size_t> trials = get_count(args, "trials", 20);
  if (!trials) return 2;
  opt.trials_per_topology = *trials;
  args.apply_execution(opt);
  apply_resilience_flags(args, opt.resilience);
  run_presence_ratio_experiment(TopologyKind::kWireline, opt);

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const std::string format = args.get_string("format", "table");
  if (format == "json") {
    std::cout << obs::to_json(snapshot) << '\n';
  } else if (format == "csv") {
    std::cout << obs::to_csv(snapshot);
  } else if (format == "table") {
    std::cout << obs::to_table(snapshot);
  } else {
    std::cerr << "error: --format expects table|json|csv\n";
    return 2;
  }
  return 0;
}

// Defender-choice ablation: the same attacks in front of the least-squares
// and sparse-recovery defenders, swept over anomaly sparsity k and the
// sparse defender's ε ball (core/defender_ablation.hpp).
int cmd_ablate_defender(ArgParser& args) {
  DefenderAblationOptions opt;
  const std::string topo = args.get_string("topology", "wireline");
  opt.kind =
      topo == "wireless" ? TopologyKind::kWireless : TopologyKind::kWireline;
  const std::optional<std::size_t> topologies =
      get_count(args, "topologies", 3);
  const std::optional<std::size_t> trials = get_count(args, "trials", 12);
  const std::optional<std::size_t> clean_trials =
      get_count(args, "clean-trials", 8);
  if (!topologies || !trials || !clean_trials) return 2;
  opt.topologies = *topologies;
  opt.trials_per_cell = *trials;
  opt.clean_trials = *clean_trials;
  args.apply_execution(opt);
  apply_resilience_flags(args, opt.resilience);
  opt.alpha = args.get_double("alpha", 200.0);
  opt.noise_ms = args.get_double("noise", 1.0);
  opt.anomaly_delay_ms = args.get_double("anomaly", 900.0);
  opt.attack_epsilon_ms = args.get_double("attack-eps", 50.0);
  if (const std::vector<long> ks = args.get_int_list("k"); !ks.empty()) {
    opt.anomaly_sparsity.clear();
    for (long k : ks) opt.anomaly_sparsity.push_back(
        static_cast<std::size_t>(std::max(0L, k)));
  }
  if (const std::vector<long> eps = args.get_int_list("eps"); !eps.empty()) {
    opt.defender_epsilons_ms.clear();
    for (long e : eps) opt.defender_epsilons_ms.push_back(
        static_cast<double>(std::max(0L, e)));
  }
  if (const std::string fams = args.get_string("families"); !fams.empty()) {
    opt.families.clear();
    std::istringstream fs(fams);
    for (std::string name; std::getline(fs, name, ',');) {
      const std::optional<AttackFamily> f = attack_family_from_string(name);
      if (!f) {
        std::cerr << "error: unknown attack family '" << name << "'\n";
        return 2;
      }
      opt.families.push_back(*f);
    }
  }

  const AblationSeries series = run_defender_ablation(opt);

  std::vector<std::string> headers{"family", "k", "attacks", "ls_rate"};
  for (double e : series.epsilons)
    headers.push_back("sparse(eps=" + Table::num(e, 0) + ")");
  headers.push_back("ls_only");
  headers.push_back("sparse_only");
  Table table(headers);
  for (const AblationCell& c : series.cells) {
    std::vector<std::string> row{to_string(c.family),
                                 std::to_string(c.sparsity),
                                 std::to_string(c.attacks),
                                 Table::num(c.ls_rate(), 3)};
    std::size_t ls_only = 0, sparse_only = 0;
    for (std::size_t e = 0; e < series.epsilons.size(); ++e) {
      row.push_back(Table::num(c.sparse_rate(e), 3));
      ls_only = std::max(ls_only, c.ls_only[e]);
      sparse_only = std::max(sparse_only, c.sparse_only[e]);
    }
    row.push_back(std::to_string(ls_only));
    row.push_back(std::to_string(sparse_only));
    table.add_row(std::move(row));
  }
  std::cout << "defender ablation (" << to_string(opt.kind) << ", "
            << opt.topologies << " topologies, " << opt.trials_per_cell
            << " trials/cell, attack ε " << Table::num(opt.attack_epsilon_ms)
            << " ms, α " << Table::num(opt.alpha) << " ms)\n";
  if (args.get_bool("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
  }
  std::cout << "clean trials " << series.clean_trials << ": LS false alarms "
            << series.ls_false_alarms;
  for (std::size_t e = 0; e < series.epsilons.size(); ++e)
    std::cout << ", sparse(ε=" << Table::num(series.epsilons[e], 0) << ") "
              << series.sparse_false_alarms[e];
  std::cout << '\n';
  print_resilience_notes(series.trials_quarantined, series.trials_replayed,
                         series.interrupted, std::cout);

  if (const std::string out = args.get_string("out"); !out.empty()) {
    std::ostringstream json;
    json << "{\n  \"kind\": \"" << to_string(series.kind)
         << "\",\n  \"epsilons_ms\": [";
    for (std::size_t e = 0; e < series.epsilons.size(); ++e)
      json << (e ? ", " : "") << series.epsilons[e];
    json << "],\n  \"clean_trials\": " << series.clean_trials
         << ",\n  \"ls_false_alarms\": " << series.ls_false_alarms
         << ",\n  \"sparse_false_alarms\": [";
    for (std::size_t e = 0; e < series.sparse_false_alarms.size(); ++e)
      json << (e ? ", " : "") << series.sparse_false_alarms[e];
    json << "],\n  \"cells\": [\n";
    for (std::size_t i = 0; i < series.cells.size(); ++i) {
      const AblationCell& c = series.cells[i];
      json << "    {\"family\": \"" << to_string(c.family)
           << "\", \"k\": " << c.sparsity << ", \"attacks\": " << c.attacks
           << ", \"ls_detected\": " << c.ls_detected
           << ", \"sparse_detected\": [";
      for (std::size_t e = 0; e < c.sparse_detected.size(); ++e)
        json << (e ? ", " : "") << c.sparse_detected[e];
      json << "], \"ls_only\": [";
      for (std::size_t e = 0; e < c.ls_only.size(); ++e)
        json << (e ? ", " : "") << c.ls_only[e];
      json << "], \"sparse_only\": [";
      for (std::size_t e = 0; e < c.sparse_only.size(); ++e)
        json << (e ? ", " : "") << c.sparse_only[e];
      json << "]}" << (i + 1 < series.cells.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    if (!write_file_atomic(out, json.str()).ok()) {
      std::cerr << "error: cannot write " << out << '\n';
      return 1;
    }
    std::cerr << "ablation series written to " << out << '\n';
  }
  return 0;
}

// Loss-domain ablation: the grey-hole grid in front of the multicast-MLE
// and least-squares defenders over the same ground truth
// (core/defender_ablation.hpp, run_loss_ablation).
int cmd_ablate_loss(ArgParser& args) {
  LossAblationOptions opt;
  const std::string topo = args.get_string("topology", "wireline");
  opt.kind =
      topo == "wireless" ? TopologyKind::kWireless : TopologyKind::kWireline;
  const std::optional<std::size_t> topologies =
      get_count(args, "topologies", 3);
  const std::optional<std::size_t> trials = get_count(args, "trials", 8);
  const std::optional<std::size_t> clean_trials =
      get_count(args, "clean-trials", 8);
  const std::optional<std::size_t> probes = get_count(args, "probes", 4000);
  const std::optional<std::size_t> receivers =
      get_count(args, "receivers", 5);
  if (!topologies || !trials || !clean_trials || !probes || !receivers)
    return 2;
  opt.topologies = *topologies;
  opt.trials_per_cell = *trials;
  opt.clean_trials = *clean_trials;
  opt.probes = *probes;
  opt.receivers = *receivers;
  args.apply_execution(opt);
  apply_resilience_flags(args, opt.resilience);
  opt.mle_alpha = args.get_double("mle-alpha", 0.05);
  opt.ls_alpha = args.get_double("ls-alpha", 0.5);
  opt.min_link_delivery =
      static_cast<double>(args.get_int("min-delivery", 985)) / 1000.0;
  if (const std::vector<long> rates = args.get_int_list("rates");
      !rates.empty()) {
    opt.drop_rates.clear();
    for (long r : rates)
      opt.drop_rates.push_back(static_cast<double>(r) / 1000.0);
  }
  if (const std::string mode = args.get_string("probe-mode");
      !mode.empty()) {
    const std::optional<simnet::ProbeMode> pm =
        simnet::probe_mode_from_string(mode);
    if (!pm) {
      std::cerr << "error: --probe-mode expects unicast|multicast\n";
      return 2;
    }
    opt.probe_mode = *pm;
  }
  if (const std::string fams = args.get_string("families"); !fams.empty()) {
    opt.families.clear();
    std::istringstream fs(fams);
    for (std::string name; std::getline(fs, name, ',');) {
      const std::optional<LossAttackFamily> f =
          loss_attack_family_from_string(name);
      if (!f) {
        std::cerr << "error: unknown loss attack family '" << name << "'\n";
        return 2;
      }
      opt.families.push_back(*f);
    }
  }

  const LossAblationSeries series = run_loss_ablation(opt);

  Table table({"family", "drop_rate", "attacks", "blamed", "mle_rate",
               "ls_rate", "mle_only", "ls_only"});
  for (const LossAblationCell& c : series.cells)
    table.add_row({to_string(c.family), Table::num(c.drop_rate, 2),
                   std::to_string(c.attacks), std::to_string(c.victim_blamed),
                   Table::num(c.mle_rate(), 3), Table::num(c.ls_rate(), 3),
                   std::to_string(c.mle_only), std::to_string(c.ls_only)});
  std::cout << "loss-domain ablation (" << to_string(opt.kind) << ", "
            << to_string(opt.probe_mode) << " probes, " << opt.topologies
            << " topologies, " << opt.trials_per_cell << " trials/cell, "
            << opt.probes << " probes/trial, MLE α "
            << Table::num(opt.mle_alpha, 3) << ", LS α "
            << Table::num(opt.ls_alpha, 2) << ")\n";
  if (args.get_bool("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
  }
  std::cout << "clean trials " << series.clean_trials
            << ": MLE false alarms " << series.mle_false_alarms
            << ", LS false alarms " << series.ls_false_alarms << '\n';
  print_resilience_notes(series.trials_quarantined, series.trials_replayed,
                         series.interrupted, std::cout);

  if (const std::string out = args.get_string("out"); !out.empty()) {
    std::ostringstream json;
    json << "{\n  \"kind\": \"" << to_string(series.kind)
         << "\",\n  \"probe_mode\": \"" << to_string(series.probe_mode)
         << "\",\n  \"clean_trials\": " << series.clean_trials
         << ",\n  \"mle_false_alarms\": " << series.mle_false_alarms
         << ",\n  \"ls_false_alarms\": " << series.ls_false_alarms
         << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < series.cells.size(); ++i) {
      const LossAblationCell& c = series.cells[i];
      json << "    {\"family\": \"" << to_string(c.family)
           << "\", \"drop_rate\": " << c.drop_rate
           << ", \"attacks\": " << c.attacks
           << ", \"victim_blamed\": " << c.victim_blamed
           << ", \"mle_detected\": " << c.mle_detected
           << ", \"ls_detected\": " << c.ls_detected
           << ", \"mle_only\": " << c.mle_only
           << ", \"ls_only\": " << c.ls_only << "}"
           << (i + 1 < series.cells.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    if (!write_file_atomic(out, json.str()).ok()) {
      std::cerr << "error: cannot write " << out << '\n';
      return 1;
    }
    std::cerr << "loss ablation series written to " << out << '\n';
  }
  return 0;
}

// Streaming probe-ingest session: the service face of DESIGN.md §13.
// SIGTERM/SIGINT drain gracefully — the supervisor closes admissions, the
// shards finish the queued backlog with journals flushed, and the session
// reports partial accounting (rerun with --journal/--resume to continue).
int cmd_serve(ArgParser& args) {
  service::SessionWorkload workload;
  const std::string topo = args.get_string("topology", "wireline");
  workload.kind =
      topo == "wireless" ? TopologyKind::kWireless : TopologyKind::kWireline;
  const std::optional<std::size_t> topologies =
      get_count(args, "topologies", 2);
  const std::optional<std::size_t> producers = get_count(args, "producers", 2);
  const std::optional<std::size_t> shards = get_count(args, "shards", 2);
  const std::optional<std::size_t> batches = get_count(args, "batches", 256);
  const std::optional<std::size_t> attack_every =
      get_count(args, "attack-every", 0);
  const std::optional<std::size_t> grow_every =
      get_count(args, "grow-every", 0);
  const std::optional<std::size_t> capacity =
      get_count(args, "capacity", 1024);
  const std::optional<std::size_t> permille =
      get_count(args, "shed-permille", 125);
  const std::optional<std::size_t> window = get_count(args, "window", 8);
  if (!topologies || !producers || !shards || !batches || !attack_every ||
      !grow_every || !capacity || !permille || !window)
    return 2;
  // Their defaults follow --capacity and --window.
  const std::optional<std::size_t> high_water =
      get_count(args, "high-water", static_cast<long>(*capacity * 3 / 4));
  const std::optional<std::size_t> stride =
      get_count(args, "stride", static_cast<long>(*window));
  if (!high_water || !stride) return 2;
  workload.topologies = *topologies;
  workload.scenario_seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  workload.producers = *producers;
  workload.closed_loop = !args.get_bool("open-loop");
  workload.load.seed = derive_seed(workload.scenario_seed, 0x10adull);
  workload.load.batches_per_topology = *batches;
  workload.load.noise_ms = args.get_double("noise", 1.0);
  workload.load.attack_every = *attack_every;
  workload.load.attack_delay_ms = args.get_double("attack-delay", 500.0);
  workload.load.growth.every = *grow_every;

  service::ServiceOptions opt;
  opt.shards = *shards;
  opt.queue_capacity = *capacity;
  opt.high_water = *high_water;
  const std::string shed = args.get_string("shed", "auto");
  if (shed == "off") {
    opt.shed.mode = service::ShedPolicy::Mode::kOff;
  } else if (shed == "pinned") {
    opt.shed.mode = service::ShedPolicy::Mode::kPinned;
  } else if (shed == "auto") {
    opt.shed.mode = service::ShedPolicy::Mode::kAuto;
  } else {
    std::cerr << "error: --shed expects off|auto|pinned\n";
    return 2;
  }
  opt.shed.seed = workload.scenario_seed;
  // 1000 and above all shed alike; clamping keeps a huge value from wrapping.
  opt.shed.permille =
      static_cast<std::uint32_t>(std::min<std::size_t>(*permille, 1000));
  opt.window = *window;
  opt.stride = *stride;
  opt.alpha_ms = args.get_double("alpha", 200.0);
  opt.batch_budget_ms = args.get_double("batch-budget-ms", 0.0);
  opt.journal_path = args.get_string("journal");
  opt.resume = args.get_bool("resume");
  opt.seed = workload.scenario_seed;
  opt.growth = workload.load.growth;

  const auto report = service::run_service_session(workload, opt);
  if (!report.ok()) {
    std::cerr << "error: " << report.error_message() << '\n';
    return 1;
  }
  const service::SessionReport& r = report.value();
  const service::ServiceStats& s = r.stats;
  std::cout << "streaming session (" << to_string(workload.kind) << ", "
            << workload.topologies << " topologies, " << opt.shards
            << " shards, shed " << to_string(opt.shed.mode) << ", "
            << (workload.closed_loop ? "closed" : "open") << " loop)\n"
            << "state: " << to_string(r.final_state)
            << (r.interrupted ? "   (interrupted — drained gracefully)"
                              : "")
            << '\n'
            << "offered " << s.offered << "  admitted " << s.admitted
            << "  rejected " << s.rejected << "  shed " << s.shed
            << "  closed " << s.closed << '\n'
            << "processed " << s.processed << "  duplicates " << s.duplicates
            << "  malformed " << s.malformed << "  quarantined "
            << s.quarantined << "  lost-in-flight " << s.lost_in_flight()
            << '\n'
            << "probes " << r.probes_offered << "  max queue depth "
            << s.max_queue_depth << "/" << opt.queue_capacity
            << "  shard restarts " << s.restarts << '\n';
  Table table({"topology", "windows", "alarms", "last_mean_ms", "verdict"});
  for (std::size_t t = 0; t < r.windows_by_topology.size(); ++t) {
    const auto& windows = r.windows_by_topology[t];
    std::size_t alarms = 0;
    for (const service::WindowDecision& d : windows) alarms += d.alarm;
    table.add_row(
        {std::to_string(t), std::to_string(windows.size()),
         std::to_string(alarms),
         windows.empty() ? "-" : Table::num(windows.back().mean_residual_ms),
         alarms > 0 ? "MANIPULATED" : "consistent"});
  }
  if (args.get_bool("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.command()) return usage("missing command");
  ThreadPool::set_global_threads(args.get_threads());
  const std::string& cmd = *args.command();

  // SIGINT/SIGTERM become a cooperative stop request: experiment runners
  // finish the current block, flush their checkpoint journal and return
  // with `interrupted` set, so ^C never loses journaled work.
  robust::install_graceful_shutdown();

  // Observability: every command runs instrumented when asked. `--trace
  // PATH` streams spans as JSONL into PATH.partial, published to PATH by
  // rename on exit — readers never see a file that is still growing, and a
  // crash leaves the .partial for inspection instead of a torn PATH.
  obs::MetricsRegistry registry;
  std::ofstream trace_file;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  const std::string trace_path = args.get_string("trace");
  const std::string trace_partial =
      trace_path.empty() ? "" : trace_path + ".partial";
  if (!trace_path.empty()) {
    trace_file.open(trace_partial);
    if (!trace_file) {
      std::cerr << "error: cannot open trace file " << trace_partial << '\n';
      return 2;
    }
    trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_file);
  }
  std::unique_ptr<obs::ScopedInstrumentation> instrumentation;
  if (trace_sink != nullptr || cmd == "metrics") {
    instrumentation = std::make_unique<obs::ScopedInstrumentation>(
        registry, trace_sink.get());
  }

  int rc;
  if (cmd == "topo") {
    rc = cmd_topo(args);
  } else if (cmd == "attack") {
    rc = cmd_attack(args);
  } else if (cmd == "detect") {
    rc = cmd_detect(args);
  } else if (cmd == "fig") {
    rc = cmd_fig(args);
  } else if (cmd == "faults") {
    rc = cmd_faults(args);
  } else if (cmd == "metrics") {
    rc = cmd_metrics(args, registry);
  } else if (cmd == "ablate-defender") {
    rc = cmd_ablate_defender(args);
  } else if (cmd == "ablate-loss") {
    rc = cmd_ablate_loss(args);
  } else if (cmd == "serve") {
    rc = cmd_serve(args);
  } else {
    return usage(("unknown command '" + cmd + "'").c_str());
  }

  const bool interrupted = robust::shutdown_requested();
  if (interrupted) {
    // Graceful-shutdown epilogue: the runners already flushed their
    // journals; dump the metrics gathered so far so the session's telemetry
    // survives alongside the checkpoint.
    if (instrumentation != nullptr)
      std::cerr << obs::to_table(registry.snapshot());
    std::cerr << "interrupted by signal — state is resumable (--resume)\n";
  }

  instrumentation.reset();
  trace_sink.reset();
  if (!trace_path.empty()) {
    trace_file.close();
    if (std::rename(trace_partial.c_str(), trace_path.c_str()) != 0)
      std::cerr << "warning: trace left at " << trace_partial << '\n';
  }

  for (const std::string& err : args.errors())
    std::cerr << "warning: " << err << '\n';
  for (const std::string& flag : args.unused())
    std::cerr << "warning: unused flag --" << flag << '\n';
  return interrupted ? 130 : rc;
}
