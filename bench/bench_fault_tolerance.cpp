// Fault-tolerance sweep harness: measurement-plane chaos vs pipeline health.
//
// Sweeps probe-loss rates (default 0, 0.01, 0.05, 0.2) over honest-network
// trials in the packet simulator with the full fault schedule installed
// (loss + duplication + reordering + clock jitter; monitor/link outages via
// flags), retries per the robustness policy, and reports per cell: how many
// trials solved full-rank / via the regularized fallback / not at all, the
// measured-path fraction, estimation error vs ground truth, and
// fault-induced false alarms from the degraded detector. A cross-cell
// checksum printed at the end makes the determinism contract visible, as in
// bench_parallel_scaling.
//
//   bench_fault_tolerance [--quick] [--rates 0,0.01,0.05,0.2(x1000 int ‰)]
//                         [--trials N] [--topologies N] [--retries N]
//                         [--monitor-outage PERMILLE] [--link-failure PERMILLE]
//                         [--seed N] [--threads N] [--wireless]
//
// Rates are integer permille (‰) so the flag stays on the integer-list
// parser: --rates 0,10,50,200 ≡ loss rates 0, 0.01, 0.05, 0.2.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/fault_experiment.hpp"
#include "core/figures.hpp"
#include "core/resilience_flags.hpp"
#include "robust/watchdog.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

// FNV-1a over every cell aggregate, doubles hashed by bit pattern.
std::uint64_t sweep_checksum(const scapegoat::FaultSweepSeries& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  auto mixd = [&mix](double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  mix(s.total_trials);
  for (const scapegoat::FaultSweepCell& c : s.cells) {
    mix(c.full_rank);
    mix(c.fallback);
    mix(c.unsolvable);
    mix(c.paths_measured);
    mix(c.alarms);
    mixd(c.mean_abs_error_ms);
    mixd(c.max_abs_error_ms);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  scapegoat::ArgParser args(argc, argv);
  scapegoat::robust::install_graceful_shutdown();

  scapegoat::FaultSweepOptions opt;
  opt.topologies = static_cast<std::size_t>(args.get_int("topologies", 2));
  opt.trials_per_topology =
      static_cast<std::size_t>(args.get_int("trials", 40));
  args.apply_execution(opt);
  opt.retry.max_retries =
      static_cast<std::size_t>(args.get_int("retries", 2));
  opt.faults.duplicate_rate = 0.02;
  opt.faults.reorder_rate = 0.02;
  opt.faults.clock_jitter_ms = 0.5;
  opt.faults.monitor_outage_rate =
      args.get_int("monitor-outage", 0) / 1000.0;
  opt.faults.link_failure_rate = args.get_int("link-failure", 0) / 1000.0;
  if (args.get_bool("quick")) {
    opt.topologies = 1;
    opt.trials_per_topology = 10;
  }
  const std::vector<long> permille = args.get_int_list("rates");
  if (!permille.empty()) {
    opt.loss_rates.clear();
    for (long r : permille) opt.loss_rates.push_back(r / 1000.0);
  }
  const scapegoat::TopologyKind kind = args.get_bool("wireless")
                                           ? scapegoat::TopologyKind::kWireless
                                           : scapegoat::TopologyKind::kWireline;
  scapegoat::apply_resilience_flags(args, opt.resilience);
  for (const std::string& err : args.errors())
    std::cerr << "warning: " << err << '\n';

  const scapegoat::FaultSweepSeries series =
      scapegoat::run_fault_sweep(kind, opt);

  scapegoat::Table table({"loss_rate", "trials", "full_rank", "fallback",
                          "unsolvable", "measured_frac", "mean_err_ms",
                          "max_err_ms", "alarms"});
  for (const scapegoat::FaultSweepCell& c : series.cells) {
    table.add_row({scapegoat::Table::num(c.loss_rate, 3),
                   std::to_string(c.trials), std::to_string(c.full_rank),
                   std::to_string(c.fallback), std::to_string(c.unsolvable),
                   scapegoat::Table::num(c.measured_fraction(), 3),
                   scapegoat::Table::num(c.mean_abs_error_ms, 3),
                   scapegoat::Table::num(c.max_abs_error_ms, 3),
                   std::to_string(c.alarms)});
  }
  std::cout << "Fault-tolerance sweep (" << scapegoat::to_string(kind) << "), "
            << opt.topologies << " topologies x " << opt.trials_per_topology
            << " trials per rate, " << opt.retry.attempts()
            << " probe attempts\n";
  table.print(std::cout);

  scapegoat::print_resilience_notes(series.trials_quarantined,
                                    series.trials_replayed,
                                    series.interrupted, std::cout);

  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(sweep_checksum(series)));
  std::cout << "checksum: " << hex
            << " (bitwise reproducible at any --threads)\n";
  if (series.interrupted) {
    std::cerr << "interrupted — journal flushed, rerun with --resume\n";
    return 130;
  }
  return 0;
}
