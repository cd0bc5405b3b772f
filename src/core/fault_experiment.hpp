// Fault-tolerance sweep: the chaos harness behind the robustness claims.
//
// For each probe-loss rate in the sweep, run many honest-network trials in
// which probes traverse the packet simulator under a deterministic fault
// schedule (loss, duplication, reordering, monitor outage, link failure,
// clock jitter — robust/faults.hpp), measurement retries degrade
// unmeasured paths to *missing*, and the estimator/detector pipeline runs
// in its checked, degraded form. Every trial ends in a structured status —
// full-rank solve, regularized fallback, or a typed error — never a crash.
//
// Determinism contract matches the Fig. 7-9 runners: each trial owns a
// derived RNG stream and a derived fault-injector seed, trials fan out over
// a thread pool, and aggregates are folded serially in trial order, so the
// whole series is bitwise identical at every thread count.

#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "robust/faults.hpp"
#include "robust/retry.hpp"

namespace scapegoat {

// threads/grain/seed come from the shared ExecutionPolicy base
// (util/execution.hpp).
struct FaultSweepOptions : ExecutionPolicy {
  FaultSweepOptions() : ExecutionPolicy(0, /*grain=*/4, /*seed=*/11) {}

  // Probe-loss rates to sweep; each gets its own cell. The remaining fault
  // dimensions come from `faults` and are held constant across cells.
  std::vector<double> loss_rates{0.0, 0.01, 0.05, 0.2};
  robust::FaultSpec faults;       // probe_loss_rate is overridden per cell
  robust::RetryPolicy retry;
  std::size_t topologies = 1;
  std::size_t trials_per_topology = 40;
  std::size_t probes_per_path = 3;
  double alpha = 200.0;           // degraded-detector threshold (§V-D)

  robust::ResilienceOptions resilience;  // see PresenceRatioOptions
};

// Aggregates for one loss rate.
struct FaultSweepCell {
  double loss_rate = 0.0;
  std::size_t trials = 0;
  // Trial statuses; full_rank + fallback + unsolvable == trials.
  std::size_t full_rank = 0;    // all metrics identifiable from measured rows
  std::size_t fallback = 0;     // rank-deficient → regularized least squares
  std::size_t unsolvable = 0;   // structured error (e.g. nothing measured)
  // Measurement coverage over all trials.
  std::size_t paths_total = 0;
  std::size_t paths_measured = 0;
  // Estimation error vs ground truth, over solvable trials' links.
  double mean_abs_error_ms = 0.0;
  double max_abs_error_ms = 0.0;
  // Degraded detector firing on an honest network (fault-induced alarms).
  std::size_t alarms = 0;

  double measured_fraction() const {
    return paths_total == 0
               ? 0.0
               : static_cast<double>(paths_measured) / paths_total;
  }
  double solve_rate() const {
    return trials == 0
               ? 0.0
               : static_cast<double>(full_rank + fallback) / trials;
  }
};

struct FaultSweepSeries {
  TopologyKind kind;
  std::vector<FaultSweepCell> cells;  // one per loss rate, sweep order
  std::size_t total_trials = 0;
  std::size_t trials_replayed = 0;    // see PresenceRatioSeries
  std::size_t trials_quarantined = 0;
  bool interrupted = false;
};

// Runs the sweep. Never throws for degraded measurements; every trial lands
// in exactly one status bucket of its cell.
FaultSweepSeries run_fault_sweep(TopologyKind kind,
                                 const FaultSweepOptions& opt);

}  // namespace scapegoat
