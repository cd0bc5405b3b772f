// Shared command-line wiring for the crash-safety knobs: every driver that
// runs a Monte-Carlo experiment (the bench_fig* harnesses, the fault sweep
// and scapegoat_cli's faults, metrics and ablate-* commands) accepts the
// same four flags:
//   --checkpoint PATH     journal trial results to PATH (+ PATH.manifest)
//   --resume              replay completed trials from the journal
//   --trial-budget-ms MS  per-trial watchdog budget (0 = unlimited)
//   --stop-after N        stop resumably after N newly computed trials
//
// Lives in core because it marries util (ArgParser) to robust
// (ResilienceOptions) — neither may depend on the other.

#pragma once

#include <cstddef>

#include "robust/checkpoint.hpp"
#include "util/args.hpp"

namespace scapegoat {

inline void apply_resilience_flags(ArgParser& args,
                                   robust::ResilienceOptions& resilience) {
  resilience.checkpoint_path = args.get_string("checkpoint");
  resilience.resume = args.get_bool("resume");
  resilience.trial_budget.wall_ms = args.get_double("trial-budget-ms", 0.0);
  resilience.stop_after_new_trials =
      static_cast<std::size_t>(args.get_int("stop-after", 0));
}

}  // namespace scapegoat
