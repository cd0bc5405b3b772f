// Session driver: scenarios + load generator + producers + service, wired
// together for the CLI `serve` command, the streaming bench and the tests
// (DESIGN.md §13).
//
// `run_service_session` builds `topologies` scenarios (seed-split from
// `scenario_seed`, like every experiment runner), starts a
// ProbeIngestService over them, fans the OpenLoopLoadGen batches out from
// `producers` submission threads, drains, and reports.
//
// Two producer disciplines:
//   * closed loop (default): each producer retries kRejected batches,
//     composing the service's retry-after hint with its RetryPolicy via
//     backoff_before(attempt, -1, hint) — the satellite-2 composition —
//     so every non-shed batch is eventually admitted and the window
//     decisions are complete and shard-count-independent,
//   * open loop: offer once and record the outcome — the overload shape;
//     backpressure/shedding show up in the accounting instead of in
//     retries (the bench's 2×-overload soak runs this).
//
// Producer p owns topologies t ≡ p (mod producers) and offers each
// topology's batches in seq order, so per-topology FIFO ordering holds by
// construction (the service's windows assume in-order arrival modulo
// redelivery). Each topology starts at service.resume_seq(t) — after a
// crash-restart that's the journal's ack cursor, giving at-least-once
// redelivery that the shard's dedup absorbs.

#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "robust/retry.hpp"
#include "service/supervisor.hpp"
#include "simnet/load_gen.hpp"

namespace scapegoat::service {

// Most topologies one session serves; run_service_session refuses more
// with kInvalidInput before it draws a scenario.
inline constexpr std::size_t kMaxSessionTopologies = 1024;

struct SessionWorkload {
  TopologyKind kind = TopologyKind::kWireline;
  std::size_t topologies = 2;  // ≤ kMaxSessionTopologies
  std::uint64_t scenario_seed = 7;
  simnet::LoadGenOptions load;
  std::size_t producers = 1;
  bool closed_loop = true;
  robust::RetryPolicy retry;  // closed-loop backoff (hint-composed)
};

struct SessionReport {
  ServiceStats stats;
  ServiceState final_state = ServiceState::kStopped;
  bool interrupted = false;  // shutdown_requested() cut the offer loop short
  std::uint64_t probes_offered = 0;  // Σ measurement entries offered
  // Realized shed batch ids, sorted ascending — the replay witness the
  // bench compares across shard counts under a pinned policy.
  std::vector<std::uint64_t> shed_ids;
  // Per-topology emitted window decisions (journal-restored included).
  std::vector<std::vector<WindowDecision>> windows_by_topology;
};

// Builds the scenario catalog for a workload: topology t is drawn from
// Rng(derive_seed(scenario_seed, t)). Exposed so tests and the bench can
// construct the same catalog the session uses. Requires topologies ≤
// kMaxSessionTopologies.
std::vector<Scenario> make_session_catalog(TopologyKind kind,
                                           std::size_t topologies,
                                           std::uint64_t scenario_seed);

// Runs one full session against a fresh service built from `opt`.
// kInvalidInput for more than kMaxSessionTopologies topologies or when no
// identifiable scenario could be drawn; the shard cap and journal errors
// propagate from ProbeIngestService::start.
robust::Expected<SessionReport> run_service_session(
    const SessionWorkload& workload, const ServiceOptions& opt);

}  // namespace scapegoat::service
