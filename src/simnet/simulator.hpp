// Packet-level discrete-event network simulator.
//
// The algebraic model (y′ = y + m) assumes the attacker can add exact
// per-path delays; this simulator grounds that in packet mechanics the way
// the paper's experiments describe them: probe packets traverse their
// measurement path hop by hop, each link contributes its propagation delay
// (the tomography link metric) plus FIFO serialization, malicious nodes
// hold or drop packets that visit them, and the monitors measure what
// actually arrives. `ProbeRun` aggregates per-path delay and delivery
// statistics that feed straight into the estimator.
//
// Scope decisions (documented, deliberate):
//   * probes are the only traffic; cross-traffic is modeled as optional
//     uniform per-link jitter rather than simulated flows (the paper folds
//     "routine traffic" into the random link metric the same way),
//   * a malicious node acts once per packet — at the first malicious hop —
//     holding it for the adversary's per-path delay or dropping it,
//   * links are bidirectional with a shared FIFO (one transmission at a
//     time), service time per packet is configurable and small relative to
//     propagation.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "robust/faults.hpp"
#include "simnet/event_queue.hpp"
#include "util/random.hpp"

namespace scapegoat::simnet {

struct LinkModel {
  double propagation_ms = 1.0;   // the tomography link metric
  double service_ms = 0.0;       // per-packet serialization (FIFO)
};

// Attacker behavior, consulted when a packet reaches a malicious node.
class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual bool is_malicious(NodeId node) const = 0;

  // Extra hold applied to a probe of measurement path `path_index` at its
  // first malicious hop.
  virtual double hold_ms(std::size_t path_index) const = 0;

  // Whether to drop the probe instead (checked before holding).
  virtual bool drop(std::size_t path_index, Rng& rng) const = 0;
};

// No attackers at all.
class NullAdversary final : public Adversary {
 public:
  bool is_malicious(NodeId) const override { return false; }
  double hold_ms(std::size_t) const override { return 0.0; }
  bool drop(std::size_t, Rng&) const override { return false; }
};

// The paper's manipulation-vector semantics: attacker nodes delay probes of
// path i by m_i in total (applied at the first malicious hop). Constraint 1
// is inherent: paths without a malicious node are untouched.
class ManipulationAdversary final : public Adversary {
 public:
  ManipulationAdversary(std::vector<NodeId> attackers, Vector per_path_delay);

  bool is_malicious(NodeId node) const override;
  double hold_ms(std::size_t path_index) const override;
  bool drop(std::size_t, Rng&) const override { return false; }

 private:
  std::vector<bool> malicious_;
  Vector m_;
};

// Grey-hole attacker: drops probes of selected paths with a probability
// (used by the loss-metric experiments); cooperative elsewhere.
class DropAdversary final : public Adversary {
 public:
  DropAdversary(std::vector<NodeId> attackers,
                std::vector<double> drop_prob_per_path);

  bool is_malicious(NodeId node) const override;
  double hold_ms(std::size_t) const override { return 0.0; }
  bool drop(std::size_t path_index, Rng& rng) const override;

 private:
  std::vector<bool> malicious_;
  std::vector<double> drop_prob_;
};

struct ProbeOptions {
  std::size_t probes_per_path = 1;
  double probe_spacing_ms = 1.0;   // gap between probes of the same path
  double jitter_ms = 0.0;          // uniform [0, jitter) extra per link hop
  // Per-link delivery probability (loss channel); empty = lossless.
  std::vector<double> link_delivery_prob;
  // Cross traffic: this many background packets per link, at uniform random
  // times in [0, background_window_ms), each occupying the link FIFO for
  // one service time. Only observable when LinkModel::service_ms > 0.
  std::size_t background_packets_per_link = 0;
  double background_window_ms = 100.0;
  // Optional deterministic fault schedule (robust/faults.hpp). Null means
  // fault-free; the RNG draw sequence is then identical to a build without
  // the fault layer, so pre-existing seeds reproduce bit-for-bit.
  const robust::FaultInjector* faults = nullptr;
  // Retry round this run belongs to: salts per-probe fault decisions so a
  // re-sent probe draws a fresh (still deterministic) fate.
  std::uint64_t fault_attempt = 0;
  // Per-probe deadline: a probe whose measured delay exceeds this counts as
  // timed out, not delivered. 0 disables the deadline.
  double probe_deadline_ms = 0.0;
};

struct PathMeasurement {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  double total_delay_ms = 0.0;  // over delivered probes
  // Degraded-delivery accounting (all zero in fault-free runs).
  std::size_t timed_out = 0;    // arrived past the probe deadline
  std::size_t duplicates = 0;   // extra copies the monitor deduplicated
  std::size_t reordered = 0;    // delivered behind a later-sent probe
  bool monitor_down = false;    // endpoint monitor was out; nothing sent

  double mean_delay_ms() const {
    return delivered == 0 ? 0.0 : total_delay_ms / delivered;
  }
  double delivery_ratio() const {
    return sent == 0 ? 0.0 : static_cast<double>(delivered) / sent;
  }
  // A path is measured only when at least one probe survived end to end.
  bool measured() const { return delivered > 0; }
};

struct ProbeRun {
  std::vector<PathMeasurement> per_path;

  // y′ vector of mean end-to-end delays (0 where nothing arrived).
  Vector mean_delays() const;
  // −log(delivery ratio) per path: the additive loss metric (§II-A).
  Vector loss_metrics() const;
  // Paths with no delivered probe (lost, timed out, or monitor down).
  std::size_t missing_paths() const;
};

class Simulator {
 public:
  // `links` must have one model per graph link (propagation = link metric).
  Simulator(const Graph& g, std::vector<LinkModel> links,
            const Adversary& adversary, Rng& rng);

  // Sends probes along each measurement path and collects statistics.
  ProbeRun run_probes(const std::vector<Path>& paths,
                      const ProbeOptions& opt);

  // Total simulated events in the last run (observability/testing).
  std::size_t events_processed() const { return events_processed_; }

 private:
  const Graph& g_;
  std::vector<LinkModel> links_;
  const Adversary& adversary_;
  Rng& rng_;
  std::size_t events_processed_ = 0;
};

}  // namespace scapegoat::simnet
