#include "simnet/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace scapegoat::simnet {

ManipulationAdversary::ManipulationAdversary(std::vector<NodeId> attackers,
                                             Vector per_path_delay)
    : m_(std::move(per_path_delay)) {
  NodeId max_node = 0;
  for (NodeId a : attackers) max_node = std::max(max_node, a);
  malicious_.assign(max_node + 1, false);
  for (NodeId a : attackers) malicious_[a] = true;
}

bool ManipulationAdversary::is_malicious(NodeId node) const {
  return node < malicious_.size() && malicious_[node];
}

double ManipulationAdversary::hold_ms(std::size_t path_index) const {
  return path_index < m_.size() ? m_[path_index] : 0.0;
}

DropAdversary::DropAdversary(std::vector<NodeId> attackers,
                             std::vector<double> drop_prob_per_path)
    : drop_prob_(std::move(drop_prob_per_path)) {
  NodeId max_node = 0;
  for (NodeId a : attackers) max_node = std::max(max_node, a);
  malicious_.assign(max_node + 1, false);
  for (NodeId a : attackers) malicious_[a] = true;
}

bool DropAdversary::is_malicious(NodeId node) const {
  return node < malicious_.size() && malicious_[node];
}

bool DropAdversary::drop(std::size_t path_index, Rng& rng) const {
  const double p =
      path_index < drop_prob_.size() ? drop_prob_[path_index] : 0.0;
  return p > 0.0 && rng.bernoulli(p);
}

Vector ProbeRun::mean_delays() const {
  Vector y(per_path.size());
  for (std::size_t i = 0; i < per_path.size(); ++i)
    y[i] = per_path[i].mean_delay_ms();
  return y;
}

Vector ProbeRun::loss_metrics() const {
  Vector y(per_path.size());
  for (std::size_t i = 0; i < per_path.size(); ++i) {
    const double ratio = per_path[i].delivery_ratio();
    // Clamp so a fully-dropped path yields a large finite metric instead of
    // infinity (keeps the linear solve well-defined).
    y[i] = -std::log(std::max(ratio, 1e-9));
  }
  return y;
}

std::size_t ProbeRun::missing_paths() const {
  std::size_t n = 0;
  for (const PathMeasurement& m : per_path)
    if (!m.measured()) ++n;
  return n;
}

Simulator::Simulator(const Graph& g, std::vector<LinkModel> links,
                     const Adversary& adversary, Rng& rng)
    : g_(g), links_(std::move(links)), adversary_(adversary), rng_(rng) {
  assert(links_.size() == g_.num_links());
}

ProbeRun Simulator::run_probes(const std::vector<Path>& paths,
                               const ProbeOptions& opt) {
  assert(opt.link_delivery_prob.empty() ||
         opt.link_delivery_prob.size() == g_.num_links());

  struct Packet {
    std::size_t path = 0;
    std::size_t hop = 0;  // next link index within the path
    std::size_t seq = 0;  // probe index within the path (fault keys)
    double sent_time = 0.0;
    bool attacked = false;  // adversary already acted on this packet
  };
  std::vector<Packet> packets;

  ProbeRun run;
  run.per_path.assign(paths.size(), PathMeasurement{});

  EventQueue queue;
  events_processed_ = 0;

  const robust::FaultInjector* faults = opt.faults;

  // Schedule all probe spawns. Paths whose endpoint monitor is down under
  // the fault schedule send nothing at all — the path degrades to missing.
  for (std::size_t p = 0; p < paths.size(); ++p) {
    assert(is_valid_simple_path(g_, paths[p]));
    if (faults != nullptr && (faults->monitor_down(paths[p].source()) ||
                              faults->monitor_down(paths[p].destination()))) {
      run.per_path[p].monitor_down = true;
      continue;
    }
    for (std::size_t k = 0; k < opt.probes_per_path; ++k) {
      Event e;
      e.kind = Event::Kind::kSpawn;
      e.time_ms = static_cast<double>(k) * opt.probe_spacing_ms;
      e.packet = packets.size();
      packets.push_back(Packet{p, 0, k, 0.0, false});
      queue.push(e);
    }
  }

  // Cross-traffic reservations: background packets that occupy a link's
  // FIFO for one service slot each (no routing — they exist to perturb
  // probe timing the way routine traffic does).
  for (LinkId l = 0; l < g_.num_links() && opt.background_packets_per_link > 0;
       ++l) {
    for (std::size_t k = 0; k < opt.background_packets_per_link; ++k) {
      Event e;
      e.kind = Event::Kind::kBackground;
      e.time_ms = rng_.uniform(0.0, opt.background_window_ms);
      e.place = l;
      queue.push(e);
    }
  }

  // FIFO state per link: when the transmitter frees up.
  std::vector<double> link_free(g_.num_links(), 0.0);

  auto start_transmission = [&](std::size_t packet_id, double now) {
    Packet& pkt = packets[packet_id];
    const Path& path = paths[pkt.path];
    const LinkId link = path.links[pkt.hop];
    const LinkModel& model = links_[link];

    // Injected link failure: a failed link delivers nothing all run.
    if (faults != nullptr && faults->link_failed(link)) return;

    // Loss channel.
    if (!opt.link_delivery_prob.empty() &&
        !rng_.bernoulli(opt.link_delivery_prob[link])) {
      return;  // packet vanishes on this link
    }

    const double departure = std::max(now, link_free[link]) + model.service_ms;
    link_free[link] = departure;
    double arrival = departure + model.propagation_ms;
    if (opt.jitter_ms > 0.0) arrival += rng_.uniform(0.0, opt.jitter_ms);

    Event e;
    e.kind = Event::Kind::kNodeArrival;
    e.time_ms = arrival;
    e.packet = packet_id;
    e.place = path.nodes[pkt.hop + 1];
    ++pkt.hop;
    queue.push(e);
  };

  while (!queue.empty()) {
    const Event e = queue.pop();
    ++events_processed_;
    if (e.kind == Event::Kind::kBackground) {
      const LinkId link = e.place;
      link_free[link] =
          std::max(e.time_ms, link_free[link]) + links_[link].service_ms;
      continue;
    }
    Packet& pkt = packets[e.packet];
    const Path& path = paths[pkt.path];

    switch (e.kind) {
      case Event::Kind::kSpawn: {
        pkt.sent_time = e.time_ms;
        ++run.per_path[pkt.path].sent;
        // Injected transit loss: the probe counts as sent but vanishes.
        if (faults != nullptr &&
            faults->probe_lost(pkt.path, pkt.seq, opt.fault_attempt)) {
          break;
        }
        start_transmission(e.packet, e.time_ms);
        break;
      }
      case Event::Kind::kNodeArrival: {
        const NodeId node = e.place;
        if (node == path.destination()) {
          PathMeasurement& m = run.per_path[pkt.path];
          double delay = e.time_ms - pkt.sent_time;
          if (faults != nullptr) {
            // Reordered delivery: the probe is held past its successors and
            // the monitor records the late arrival.
            if (faults->probe_reordered(pkt.path, pkt.seq,
                                        opt.fault_attempt)) {
              delay += faults->spec().reorder_extra_ms;
              ++m.reordered;
            }
            // Measurement-clock jitter on the recorded value only.
            delay = std::max(
                0.0, delay + faults->clock_jitter(pkt.path, pkt.seq,
                                                  opt.fault_attempt));
          }
          if (opt.probe_deadline_ms > 0.0 && delay > opt.probe_deadline_ms) {
            ++m.timed_out;  // arrived, but past the deadline: unusable
            break;
          }
          ++m.delivered;
          m.total_delay_ms += delay;
          // Duplicated delivery: the monitor dedups by probe sequence
          // number, so duplicates are observable but don't skew the mean.
          if (faults != nullptr &&
              faults->probe_duplicated(pkt.path, pkt.seq,
                                       opt.fault_attempt)) {
            ++m.duplicates;
          }
          break;
        }
        // Adversarial action at the first malicious hop.
        if (!pkt.attacked && adversary_.is_malicious(node)) {
          pkt.attacked = true;
          if (adversary_.drop(pkt.path, rng_)) break;  // packet discarded
          const double hold = adversary_.hold_ms(pkt.path);
          if (hold > 0.0) {
            // Re-schedule the arrival at release time rather than starting
            // the transmission with a future timestamp now — doing the
            // latter would reserve the link's FIFO ahead of simulation time
            // and block probes that arrive in between.
            Event release = e;
            release.time_ms = e.time_ms + hold;
            queue.push(release);
            break;
          }
        }
        start_transmission(e.packet, e.time_ms);
        break;
      }
      case Event::Kind::kLinkDeparture:
      case Event::Kind::kBackground:
        // Departures are folded into start_transmission's FIFO bookkeeping;
        // background events are handled before the packet lookup above.
        break;
    }
  }
  return run;
}

}  // namespace scapegoat::simnet
