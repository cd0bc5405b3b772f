#include "service/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "robust/watchdog.hpp"
#include "util/random.hpp"

namespace scapegoat::service {

std::vector<Scenario> make_session_catalog(TopologyKind kind,
                                           std::size_t topologies,
                                           std::uint64_t scenario_seed) {
  std::vector<Scenario> catalog;
  catalog.reserve(topologies);
  for (std::size_t t = 0; t < topologies; ++t) {
    Rng rng(derive_seed(scenario_seed, t));
    // A draw can miss identifiability; the rng advances between attempts,
    // so retries explore new topologies while staying (seed, t)-pure.
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::optional<Scenario> scenario = make_scenario(kind, rng);
      if (scenario) {
        catalog.push_back(std::move(*scenario));
        break;
      }
    }
  }
  return catalog;
}

namespace {

struct ProducerResult {
  std::vector<std::uint64_t> shed_ids;
  std::uint64_t probes = 0;
};

void produce(std::size_t producer, std::size_t producers,
             const SessionWorkload& workload, const simnet::OpenLoopLoadGen& gen,
             ProbeIngestService& service, ProducerResult& result,
             std::atomic<bool>& interrupted) {
  struct Cursor {
    std::uint32_t topology;
    std::uint64_t next;
  };
  std::vector<Cursor> cursors;
  for (std::uint32_t t = static_cast<std::uint32_t>(producer);
       t < workload.topologies;
       t += static_cast<std::uint32_t>(producers)) {
    // At-least-once redelivery: a journal-restored service hands back the
    // ack cursor; everything before it would be deduped anyway.
    cursors.push_back({t, service.resume_seq(t)});
  }

  const std::uint64_t total = workload.load.batches_per_topology;
  for (;;) {
    bool any = false;
    // Seq-major round-robin over the owned topologies: per-topology FIFO,
    // interleaved batch ids arrive roughly in order.
    for (Cursor& c : cursors) {
      if (c.next >= total) continue;
      any = true;
      if (robust::shutdown_requested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      const std::uint64_t batch_id = interleaved_batch_id(
          c.topology, c.next, workload.topologies);
      result.probes += gen.make_batch(c.topology, c.next).y.size();
      std::size_t attempt = 0;
      for (;;) {
        AdmitResult admit =
            service.submit(gen.make_batch(c.topology, c.next));
        if (admit.outcome == Admission::kRejected && workload.closed_loop) {
          // Satellite-2 composition: the policy's own backoff curve floored
          // by the service's retry-after hint.
          const double wait_ms = workload.retry.backoff_before(
              ++attempt, /*remaining_deadline_ms=*/-1.0,
              admit.retry_after_ms);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(wait_ms));
          if (robust::shutdown_requested()) {
            interrupted.store(true, std::memory_order_relaxed);
            return;
          }
          continue;
        }
        if (admit.outcome == Admission::kShed)
          result.shed_ids.push_back(batch_id);
        if (admit.outcome == Admission::kClosed) return;  // draining: stop
        break;  // admitted, shed, or open-loop rejection: move on
      }
      ++c.next;
    }
    if (!any) return;
  }
}

}  // namespace

robust::Expected<SessionReport> run_service_session(
    const SessionWorkload& workload, const ServiceOptions& opt) {
  if (workload.topologies > kMaxSessionTopologies) {
    return robust::Error{robust::ErrorCode::kInvalidInput,
                         std::to_string(workload.topologies) +
                             " topologies (at most " +
                             std::to_string(kMaxSessionTopologies) + ")"};
  }
  const std::vector<Scenario> catalog = make_session_catalog(
      workload.kind, workload.topologies, workload.scenario_seed);
  if (catalog.size() != workload.topologies)
    return robust::Error{robust::ErrorCode::kInvalidInput,
                         "could not draw an identifiable scenario for every "
                         "topology"};

  std::vector<const Scenario*> refs;
  std::vector<simnet::OpenLoopLoadGen::TopologyRef> gen_refs;
  for (const Scenario& s : catalog) {
    refs.push_back(&s);
    gen_refs.push_back({&s.estimator(), &s.x_true()});
  }

  ProbeIngestService service(refs, opt);
  robust::Status started = service.start();
  if (!started.ok()) return started.error();

  const simnet::OpenLoopLoadGen gen(std::move(gen_refs), workload.load);

  const std::size_t producers =
      std::max<std::size_t>(1, std::min(workload.producers,
                                        workload.topologies));
  std::vector<ProducerResult> results(producers);
  std::atomic<bool> interrupted{false};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p)
    threads.emplace_back([&, p] {
      produce(p, producers, workload, gen, service, results[p], interrupted);
    });
  for (std::thread& t : threads) t.join();

  service.drain();

  SessionReport report;
  report.stats = service.stats();
  report.final_state = service.state();
  report.interrupted = interrupted.load(std::memory_order_relaxed);
  for (const ProducerResult& r : results) {
    report.probes_offered += r.probes;
    report.shed_ids.insert(report.shed_ids.end(), r.shed_ids.begin(),
                           r.shed_ids.end());
  }
  std::sort(report.shed_ids.begin(), report.shed_ids.end());
  report.windows_by_topology.resize(workload.topologies);
  for (std::uint32_t t = 0; t < workload.topologies; ++t)
    report.windows_by_topology[t] = service.decisions(t);
  return report;
}

}  // namespace scapegoat::service
