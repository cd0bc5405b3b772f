// Workload `service_stream`: the probe-ingest service over 4 paper wireline
// topologies, 2 shards, no journal, shedding off, fed by one producer thread
// (the calling thread).
//
// Set-up builds the 4 deployments (each with its first R⁺), generates every
// batch the run will send, and pushes one warm-up batch per topology through
// a service. The measured part is a sequence of epochs; each epoch starts a
// fresh service over the same deployments and sends the same batch stream,
// so every epoch does the same work.
//
//   * saturation epochs: path growth on (one appended path per 256 batches
//     per topology, so each epoch runs 28 try_append_path + R⁺ recomputes);
//     a closed-loop producer sends 2048 batches per topology as fast as
//     admission allows, sleeping out the retry-after hint of each rejected
//     batch before re-sending it; throughput is probe entries processed per
//     second,
//   * fixed-rate epochs: no growth; an open-loop producer sends 1024 batches
//     per topology at a fixed 2000 batches/s and times each batch from its
//     scheduled send time to the moment the service's processed count
//     passes it (the k-th completion answers the k-th send). Growth stays
//     out of this phase: an R⁺ recompute stalls a shard for 50–250 ms on a
//     noisy host, which made p99 swing several-fold between identical runs.

#include <algorithm>
#include <thread>

#include "common.hpp"
#include "obs/obs.hpp"
#include "service/supervisor.hpp"
#include "simnet/load_gen.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace scapegoat;
using service::Admission;
using service::ProbeBatch;
using service::ProbeIngestService;
using service::ServiceStats;

namespace {

constexpr std::size_t kTopologies = 4;
constexpr double kFixedRate = 2000.0;  // batches/s, well below capacity

struct Sizes {
  std::uint64_t saturation_batches;  // per topology per epoch
  std::uint64_t fixed_batches;       // per topology per epoch
};

Sizes sizes_for(bool tiny) {
  return tiny ? Sizes{256, 128} : Sizes{2048, 1024};
}

// Saturation epochs grow one path per eighth of the epoch per topology (per
// 256 batches at full size); fixed-rate epochs run without growth.
service::GrowthPlan growth_for(std::uint64_t batches, bool fixed_rate) {
  if (fixed_rate) return {};
  return {batches / 8, 8};
}

service::ServiceOptions service_options(std::uint64_t seed,
                                        service::GrowthPlan growth) {
  service::ServiceOptions o;
  o.shards = 2;
  o.retry_after_base_ms = 1.0;
  o.shed.mode = service::ShedPolicy::Mode::kOff;
  o.window = 8;
  o.stride = 8;
  o.alpha_ms = 200.0;
  o.seed = seed;
  o.growth = growth;
  return o;
}

struct Fixture {
  std::vector<Scenario> catalog;
  std::vector<const Scenario*> pointers;
  // stream[phase][t][seq]: topology t's batches for the saturation (0) and
  // fixed-rate (1) epochs, generated once.
  std::vector<std::vector<ProbeBatch>> stream[2];
};

std::optional<Fixture> set_up(const RunOptions& opt, Spans& spans) {
  Fixture f;
  const Sizes sz = sizes_for(opt.tiny);
  for (std::size_t t = 0; t < kTopologies; ++t) {
    std::optional<Scenario> sc =
        build_wireline(kTopologySeeds[t], derive_seed(kTopologySeeds[t], 1),
                       derive_seed(opt.seed, t), opt.tiny, spans);
    if (!sc) return std::nullopt;
    f.catalog.push_back(std::move(*sc));
  }
  for (const Scenario& s : f.catalog) f.pointers.push_back(&s);

  for (const bool fixed_rate : {false, true}) {
    const std::uint64_t batches =
        fixed_rate ? sz.fixed_batches : sz.saturation_batches;
    simnet::LoadGenOptions load;
    load.seed = derive_seed(opt.seed, fixed_rate ? 0xf1edull : 0x10adull);
    load.noise_ms = 1.0;
    load.attack_every = 64;  // some windows must raise the alarm
    load.growth = growth_for(batches, fixed_rate);
    std::vector<simnet::OpenLoopLoadGen::TopologyRef> refs;
    for (const Scenario& s : f.catalog)
      refs.push_back({&s.estimator(), &s.x_true()});
    auto s = spans.span("simnet.make_batch");
    const simnet::OpenLoopLoadGen gen(std::move(refs), load);
    auto& stream = f.stream[fixed_rate ? 1 : 0];
    stream.resize(kTopologies);
    for (std::uint32_t t = 0; t < kTopologies; ++t)
      for (std::uint64_t q = 0; q < batches; ++q)
        stream[t].push_back(gen.make_batch(t, q));
  }

  // Warm-up: one batch per topology through a service.
  ProbeIngestService svc(f.pointers, service_options(opt.seed, {}));
  if (!svc.start().ok()) return std::nullopt;
  for (std::uint32_t t = 0; t < kTopologies; ++t)
    if (svc.submit(f.stream[1][t][0]).outcome != Admission::kAdmitted)
      return std::nullopt;
  svc.drain();
  if (svc.stats().processed != kTopologies) return std::nullopt;
  return f;
}

struct Epoch {
  double wall_s = 0.0;           // first send → drained
  double submit_s = 0.0;         // producer time inside submit()
  std::uint64_t probes = 0;      // measurement entries processed
  std::uint64_t batches = 0;     // batches offered (distinct)
  std::uint64_t failed = 0;      // failed output checks
  ServiceStats stats;
  std::vector<double> latency_ms;  // fixed-rate epochs only
};

// The service's own accounting must balance after a drain.
std::uint64_t check_epoch(const ServiceStats& s, std::uint64_t batches) {
  std::uint64_t failed = 0;
  if (s.offered != s.admitted + s.rejected + s.shed + s.closed) ++failed;
  if (s.lost_in_flight() != 0) ++failed;
  if (s.restarts != 0) ++failed;
  if (s.processed != batches) failed += batches > s.processed
                                            ? batches - s.processed
                                            : 1;
  if (s.shed != 0 || s.malformed != 0 || s.quarantined != 0) ++failed;
  return failed;
}

// Submits `batch`, sleeping out each retry-after hint (closed loop).
void submit_closed(ProbeIngestService& svc, const ProbeBatch& batch,
                   Epoch& e, Spans& spans) {
  for (;;) {
    service::AdmitResult r;
    {
      auto s = spans.span("service.submit");
      const Clock::time_point t0 = Clock::now();
      r = svc.submit(batch);
      e.submit_s += seconds_since(t0);
    }
    if (r.outcome != Admission::kRejected) return;
    auto s = spans.span("service.backoff");
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(r.retry_after_ms));
  }
}

Epoch run_epoch(const Fixture& f, const RunOptions& opt, std::uint64_t epoch,
                bool fixed_rate, Fingerprint* fp, Spans& spans) {
  const Sizes sz = sizes_for(opt.tiny);
  const std::uint64_t per_topology =
      fixed_rate ? sz.fixed_batches : sz.saturation_batches;
  Epoch e;
  spans.set_op(epoch);
  std::optional<ProbeIngestService> svc;
  {
    auto s = spans.span("service.start");
    svc.emplace(f.pointers,
                service_options(opt.seed, growth_for(per_topology, fixed_rate)));
    if (!svc->start().ok()) {
      e.failed = 1;
      return e;
    }
  }
  const std::uint64_t total = per_topology * kTopologies;
  std::vector<double> done_at;  // completion times, seconds from t0
  done_at.reserve(fixed_rate ? total : 0);
  const Clock::time_point t0 = Clock::now();
  // Polls the processed count, then spins ~10 µs so the queue locks that
  // stats() takes stay mostly free for the shards. The producer keeps its
  // core: yielding let the scheduler park it for milliseconds.
  auto poll = [&] {
    const std::uint64_t processed = svc->stats().processed;
    const double now = seconds_since(t0);
    while (done_at.size() < processed) done_at.push_back(now);
    while (seconds_since(t0) < now + 10e-6) {
    }
  };

  std::uint64_t k = 0;
  for (std::uint64_t seq = 0; seq < per_topology; ++seq) {
    for (std::uint32_t t = 0; t < kTopologies; ++t, ++k) {
      const ProbeBatch& batch = f.stream[fixed_rate ? 1 : 0][t][seq];
      e.probes += batch.y.size();
      if (fixed_rate) {
        const double due = static_cast<double>(k) / kFixedRate;
        auto s = spans.span("bench.pace");
        while (seconds_since(t0) < due) poll();
      }
      submit_closed(*svc, batch, e, spans);
    }
  }
  if (fixed_rate) {
    auto s = spans.span("bench.pace");
    while (done_at.size() < total && seconds_since(t0) < 60.0) poll();
    for (std::uint64_t i = 0; i < done_at.size(); ++i)
      e.latency_ms.push_back(
          (done_at[i] - static_cast<double>(i) / kFixedRate) * 1e3);
  }
  {
    auto s = spans.span("service.drain");
    svc->drain();
  }
  e.wall_s = seconds_since(t0);
  e.batches = total;
  e.stats = svc->stats();
  {
    auto s = spans.span("bench.check");
    e.failed += check_epoch(e.stats, total);
    if (fp != nullptr) {
      for (std::uint32_t t = 0; t < kTopologies; ++t) {
        for (const service::WindowDecision& d : svc->decisions(t)) {
          fp->mix(d.alarm ? 1 : 0);
          fp->mix_double(d.mean_residual_ms);
        }
      }
    }
  }
  return e;
}

}  // namespace

RunResult run_service_stream(const RunOptions& opt) {
  RunResult out;
  Spans spans;
  const std::size_t setups = opt.tiny ? 1 : 5;
  std::vector<double> setup_times;
  std::optional<Fixture> fixture;
  for (std::size_t k = 0; k < setups; ++k) {
    fixture.reset();
    const Clock::time_point t0 = Clock::now();
    fixture = set_up(opt, spans);
    setup_times.push_back(seconds_since(t0));
    if (!fixture) break;
  }
  if (!fixture) {
    out.attempted = out.failed = 1;
    out.notes.push_back("set-up failed");
    return out;
  }

  Fingerprint fp;
  for (std::size_t t = 0; t < kTopologies; ++t) {
    const Scenario& sc = fixture->catalog[t];
    out.failed += check_deployment(sc, t, opt.tiny);
    fp.mix(sc.estimator().num_paths());
    fp.mix(sc.monitors().size());
  }

  // Both phases share the run's time budget; a traced run spends half of
  // each phase's share untraced, then repeats the same epochs traced.
  const double phase_budget = opt.seconds / (opt.trace ? 4 : 2);
  std::vector<double> probes_per_s, latency_ms, epoch_p50_ms;
  std::uint64_t rejected = 0, max_depth = 0;
  double saturation_wall = 0.0, saturation_submit = 0.0;
  auto epoch = [&](std::uint64_t i, bool fixed_rate) {
    Epoch e = run_epoch(*fixture, opt, i, fixed_rate,
                        i == 0 && !fixed_rate ? &fp : nullptr, spans);
    out.attempted += e.batches;
    out.failed += e.failed;
    if (fixed_rate) {
      latency_ms.insert(latency_ms.end(), e.latency_ms.begin(),
                        e.latency_ms.end());
      epoch_p50_ms.push_back(median(e.latency_ms));
    } else {
      probes_per_s.push_back(static_cast<double>(e.probes) / e.wall_s);
      saturation_wall += e.wall_s;
      saturation_submit += e.submit_s;
    }
    rejected += e.stats.rejected;
    max_depth = std::max<std::uint64_t>(max_depth, e.stats.max_queue_depth);
  };
  auto phase = [&](bool fixed_rate) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t n = 0;
    while (n < 1 || seconds_since(t0) < phase_budget) epoch(n++, fixed_rate);
    return n;
  };

  const Clock::time_point loop0 = Clock::now();
  const std::uint64_t n_saturation = phase(false);
  const std::uint64_t n_fixed = phase(true);
  const double loop_wall = seconds_since(loop0);
  out.fingerprint = fp.value();
  out.notes.push_back(
      "epochs " + std::to_string(n_saturation) + " saturation + " +
      std::to_string(n_fixed) + " fixed-rate, rejected " +
      std::to_string(rejected) + ", producer busy " +
      std::to_string(saturation_submit / saturation_wall));
  if (!opt.trace) {
    // The fastest set-up and the fixed-rate epoch with the lowest median:
    // the host slows down in spells, which only ever add time (see README).
    out.metrics["setup_s"] = min_of(setup_times);
    out.metrics["throughput_per_s"] = median(probes_per_s);
    out.metrics["latency_p50_ms"] = min_of(epoch_p50_ms);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  const double untraced_wall = setup_times.back() + loop_wall;
  // Batch latency comes from the untraced epochs: spans on the producer's
  // path would add to the very delays being measured.
  out.metrics["service.batch_latency_p99_ms"] = quantile(latency_ms, 0.99);
  obs::MetricsRegistry registry;
  spans.enable(true);
  rejected = max_depth = 0;
  saturation_wall = saturation_submit = 0.0;
  double traced_wall = 0.0;
  {
    obs::ScopedInstrumentation scope(registry);
    const Clock::time_point t0 = Clock::now();
    fixture.reset();
    fixture = set_up(opt, spans);
    if (!fixture) {
      ++out.failed;
      return out;
    }
    for (std::uint64_t i = 0; i < n_saturation; ++i) epoch(i, false);
    for (std::uint64_t i = 0; i < n_fixed; ++i) epoch(i, true);
    traced_wall = seconds_since(t0);
  }
  add_trace_metrics(out, spans, traced_wall, untraced_wall,
                    registry.snapshot());
  out.metrics["trace.ops"] = static_cast<double>(n_saturation + n_fixed);
  std::uint64_t paths = 0, monitors = 0;
  for (std::size_t t = 0; t < kTopologies; ++t) {
    const Scenario& sc = fixture->catalog[t];
    out.failed += check_deployment(sc, t, opt.tiny);
    paths += sc.estimator().num_paths();
    monitors += sc.monitors().size();
  }
  out.metrics["tomography.paths"] = static_cast<double>(paths);
  out.metrics["tomography.monitors"] = static_cast<double>(monitors);
  out.metrics["service.rejected"] = static_cast<double>(rejected);
  out.metrics["service.max_queue_depth"] = static_cast<double>(max_depth);
  out.metrics["service.producer_busy_ratio"] =
      saturation_submit / saturation_wall;
  if (!opt.trace_path.empty() && !spans.write_jsonl(opt.trace_path))
    out.notes.push_back("could not write " + opt.trace_path);
  return out;
}

}  // namespace perfbench
