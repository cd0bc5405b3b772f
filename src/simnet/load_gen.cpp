#include "simnet/load_gen.hpp"

#include <cassert>

#include "util/random.hpp"

namespace scapegoat::simnet {

OpenLoopLoadGen::OpenLoopLoadGen(std::vector<TopologyRef> topologies,
                                 const LoadGenOptions& opt)
    : opt_(opt) {
  clean_.reserve(topologies.size());
  base_paths_.reserve(topologies.size());
  for (const TopologyRef& ref : topologies) {
    assert(ref.estimator != nullptr && ref.x_true != nullptr);
    base_paths_.push_back(ref.estimator->num_paths());
    clean_.push_back(ref.estimator->sparse_r() * *ref.x_true);
  }
}

service::ProbeBatch OpenLoopLoadGen::make_batch(std::uint32_t topology,
                                                std::uint64_t seq) const {
  assert(topology < clean_.size());
  const Vector& y0 = clean_[topology];
  const std::size_t base = base_paths_[topology];
  const std::size_t width = service::grown_path_count(base, opt_.growth, seq);

  service::ProbeBatch batch;
  batch.topology = topology;
  batch.seq = seq;
  batch.batch_id = service::interleaved_batch_id(topology, seq, clean_.size());

  // Jitter stream owned by this batch alone — (seed, batch_id) pure.
  Rng rng(derive_seed(opt_.seed, batch.batch_id));
  batch.y = Vector(width);
  for (std::size_t i = 0; i < width; ++i) {
    // Grown paths repeat an existing route, so their clean measurement is
    // that route's y₀ entry — same rule the shard's estimator applies.
    const std::size_t source =
        i < base ? i : service::grown_path_source(base, i - base);
    batch.y[i] = y0[source] +
                 (opt_.noise_ms > 0.0 ? rng.uniform(0.0, opt_.noise_ms) : 0.0);
  }
  if (is_attack_batch(seq) && width > 0) {
    // One inflated path with every other path untouched is inconsistent
    // with ANY x (R has more rows than columns), so the window over these
    // batches trips the Eq. 23 threshold.
    batch.y[rng.index(width)] += opt_.attack_delay_ms;
  }
  return batch;
}

std::uint64_t OpenLoopLoadGen::total_probes() const {
  std::uint64_t probes = 0;
  for (std::size_t t = 0; t < clean_.size(); ++t) {
    for (std::uint64_t s = 0; s < opt_.batches_per_topology; ++s)
      probes += service::grown_path_count(base_paths_[t], opt_.growth, s);
  }
  return probes;
}

}  // namespace scapegoat::simnet
