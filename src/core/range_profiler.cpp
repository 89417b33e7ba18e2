#include "core/range_profiler.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "graph/passes.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::core {

namespace {

bool has_analytic_bound(ops::OpKind k, Bound& out) {
  switch (k) {
    case ops::OpKind::kTanh:
      out = {-1.0f, 1.0f};
      return true;
    case ops::OpKind::kSigmoid:
      out = {0.0f, 1.0f};
      return true;
    case ops::OpKind::kRelu6:
      out = {0.0f, 6.0f};
      return true;
    default:
      return false;
  }
}

}  // namespace

Bounds RangeProfile::bounds(double percentile) const {
  if (percentile <= 0.0 || percentile > 100.0)
    throw std::invalid_argument("RangeProfile::bounds: bad percentile");
  Bounds out;
  for (const auto& [name, stats] : layers_) {
    if (stats.analytic) {
      out.emplace(name, stats.analytic_bound);
      continue;
    }
    if (stats.range.count == 0) continue;
    Bound b;
    if (percentile >= 100.0) {
      b.low = stats.range.min_value;
      b.up = stats.range.max_value;
    } else {
      const auto sample = stats.reservoir.values();
      b.up = static_cast<float>(util::percentile(sample, percentile));
      // For non-negative activations (ReLU/ELU-with-positive-floor) the
      // observed minimum is kept; for signed ones take the symmetric
      // percentile of the low tail.
      if (stats.range.min_value >= 0.0f) {
        b.low = stats.range.min_value;
      } else {
        b.low =
            static_cast<float>(util::percentile(sample, 100.0 - percentile));
      }
    }
    out.emplace(name, b);
  }
  return out;
}

util::RunningRange RangeProfile::range_of(const std::string& name) const {
  const auto it = layers_.find(name);
  if (it == layers_.end())
    throw std::invalid_argument("RangeProfile: unknown layer '" + name + "'");
  return it->second.range;
}

RangeProfile RangeProfiler::profile(
    const graph::Graph& g, const std::vector<fi::Feeds>& samples) const {
  return run_profile(g, samples, /*sample_reservoirs=*/true);
}

Bounds RangeProfiler::derive_bounds(
    const graph::Graph& g, const std::vector<fi::Feeds>& samples) const {
  return run_profile(g, samples, options_.percentile < 100.0)
      .bounds(options_.percentile);
}

RangeProfile RangeProfiler::run_profile(const graph::Graph& g,
                                        const std::vector<fi::Feeds>& samples,
                                        bool sample_reservoirs) const {
  if (samples.empty())
    throw std::invalid_argument("RangeProfiler: no samples");
  RangeProfile prof;

  // Pre-create per-ACT-layer slots (including analytic ones); `observed`
  // indexes the layers that gather statistics.
  std::map<std::string, std::size_t> slot_of;
  std::vector<RangeProfile::LayerStats*> observed;
  for (const graph::Node& n : g.nodes()) {
    if (!ops::is_activation(n.op->kind())) continue;
    Bound analytic;
    if (has_analytic_bound(n.op->kind(), analytic)) {
      RangeProfile::LayerStats stats{
          {}, util::Reservoir(1, options_.seed), true, analytic};
      prof.layers_.emplace(n.name, std::move(stats));
    } else {
      RangeProfile::LayerStats stats{
          {},
          util::Reservoir(options_.reservoir_capacity,
                          util::derive_seed(options_.seed,
                                            static_cast<std::uint64_t>(n.id))),
          false,
          {}};
      const auto [it, inserted] =
          prof.layers_.emplace(n.name, std::move(stats));
      if (inserted) {
        slot_of.emplace(n.name, observed.size());
        observed.push_back(&it->second);
      }
    }
  }

  // What one sample contributes to one layer: its extrema, and (for the
  // reservoirs) a copy of its values.
  struct SampleStats {
    util::RunningRange range;
    std::vector<float> values;
  };

  // Samples run in parallel, one shared plan and one arena per worker.
  // Extrema need no copies, so the whole stream is one chunk; reservoir
  // sampling holds at most kReservoirChunk samples' activations at once.
  constexpr std::size_t kReservoirChunk = 16;
  const std::size_t n = samples.size();
  const std::size_t chunk =
      sample_reservoirs ? std::min(n, kReservoirChunk) : n;
  const graph::Executor exec({tensor::DType::kFloat32});
  const graph::ExecutionPlan plan = graph::compile(
      g, {.dtype = tensor::DType::kFloat32, .observe = graph::Observe::kAll});
  std::vector<graph::Arena> arenas(util::worker_count(chunk));
  std::vector<std::vector<SampleStats>> per_sample(
      chunk, std::vector<SampleStats>(observed.size()));
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t count = std::min(chunk, n - begin);
    util::parallel_for_workers(count, [&](unsigned worker, std::size_t k) {
      std::vector<SampleStats>& mine = per_sample[k];
      for (SampleStats& s : mine) {
        s.range = {};
        s.values.clear();
      }
      exec.run(plan, samples[begin + k], arenas[worker],
               [&](const graph::Node& node, tensor::Tensor& out) {
                 const auto it = slot_of.find(node.name);
                 if (it == slot_of.end()) return;
                 SampleStats& s = mine[it->second];
                 const auto values = out.values();
                 for (float v : values) s.range.observe(v);
                 if (sample_reservoirs)
                   s.values.insert(s.values.end(), values.begin(),
                                   values.end());
               });
    });
    // Fold in sample order: RunningRange::merge keeps its left operand on
    // ties, as the serial `<` does, and each reservoir sees the stream's
    // order.
    for (std::size_t k = 0; k < count; ++k)
      for (std::size_t l = 0; l < observed.size(); ++l) {
        const SampleStats& s = per_sample[k][l];
        observed[l]->range.merge(s.range);
        for (float v : s.values) observed[l]->reservoir.observe(v);
      }
  }
  return prof;
}

}  // namespace rangerpp::core
