// Range profiler: derives restriction bounds for every activation layer by
// streaming training data through the model and recording the observed
// value distribution (paper §III-C step 1, §V-A "Deriving Restriction
// Bounds").
//
// Two bound choices are supported, matching the paper:
//  * the conservative default — the observed min/max (the "100th
//    percentile" configuration of §VI-A);
//  * percentile bounds (99.9 / 99 / 98 ...) that trade accuracy for
//    resilience (Fig 10 / Table V), computed from a per-layer reservoir
//    sample of the activation values.
//
// Functions with inherent bounds (Tanh: (-1,1), Sigmoid: (0,1)) get their
// analytic bounds and need no statistics.
//
// Profiling runs the samples in parallel (one shared plan, one arena per
// worker) and folds each sample's statistics into the per-layer
// accumulators in sample order, so the result is bit-identical to a serial
// pass over the stream: extrema ties keep the first-seen value and every
// reservoir sees its values in stream order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bounds.hpp"
#include "fi/campaign.hpp"  // Feeds
#include "graph/executor.hpp"
#include "util/stats.hpp"

namespace rangerpp::core {

struct ProfileOptions {
  // Percentile in (0, 100] used for the upper bound (and 100-q for the
  // lower bound of signed activations).  100 = exact observed extrema.
  double percentile = 100.0;
  // Reservoir capacity per layer for percentile estimation.
  std::size_t reservoir_capacity = 1 << 16;
  std::uint64_t seed = 7;
  // Profiling always runs in float32 (bounds describe the true value
  // distribution; quantisation is an execution-time concern).
};

// Per-layer profile retained so callers can re-derive bounds at several
// percentiles from one profiling pass (used by the Fig 10 sweep).
class RangeProfile {
 public:
  // Bounds at the configured percentile.
  Bounds bounds(double percentile = 100.0) const;

  // Observed extrema for one layer (tests / Fig 4).
  util::RunningRange range_of(const std::string& node_name) const;

  struct LayerStats {
    util::RunningRange range;
    util::Reservoir reservoir;
    bool analytic = false;  // Tanh/Sigmoid: bounds from the function itself
    Bound analytic_bound{};
  };
  const std::map<std::string, LayerStats>& layers() const { return layers_; }

 private:
  friend class RangeProfiler;
  std::map<std::string, LayerStats> layers_;
};

class RangeProfiler {
 public:
  explicit RangeProfiler(ProfileOptions options = {}) : options_(options) {}

  // Streams `samples` through `g` and accumulates per-ACT-layer statistics.
  RangeProfile profile(const graph::Graph& g,
                       const std::vector<fi::Feeds>& samples) const;

  // Convenience: profile + extract bounds at the configured percentile.
  // At percentile 100 the bounds are the extrema alone, so the reservoirs
  // are left empty.
  Bounds derive_bounds(const graph::Graph& g,
                       const std::vector<fi::Feeds>& samples) const;

 private:
  RangeProfile run_profile(const graph::Graph& g,
                           const std::vector<fi::Feeds>& samples,
                           bool sample_reservoirs) const;

  ProfileOptions options_;
};

}  // namespace rangerpp::core
