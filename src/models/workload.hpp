// Workload = model graph + datasets + evaluation metadata, the unit every
// bench binary iterates over.  make_workload() assembles the synthetic
// datasets, obtains pretrained weights (training the trainable models once
// and caching them on disk), and builds the unprotected inference graph.
//
// A model's synthetic stream is [0, train_n) training samples followed by
// the validation samples.  make_workload() synthesises the training range
// only on a weight-cache miss (training or head calibration); otherwise it
// reads just the profiling prefix and the validation range.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "fi/sdc.hpp"
#include "models/zoo.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rangerpp::models {

// The workload seed every bench and campaign uses unless told otherwise.
inline constexpr std::uint64_t kDefaultWorkloadSeed = 2021;

struct WorkloadOptions {
  // Activation override; kInput (sentinel) = the model's published one.
  ops::OpKind act = ops::OpKind::kInput;
  // Bound-derivation samples: the first profile_samples of the training
  // range (capped at its size; 0 = all of it).
  std::size_t profile_samples = 200;
  std::size_t eval_inputs = 10;       // FI inputs (paper: 10 per model)
  std::size_t validation_samples = 200;
  bool trained = true;                // train (or load cached) weights
  std::uint64_t seed = kDefaultWorkloadSeed;
};

struct Workload {
  ModelId id{};
  ops::OpKind act{};
  graph::Graph graph;  // unprotected
  std::string input_name;

  // Training-range prefix used to derive restriction bounds: 200 samples
  // by default, 4-33% of the training set depending on the model.  The
  // paper profiles a random ~20% (§V-A).  This divergence keeps the
  // sample count fixed across models; the synthetic stream is i.i.d., so
  // a prefix is still a uniform sample of it.
  std::vector<fi::Feeds> profile_feeds;
  // Inputs used for fault injection (fault-free-correct where possible).
  std::vector<fi::Feeds> eval_feeds;
  // Held-out validation set for the accuracy experiments.
  data::Dataset validation;

  Weights weights;  // the graph's parameters (for rebuilt variants)
};

Workload make_workload(ModelId id, const WorkloadOptions& options = {});

// Weight-cache file for a model's weights under `act`, trained on the
// synthetic data of workload seed `seed`; `part` names an extra file
// ("head" for a calibrated classifier head).  The default seed keeps the
// seedless name, <model>_<act>[_<part>].bin, so existing caches stay
// valid; any other seed adds _s<seed> after the activation tag.
std::string weight_cache_path(ModelId id, ops::OpKind act,
                              std::uint64_t seed,
                              const std::string& part = "");

// Builds each (model, activation-variant) workload at most once and hands
// out stable references — the construction (training or loading weights,
// synthesising datasets) dominates small campaigns, and a suite of many
// cells over the same models must not pay it per cell.  Options other
// than `act` are fixed at cache construction so every cached workload is
// comparable.
//
// Thread-safe: get() may be called concurrently from any number of
// threads (the scheduler daemon shares one cache across concurrent
// requests).  The map shape is guarded by a mutex held only for
// find-or-insert; the expensive build runs outside it under a per-entry
// once_flag, so two threads requesting the same key build it exactly
// once (the second blocks until the first finishes) and requests for
// different keys build in parallel.  Returned references stay stable
// for the cache's lifetime (entries are heap-allocated and never
// evicted), and a returned Workload is immutable, so post-build reads
// need no further synchronisation.
class WorkloadCache {
 public:
  explicit WorkloadCache(WorkloadOptions base = {}) : base_(base) {}

  // `act` uses the WorkloadOptions convention (kInput sentinel = the
  // model's published activation).
  const Workload& get(ModelId id, ops::OpKind act = ops::OpKind::kInput);

  const WorkloadOptions& options() const { return base_; }
  std::size_t size() const;

 private:
  struct Entry {
    std::once_flag built;
    std::unique_ptr<Workload> workload;
  };

  WorkloadOptions base_;
  mutable util::Mutex mu_;  // held only for find-or-insert, never a build
  std::map<std::pair<int, int>, std::unique_ptr<Entry>> cache_
      RANGERPP_GUARDED_BY(mu_);
};

// The shared trial-count rule for campaign suites and benches: the
// ImageNet-scale models are ~10x the inference cost, so they run a
// quarter of the small-model trial count (the paper likewise reduces
// their campaigns, 3000 vs 5000), floored at 100 trials.
std::size_t scaled_trials(ModelId id, std::size_t trials_small);

// SDC judges appropriate for a model: {top1} for small classifiers,
// {top1, top5} for the ImageNet-scale ones, or the four steering-deviation
// thresholds {15, 30, 60, 120} degrees.
std::vector<fi::JudgePtr> default_judges(ModelId id);
std::vector<std::string> judge_labels(ModelId id);

// Fault-free accuracy of `g` on `validation`:
//  * classifiers: top-1 accuracy in [0, 1] (`top5_accuracy` for top-5);
//  * steering: negative; use steering_metrics instead.
double top1_accuracy(const graph::Graph& g, const std::string& input_name,
                     const data::Dataset& validation);
double top5_accuracy(const graph::Graph& g, const std::string& input_name,
                     const data::Dataset& validation);

struct SteeringMetrics {
  double rmse = 0.0;
  double avg_deviation = 0.0;  // mean |pred - target| per frame, degrees
};
SteeringMetrics steering_metrics(const graph::Graph& g,
                                 const std::string& input_name,
                                 const data::Dataset& validation,
                                 bool outputs_radians);

}  // namespace rangerpp::models
