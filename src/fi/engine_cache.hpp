// fi::EngineCache — the one place engine state is built and cached.
// Every cell runs on the same chain: the model's Workload, restriction
// bounds profiled from its training data (§III-C step 1), the
// restriction-transformed graph (Algorithm 1), compiled TrialExecutors
// and, for paired cells, the unprotected goldens.  fi::Suite and the
// scheduler daemon both fetch that chain here and both turn a grid cell
// into records through run_cell(), so the two paths cannot drift apart.
//
//  * Keys: (seed, inputs, model, act) for bounds and protected graphs,
//    plus (variant, dtype) for executors and dtype for goldens.
//  * Build DAG: goldens → executor → protected graph → bounds → workload
//    (int8 executors also read bounds) — one direction, so nested builds
//    never deadlock.  An unprotected-only int8 grid builds bounds but no
//    protected graph.
//  * Concurrency: one mutex guards the maps' shape for find-or-insert
//    only; each entry builds outside it, once, under its own once_flag.
//    Entries are heap-allocated and never evicted, so references stay
//    valid for the cache's lifetime.
//  * Telemetry: cache.<which>.{hit,build} counters and cache.<which>.build
//    spans, <which> ∈ {bounds, protected, executor, golden}.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "core/bounds.hpp"
#include "fi/runner.hpp"
#include "models/workload.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rangerpp::fi {

struct SuiteSpec;
struct SuiteCell;

class EngineCache {
 public:
  // Fixed for every executor the cache compiles: `executor_workers`
  // arena slots (Suite: util::worker_count(check_every, threads);
  // Scheduler: one per worker) and, with `verify_plans`, the static plan
  // verifier (a failure throws out of the build).  `external` (optional)
  // serves the (seed, inputs) matching its options; it must outlive the
  // cache.
  EngineCache(unsigned executor_workers, bool verify_plans,
              models::WorkloadCache* external = nullptr);

  models::WorkloadCache& workloads(std::uint64_t seed, std::size_t inputs);
  const core::Bounds& bounds(const SuiteSpec& spec, models::ModelId model,
                             ops::OpKind act);
  const graph::Graph& protected_graph(const SuiteSpec& spec,
                                      models::ModelId model, ops::OpKind act);
  // The graph a cell's fault sites are planned on: the protected graph
  // for kRanger, the plain graph otherwise (kRangerPaired replays the
  // unprotected fault stream).
  const graph::Graph& plan_graph(const SuiteSpec& spec, const SuiteCell& cell);

  // The compiled executor of the cell's model, act and dtype on the
  // protected or the plain graph; run_cell executes on the same one.
  const TrialExecutor& executor(const SuiteSpec& spec, const SuiteCell& cell,
                                bool is_protected);

  // Runs `cell` under `rc` on cached state: the plan/execution graphs of
  // the cell's technique, unprotected goldens as the judge of a
  // kRangerPaired cell, and executor arena slots from `worker_base` up
  // (RunContext::worker_base).  Throws if the workload's eval inputs
  // disagree with the spec.
  CampaignReport run_cell(const SuiteSpec& spec, const SuiteCell& cell,
                          const RunnerConfig& rc, unsigned worker_base = 0);

 private:
  // (which, seed, inputs, model, act, variant, dtype); `which` names the
  // entry kind and its counters, unused fields are 0.
  using Key = std::tuple<std::string_view, std::uint64_t, std::size_t, int,
                         int, int, int>;
  struct Entry {
    std::once_flag built;
    std::variant<core::Bounds, graph::Graph, std::unique_ptr<TrialExecutor>,
                 std::vector<tensor::Tensor>>
        value;
  };

  static Key key(std::string_view which, const SuiteSpec& spec,
                 models::ModelId model, ops::OpKind act, int variant = 0,
                 int dtype = 0);
  // Find-or-insert `k` under `mu_`, then build it outside the lock at
  // most once and count the lookup as cache.<which>.{build,hit}.
  template <typename T, typename Build>
  const T& fetch(const Key& k, Build&& build) RANGERPP_EXCLUDES(mu_);

  const std::vector<tensor::Tensor>& unprotected_goldens(
      const SuiteSpec& spec, const SuiteCell& cell);

  const unsigned workers_;
  const bool verify_plans_;
  models::WorkloadCache* const external_;

  util::Mutex mu_;  // guards the maps' shape, never a build
  std::map<std::pair<std::uint64_t, std::size_t>,
           std::unique_ptr<models::WorkloadCache>>
      workloads_ RANGERPP_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Entry>> entries_ RANGERPP_GUARDED_BY(mu_);
};

}  // namespace rangerpp::fi
