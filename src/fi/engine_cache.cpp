#include "fi/engine_cache.hpp"

#include <stdexcept>
#include <string>

#include "core/calibration.hpp"
#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/suite.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rangerpp::fi {

EngineCache::EngineCache(unsigned executor_workers, bool verify_plans,
                         models::WorkloadCache* external)
    : workers_(executor_workers),
      verify_plans_(verify_plans),
      external_(external) {}

EngineCache::Key EngineCache::key(std::string_view which,
                                  const SuiteSpec& spec,
                                  models::ModelId model, ops::OpKind act,
                                  int variant, int dtype) {
  return {which, spec.seed, spec.inputs, static_cast<int>(model),
          static_cast<int>(act), variant, dtype};
}

template <typename T, typename Build>
const T& EngineCache::fetch(const Key& k, Build&& build) {
  Entry* e;
  {
    util::MutexLock lk(mu_);
    std::unique_ptr<Entry>& slot = entries_[k];
    if (!slot) slot = std::make_unique<Entry>();
    e = slot.get();
  }
  // Appended piecewise: gcc 12's -Wrestrict misfires on operator+ chains
  // (see suite.cpp).
  std::string name = "cache.";
  name += std::get<0>(k);
  const std::size_t stem = name.size();
  name += ".build";
  bool built_now = false;
  std::call_once(e->built, [&] {
    util::trace::Span span(name);
    e->value = build();
    built_now = true;
  });
  if (!built_now) {
    name.resize(stem);
    name += ".hit";
  }
  util::metrics::counter_add(name);
  return std::get<T>(e->value);
}

models::WorkloadCache& EngineCache::workloads(std::uint64_t seed,
                                              std::size_t inputs) {
  if (external_ && external_->options().seed == seed &&
      external_->options().eval_inputs == inputs)
    return *external_;
  util::MutexLock lk(mu_);
  std::unique_ptr<models::WorkloadCache>& cache = workloads_[{seed, inputs}];
  if (!cache) {
    models::WorkloadOptions wo;
    wo.seed = seed;
    wo.eval_inputs = inputs;
    cache = std::make_unique<models::WorkloadCache>(wo);
  }
  return *cache;
}

const core::Bounds& EngineCache::bounds(const SuiteSpec& spec,
                                        models::ModelId model,
                                        ops::OpKind act) {
  return fetch<core::Bounds>(key("bounds", spec, model, act), [&] {
    const models::Workload& w =
        workloads(spec.seed, spec.inputs).get(model, act);
    return core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);
  });
}

const graph::Graph& EngineCache::protected_graph(const SuiteSpec& spec,
                                                 models::ModelId model,
                                                 ops::OpKind act) {
  return fetch<graph::Graph>(key("protected", spec, model, act), [&] {
    const models::Workload& w =
        workloads(spec.seed, spec.inputs).get(model, act);
    return core::RangerTransform{}.apply(w.graph, bounds(spec, model, act));
  });
}

const TrialExecutor& EngineCache::executor(const SuiteSpec& spec,
                                           const SuiteCell& cell,
                                           bool is_protected) {
  const Key k = key("executor", spec, cell.model, cell.act,
                    is_protected ? 1 : 0, static_cast<int>(cell.dtype));
  return *fetch<std::unique_ptr<TrialExecutor>>(k, [&] {
    // Only (graph, dtype, backend, batch) reach the executor — never the
    // fault model, trial count or seed — so one compiled executor serves
    // every cell and every request of this key.
    const models::Workload& w =
        workloads(spec.seed, spec.inputs).get(cell.model, cell.act);
    CampaignConfig ec;
    ec.dtype = cell.dtype;
    ec.verify_plan = verify_plans_;
    // int8 cells calibrate activation formats from the same RangeProfiler
    // bounds Ranger derives its thresholds from — a pure function of
    // (seed, inputs, model, act), independent of shard or resume state,
    // so the calibrated plan (and the cell's trial stream) is too.
    if (cell.dtype == tensor::DType::kInt8)
      ec.int8_formats =
          core::int8_calibration(bounds(spec, cell.model, cell.act));
    const graph::Graph& g =
        is_protected ? protected_graph(spec, cell.model, cell.act) : w.graph;
    return std::make_unique<TrialExecutor>(g, ec, w.eval_feeds, workers_);
  });
}

const std::vector<tensor::Tensor>& EngineCache::unprotected_goldens(
    const SuiteSpec& spec, const SuiteCell& cell) {
  const Key k = key("golden", spec, cell.model, cell.act, 0,
                    static_cast<int>(cell.dtype));
  return fetch<std::vector<tensor::Tensor>>(k, [&] {
    const TrialExecutor& ex = executor(spec, cell, /*is_protected=*/false);
    std::vector<tensor::Tensor> golds;
    golds.reserve(spec.inputs);
    for (std::size_t i = 0; i < spec.inputs; ++i)
      golds.push_back(ex.golden_output(i));
    return golds;
  });
}

const graph::Graph& EngineCache::plan_graph(const SuiteSpec& spec,
                                            const SuiteCell& cell) {
  if (cell.technique == Technique::kRanger)
    return protected_graph(spec, cell.model, cell.act);
  return workloads(spec.seed, spec.inputs).get(cell.model, cell.act).graph;
}

CampaignReport EngineCache::run_cell(const SuiteSpec& spec,
                                     const SuiteCell& cell,
                                     const RunnerConfig& rc,
                                     unsigned worker_base) {
  const models::Workload& w =
      workloads(spec.seed, spec.inputs).get(cell.model, cell.act);
  if (w.eval_feeds.size() != spec.inputs)
    throw std::runtime_error(
        "EngineCache: workload produced " +
        std::to_string(w.eval_feeds.size()) + " eval inputs for cell " +
        cell.id + ", spec expects " + std::to_string(spec.inputs));

  const bool is_protected = cell.technique != Technique::kUnprotected;
  RunContext ctx;
  ctx.plan_graph = &plan_graph(spec, cell);
  ctx.exec_graph =
      is_protected ? &protected_graph(spec, cell.model, cell.act) : &w.graph;
  ctx.executor = &executor(spec, cell, is_protected);
  if (cell.technique == Technique::kRangerPaired)
    ctx.judge_golden = &unprotected_goldens(spec, cell);
  ctx.worker_base = worker_base;
  return CampaignRunner(rc).run(ctx, w.eval_feeds,
                                models::default_judges(cell.model));
}

}  // namespace rangerpp::fi
