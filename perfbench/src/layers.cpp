// The in-process layer runner of the traced runs.  It calls each layer's
// public functions in the order fi::Suite::run (and the scheduler's
// engine) calls them, on one thread, and wraps every call in a
// util::trace::Span whose duration it also adds to a per-layer total —
// so the layers' self times add up to the pass's wall, with the
// remainder stated.  Nothing here is timed for an end-to-end metric.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "core/calibration.hpp"
#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/record_codec.hpp"
#include "graph/passes.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace perfbench {

double LayerTimes::attributed_s() const {
  return models_build_s + core_profile_s + core_transform_s +
         graph_compile_s + graph_golden_s + fi_plan_s + graph_exec_s +
         graph_weight_s + fi_judge_s + fi_encode_s;
}

namespace {

// One call into a layer: a trace span plus its wall time added to `acc`.
class LayerScope {
 public:
  LayerScope(const char* name, double& acc) : span_(name), acc_(acc) {}
  ~LayerScope() { acc_ += timer_.elapsed_seconds(); }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  util::trace::Span span_;
  double& acc_;
  util::Timer timer_;
};

// The execution counters the trial loop moves (zero while metrics are
// off, i.e. in the untraced pass).
struct ExecCounters {
  std::uint64_t runs = 0, partial_runs = 0, nodes_pruned = 0,
                elements_touched = 0, dispatches = 0;

  static ExecCounters read() {
    namespace m = util::metrics;
    ExecCounters c;
    c.partial_runs = m::counter_value("exec.partial_runs");
    c.runs = c.partial_runs + m::counter_value("exec.full_runs");
    c.nodes_pruned = m::counter_value("exec.nodes_pruned");
    c.elements_touched = m::counter_value("exec.elements_touched");
    for (const char* b : {"scalar", "blocked", "simd"})
      c.dispatches += m::counter_value(std::string("kernel.") + b);
    return c;
  }
};

// Engine caches shared by every spec with the same (seed, inputs) — the
// keys fi::Suite (within a spec) and the scheduler engine (across
// requests) share workloads, bounds, protected graphs and executors by.
struct Engine {
  std::unique_ptr<models::WorkloadCache> workloads;
  std::map<std::pair<int, int>, core::Bounds> bounds;
  std::map<std::pair<int, int>, graph::Graph> protected_graphs;
  std::map<std::tuple<int, int, int, int>,
           std::unique_ptr<fi::TrialExecutor>>
      executors;
};

class LayerRunner {
 public:
  explicit LayerRunner(LayerTimes& t) : t_(t) {}

  CellSdcs run_spec(const fi::SuiteSpec& spec) {
    if (spec.shard_count != 1)
      throw std::invalid_argument("drive_layers: sharded specs unsupported");
    Engine& eng = engine(spec);
    const fi::SuitePlan plan = fi::compile_suite(spec);
    CellSdcs out;
    for (const fi::SuiteCell& cell : plan.cells)
      out.push_back(run_cell(eng, spec, cell));
    return out;
  }

 private:
  Engine& engine(const fi::SuiteSpec& spec) {
    Engine& eng = engines_[{spec.seed, spec.inputs}];
    if (!eng.workloads) {
      models::WorkloadOptions wo;
      wo.eval_inputs = spec.inputs;
      wo.seed = spec.seed;
      eng.workloads = std::make_unique<models::WorkloadCache>(wo);
    }
    return eng;
  }

  const core::Bounds& bounds(Engine& eng, const models::Workload& w) {
    const auto key = std::make_pair(static_cast<int>(w.id),
                                    static_cast<int>(w.act));
    auto it = eng.bounds.find(key);
    if (it == eng.bounds.end()) {
      LayerScope s("core.profile", t_.core_profile_s);
      it = eng.bounds
               .emplace(key, core::RangeProfiler{}.derive_bounds(
                                 w.graph, w.profile_feeds))
               .first;
    }
    return it->second;
  }

  const graph::Graph& protected_graph(Engine& eng, const models::Workload& w) {
    const auto key = std::make_pair(static_cast<int>(w.id),
                                    static_cast<int>(w.act));
    auto it = eng.protected_graphs.find(key);
    if (it == eng.protected_graphs.end()) {
      const core::Bounds& b = bounds(eng, w);
      LayerScope s("core.transform", t_.core_transform_s);
      it = eng.protected_graphs
               .emplace(key, core::RangerTransform{}.apply(w.graph, b))
               .first;
    }
    return it->second;
  }

  const fi::TrialExecutor& executor(Engine& eng, const fi::SuiteSpec& spec,
                                    const fi::SuiteCell& cell,
                                    const models::Workload& w,
                                    const graph::Graph& g, bool prot) {
    const auto key = std::make_tuple(static_cast<int>(cell.model),
                                     static_cast<int>(cell.act), prot ? 1 : 0,
                                     static_cast<int>(cell.dtype));
    auto it = eng.executors.find(key);
    if (it != eng.executors.end()) return *it->second;
    // The executor config fi::Suite builds: only dtype, threads and the
    // int8 calibration reach it.
    fi::CampaignConfig ec;
    ec.dtype = cell.dtype;
    ec.threads = spec.threads;
    if (cell.dtype == tensor::DType::kInt8)
      ec.int8_formats = core::int8_calibration(bounds(eng, w));
    {
      // The plans TrialExecutor compiles (single-image and, for a
      // batchable graph, the batched twin), compiled once more on their
      // own so compilation shows apart from the golden runs.
      LayerScope s("graph.compile", t_.graph_compile_s);
      graph::CompileOptions o;
      o.dtype = ec.dtype;
      o.backend = ec.backend;
      o.int8_formats = ec.int8_formats;
      o.observe = graph::Observe::kInjectable;
      (void)graph::compile(g, o);
      if (ec.batch > 1 && graph::plan_supports_batch(g)) {
        o.batch = ec.batch;
        (void)graph::compile(g, o);
      }
    }
    LayerScope s("graph.golden", t_.graph_golden_s);
    it = eng.executors
             .emplace(key, std::make_unique<fi::TrialExecutor>(
                               g, ec, w.eval_feeds, /*workers=*/1))
             .first;
    return *it->second;
  }

  std::vector<std::size_t> run_cell(Engine& eng, const fi::SuiteSpec& spec,
                                    const fi::SuiteCell& cell) {
    if (cell.technique == fi::Technique::kRangerPaired)
      throw std::invalid_argument("drive_layers: ranger-paired unsupported");
    const models::Workload* w = nullptr;
    {
      LayerScope s("models.build", t_.models_build_s);
      w = &eng.workloads->get(cell.model, cell.act);
    }
    const bool prot = cell.technique != fi::Technique::kUnprotected;
    const graph::Graph& g = prot ? protected_graph(eng, *w) : w->graph;
    const fi::TrialExecutor& ex = executor(eng, spec, cell, *w, g, prot);
    const std::vector<fi::Feeds>& inputs = w->eval_feeds;

    const fi::RunnerConfig rc = fi::cell_runner_config(spec, cell);
    std::optional<fi::TrialPlanner> planner;
    {
      LayerScope s("fi.plan", t_.fi_plan_s);
      planner.emplace(g, rc.campaign, inputs.size(), rc.stratified);
    }
    const std::vector<fi::JudgePtr> judges =
        models::default_judges(cell.model);
    std::vector<std::size_t> sdcs(judges.size(), 0);

    std::size_t n = planner->total_trials();
    if (rc.max_new_trials != 0) n = std::min(n, rc.max_new_trials);
    const bool weight = rc.campaign.fault_class == fi::FaultClass::kWeight;
    const std::size_t group_cap =
        weight ? inputs.size() : std::max<std::size_t>(1, ex.batch());
    const auto group_key = [&](std::size_t t) {
      return weight ? t / inputs.size() : t / rc.campaign.trials_per_input;
    };
    const auto plan = [&](std::size_t t) {
      LayerScope s("fi.plan", t_.fi_plan_s);
      return planner->plan(t);
    };

    const ExecCounters before = ExecCounters::read();
    for (std::size_t offset = 0; offset < n; offset += rc.check_every) {
      const std::size_t batch_n = std::min(rc.check_every, n - offset);
      std::vector<fi::TrialRecord> batch(batch_n);
      const auto record = [&](std::size_t i, const fi::TrialSpec& ts,
                              const tensor::Tensor& out) {
        LayerScope s("fi.judge", t_.fi_judge_s);
        const tensor::Tensor& golden = ex.golden_output(ts.input);
        std::uint32_t mask = 0;
        for (std::size_t j = 0; j < judges.size(); ++j)
          if (judges[j]->is_sdc(golden, out)) mask |= 1u << j;
        fi::TrialRecord& r = batch[i];
        r.trial = ts.trial;
        r.input = static_cast<std::uint32_t>(ts.input);
        r.faults = ts.faults;
        r.stratum = planner->stratum_key(ts.stratum);
        r.sdc_mask = mask;
      };
      // Group consecutive trials as CampaignRunner does: same-input
      // activation trials ride one batched run; a weight fault's trials
      // share one const patch swept over the inputs.
      for (std::size_t i = 0; i < batch_n;) {
        const std::size_t key = group_key(offset + i);
        std::size_t count = 1;
        while (count < group_cap && i + count < batch_n &&
               group_key(offset + i + count) == key)
          ++count;
        if (weight) {
          const fi::TrialSpec first = plan(offset + i);
          std::optional<fi::TrialExecutor::PatchedConsts> patch;
          {
            LayerScope s("graph.weight", t_.graph_weight_s);
            patch.emplace(ex.patch_consts(first.applied));
          }
          for (std::size_t k = i; k < i + count; ++k) {
            const fi::TrialSpec ts = plan(offset + k);
            std::optional<tensor::Tensor> out;
            {
              LayerScope s("graph.weight", t_.graph_weight_s);
              out.emplace(ex.run_weight_trial(0, ts.input, *patch));
            }
            record(k, ts, *out);
          }
          t_.weight_trials += count;
        } else if (count == 1 || ex.batch() == 1) {
          for (std::size_t k = i; k < i + count; ++k) {
            const fi::TrialSpec ts = plan(offset + k);
            std::optional<tensor::Tensor> out;
            {
              LayerScope s("graph.exec", t_.graph_exec_s);
              out.emplace(ex.run_trial(0, ts.input, ts.faults));
            }
            record(k, ts, *out);
          }
          t_.act_trials += count;
        } else {
          std::vector<fi::TrialSpec> specs;
          std::vector<fi::FaultSet> faults;
          for (std::size_t k = 0; k < count; ++k) {
            specs.push_back(plan(offset + i + k));
            faults.push_back(specs.back().faults);
          }
          std::vector<tensor::Tensor> outs;
          {
            LayerScope s("graph.exec", t_.graph_exec_s);
            outs = ex.run_trial_batch(0, specs[0].input, faults);
          }
          for (std::size_t k = 0; k < count; ++k)
            record(i + k, specs[k], outs[k]);
          t_.act_trials += count;
        }
        i += count;
      }
      {
        // The record codec frame the daemon streams for this slice.
        LayerScope s("fi.encode", t_.fi_encode_s);
        t_.record_bytes += fi::encode_records(batch).size();
      }
      t_.records += batch_n;
      for (const fi::TrialRecord& r : batch)
        for (std::size_t j = 0; j < sdcs.size(); ++j)
          sdcs[j] += (r.sdc_mask >> j) & 1u;
    }
    const ExecCounters after = ExecCounters::read();
    t_.loop_runs += after.runs - before.runs;
    t_.loop_partial_runs += after.partial_runs - before.partial_runs;
    t_.loop_nodes_pruned += after.nodes_pruned - before.nodes_pruned;
    t_.loop_elements_touched +=
        after.elements_touched - before.elements_touched;
    t_.loop_dispatches += after.dispatches - before.dispatches;
    return sdcs;
  }

  LayerTimes& t_;
  std::map<std::pair<std::uint64_t, std::size_t>, Engine> engines_;
};

}  // namespace

CellSdcs drive_layers(const std::vector<fi::SuiteSpec>& specs,
                      LayerTimes& times) {
  util::Timer wall;
  CellSdcs out;
  {
    util::trace::Span root("perfbench.pass");
    LayerRunner d(times);
    for (const fi::SuiteSpec& spec : specs) {
      CellSdcs cells = d.run_spec(spec);
      out.insert(out.end(), cells.begin(), cells.end());
    }
  }
  times.wall_s = wall.elapsed_seconds();
  return out;
}

CellSdcs suite_sdcs(const fi::SuiteResult& r) {
  CellSdcs out;
  for (const fi::SuiteCellResult& c : r.cells) {
    std::vector<std::size_t> v;
    for (const fi::CampaignResult& a : c.report.aggregate) v.push_back(a.sdcs);
    out.push_back(std::move(v));
  }
  return out;
}

std::map<std::string, double> full_run_ms(std::uint64_t seed) {
  std::map<std::string, double> out;
  for (const models::ModelId id : kZoo) {
    const ops::OpKind act = models::default_act(id);
    // Kernel cost does not depend on the weights' values, so He-initialised
    // weights stand in for the trained ones without a dataset.
    const graph::Graph g =
        models::build_model(id, act, models::init_weights(id, act, seed));
    const graph::ExecutionPlan plan = graph::compile(g, {});
    const std::vector<tensor::Shape> shapes = g.infer_shapes();
    util::Rng rng(seed);
    fi::Feeds feeds;
    for (const graph::Node& n : g.nodes()) {
      if (n.op->kind() != ops::OpKind::kInput) continue;
      const tensor::Shape& s = shapes[static_cast<std::size_t>(n.id)];
      std::vector<float> v(s.elements());
      for (float& x : v) x = static_cast<float>(rng.uniform(0.0, 1.0));
      feeds.emplace(n.name, tensor::Tensor(s, std::move(v)));
    }
    const graph::Executor exec({tensor::DType::kFixed32});
    graph::Arena arena;
    (void)exec.run(plan, feeds, arena);  // warm the arena
    // At least 5 runs and a quarter second per model, so one slow moment
    // of the host does not set the median.
    std::vector<double> ms;
    util::Timer budget;
    while (ms.size() < 5 || budget.elapsed_seconds() < 0.25) {
      util::trace::Span span("ops.full_run");
      util::Timer t;
      (void)exec.run(plan, feeds, arena);
      ms.push_back(t.elapsed_ms());
    }
    out[models::model_token(id)] = median(ms);
  }
  return out;
}

}  // namespace perfbench
