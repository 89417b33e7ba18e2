// Weight-memory fault SDC study (the new scenario axis the paper's §II-C
// ECC assumption excluded): a Fig6-style per-model table comparing SDC
// rates under
//   * transient activation faults (the paper's model, for reference),
//   * persistent weight faults with no ECC,
//   * persistent weight faults behind SEC-DED (single-bit faults are
//     corrected, so this column is 0 by construction for kind=single),
//   * persistent weight faults (no ECC) on the Ranger-protected graph —
//     does range restriction also contain parameter corruption?
// The table's campaigns run on two fi::Suite grids sharing one workload
// cache: {b1, wsingle, wsingle-secded} × unprotected, and wsingle ×
// ranger.
//
// A second section benchmarks the persistent-fault input sweep: one
// patched plan per fault reused across every input (the campaign path)
// versus naive per-trial plan recompilation.  Both modes execute the
// identical fault stream and MUST produce bit-identical SDC counts (the
// bench exits 1 otherwise); the sweep is expected to be >= 3x faster.
// Emits BENCH_weight_fault_sdc.json for cross-PR tracking.
#include <cstdlib>

#include "bench/common.hpp"
#include "fi/weight_fault.hpp"

using namespace rangerpp;

namespace {

struct SweepMeasurement {
  double seconds = 0.0;
  std::size_t trials = 0;
  std::size_t sdcs = 0;
};

// The campaign path: a runner over a prebuilt one-arena executor, so it
// runs single-threaded with its goldens outside the timer (as in the
// naive mode); consts are patched once per fault, with partial
// re-execution from the goldens.
SweepMeasurement run_sweep(const models::Workload& w,
                           const fi::CampaignConfig& cc) {
  const fi::TrialExecutor executor(w.graph, cc, w.eval_feeds, 1);
  fi::RunContext ctx;
  ctx.plan_graph = &w.graph;
  ctx.executor = &executor;
  SweepMeasurement m;
  util::Timer timer;
  const fi::CampaignReport rep =
      fi::CampaignRunner({.campaign = cc})
          .run(ctx, w.eval_feeds, models::default_judges(w.id));
  m.seconds = timer.elapsed_seconds();
  m.trials = rep.executed();
  for (const fi::CampaignResult& r : rep.aggregate) m.sdcs += r.sdcs;
  return m;
}

// The naive shape this subsystem replaces: every (fault, input) trial
// recompiles a fresh ExecutionPlan (re-quantising every const, rebuilding
// the reachability bitsets) and runs it end to end.
SweepMeasurement run_naive(const models::Workload& w,
                           const fi::TrialPlanner& planner,
                           const fi::CampaignConfig& cc,
                           std::size_t n_faults) {
  const graph::Executor exec({cc.dtype});
  const graph::CompileOptions pass_free{.dtype = cc.dtype,
                                        .observe = graph::Observe::kAll};
  const auto judges = models::default_judges(w.id);
  // Goldens once (both modes amortise goldens; the comparison isolates
  // per-trial recompilation against patched-plan reuse).
  std::vector<tensor::Tensor> golden;
  {
    const graph::ExecutionPlan plan = graph::compile(w.graph, pass_free);
    graph::Arena arena;
    for (const fi::Feeds& f : w.eval_feeds)
      golden.push_back(exec.run(plan, f, arena));
  }
  SweepMeasurement m;
  util::Timer timer;
  graph::Arena arena;
  for (std::size_t f = 0; f < n_faults; ++f) {
    const fi::TrialSpec first = planner.plan(f * w.eval_feeds.size());
    for (std::size_t i = 0; i < w.eval_feeds.size(); ++i) {
      const graph::ExecutionPlan plan =
          graph::compile(w.graph, pass_free);  // recompile
      const auto overrides = fi::make_const_overrides(plan, first.applied);
      const tensor::Tensor out =
          exec.run(plan, w.eval_feeds[i], arena, overrides);
      ++m.trials;
      for (const auto& judge : judges)
        if (judge->is_sdc(golden[i], out)) ++m.sdcs;
    }
  }
  m.seconds = timer.elapsed_seconds();
  return m;
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header("Weight-memory fault SDC study",
                      "the weight-fault extension of Fig 6 (paper §II-C "
                      "relaxed: parameter memory without/with ECC)");
  bench::print_shard_note(cfg);

  // Two suites over one workload cache: the three unprotected fault
  // models, and weight faults on the Ranger-protected graph.
  const models::ModelId ids[] = {models::ModelId::kLeNet,
                                 models::ModelId::kAlexNet};
  const fi::FaultModelSpec b1{};
  const fi::FaultModelSpec wsingle = *fi::fault_spec_from_token("wsingle");
  const fi::FaultModelSpec wsingle_secded =
      *fi::fault_spec_from_token("wsingle-secded");
  models::WorkloadOptions suite_wo;
  suite_wo.eval_inputs = cfg.inputs;
  suite_wo.seed = cfg.seed;
  models::WorkloadCache cache(suite_wo);

  fi::SuiteSpec spec = bench::suite_spec_from_env(cfg, "weight_fault");
  spec.models.assign(std::begin(ids), std::end(ids));
  spec.faults = {b1, wsingle, wsingle_secded};
  spec.techniques = {fi::Technique::kUnprotected};
  const fi::SuiteResult plain = fi::Suite(spec, &cache).run();
  spec.name = "weight_fault-ranger";
  spec.faults = {wsingle};
  spec.techniques = {fi::Technique::kRanger};
  const fi::SuiteResult ranger = fi::Suite(spec, &cache).run();

  std::vector<std::pair<std::string, double>> metrics;
  util::Table table({"model", "SDC act (%)", "SDC weight (%)",
                     "SDC weight+secded (%)", "SDC weight ranger (%)"});
  for (const models::ModelId id : ids) {
    // Each of the two suites runs one technique.
    const auto sdc_pct = [&](const fi::SuiteResult& r,
                             const fi::FaultModelSpec& f) {
      return bench::mean_sdc_pct(
          bench::find_cell(r, id, r.plan.spec.techniques.front(),
                           ops::OpKind::kInput, f)
              .report);
    };
    const double act = sdc_pct(plain, b1);
    const double weight = sdc_pct(plain, wsingle);
    const double weight_secded = sdc_pct(plain, wsingle_secded);
    const double weight_ranger = sdc_pct(ranger, wsingle);
    table.add_row({models::model_name(id), util::Table::fmt(act, 2),
                   util::Table::fmt(weight, 2),
                   util::Table::fmt(weight_secded, 2),
                   util::Table::fmt(weight_ranger, 2)});
    const std::string tok = models::model_token(id);
    metrics.emplace_back(tok + "_act_sdc_pct", act);
    metrics.emplace_back(tok + "_weight_sdc_pct", weight);
    metrics.emplace_back(tok + "_weight_secded_sdc_pct", weight_secded);
    metrics.emplace_back(tok + "_weight_ranger_sdc_pct", weight_ranger);
    if (weight_secded != 0.0) {
      // SEC-DED corrects every single-bit weight fault before it touches
      // memory — a non-zero rate here is a correctness bug, not noise.
      std::fprintf(stderr,
                   "FAIL: %s SEC-DED single-bit weight SDC rate is %.4f%% "
                   "(must be 0 by construction)\n",
                   tok.c_str(), weight_secded);
      return 1;
    }
  }
  table.print();
  std::printf("(single-bit faults; SEC-DED corrects all of them, so its "
              "column is 0 by construction)\n");

  // ---- Input-sweep speedup vs naive per-trial recompilation -------------
  std::printf("\n-- persistent-fault input sweep vs naive recompilation "
              "(LeNet) --\n");
  models::WorkloadOptions wo;
  wo.eval_inputs = cfg.inputs;
  wo.seed = cfg.seed;
  const models::Workload w = models::make_workload(models::ModelId::kLeNet,
                                                   wo);
  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed32;
  cc.fault_class = fi::FaultClass::kWeight;
  const std::size_t n_faults =
      std::max<std::size_t>(30, cfg.trials_small / 10);
  cc.trials_per_input = n_faults;
  cc.seed = cfg.seed;
  const fi::TrialPlanner planner(w.graph, cc, w.eval_feeds.size());

  const SweepMeasurement sweep = run_sweep(w, cc);
  const SweepMeasurement naive = run_naive(w, planner, cc, n_faults);
  if (sweep.trials != naive.trials || sweep.sdcs != naive.sdcs) {
    std::fprintf(stderr,
                 "FAIL: sweep and naive modes diverge (sweep %zu/%zu, "
                 "naive %zu/%zu) — patched-plan reuse must be "
                 "bit-identical to recompilation\n",
                 sweep.sdcs, sweep.trials, naive.sdcs, naive.trials);
    return 1;
  }
  const double speedup =
      sweep.seconds > 0.0 ? naive.seconds / sweep.seconds : 0.0;
  std::printf("%zu faults x %zu inputs, %zu SDCs (bit-identical)\n",
              n_faults, w.eval_feeds.size(), sweep.sdcs);
  std::printf("sweep  %.3fs  (%.0f trials/s)\n", sweep.seconds,
              sweep.seconds > 0 ? sweep.trials / sweep.seconds : 0.0);
  std::printf("naive  %.3fs  (%.0f trials/s)\n", naive.seconds,
              naive.seconds > 0 ? naive.trials / naive.seconds : 0.0);
  std::printf("speedup %.2fx (target >= 3x)%s\n", speedup,
              speedup >= 3.0 ? "  OK" : "  BELOW TARGET");

  metrics.emplace_back("sweep_seconds", sweep.seconds);
  metrics.emplace_back("naive_seconds", naive.seconds);
  metrics.emplace_back("sweep_speedup_x", speedup);
  bench::emit_bench_json("weight_fault_sdc", metrics, cfg);
  return 0;
}
