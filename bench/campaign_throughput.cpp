// Campaign throughput: trials/sec of the compiled-plan fault-injection
// campaign with golden-prefix partial re-execution versus full
// re-execution, on the Fig 6 classifier configuration (LeNet, single-bit
// flips, 32-bit fixed point).
//
// Three modes are measured over the identical seed and fault stream:
//   legacy   — per-trial full graph execution on a pass-free plan
//              compiled afresh for every trial (the pre-plan executor
//              behaviour);
//   full     — compiled plan + arenas, but every trial re-executes the
//              whole schedule (CampaignConfig::partial_reexecution=false);
//   partial  — golden-prefix partial re-execution (the default).
//
// SDC counts must be bit-identical across all three — the partial path is
// an execution-plan optimisation, not an approximation.
//
// A second section measures the kernel backend (ops/backend.hpp) on a
// conv-dominated workload: the same full-re-execution campaign run with
// RANGERPP_BACKEND=scalar semantics (scalar kernels, per-trial dispatch)
// and with the blocked backend (im2col + register-tiled GEMM, direct
// pooling, fused quantisation, trials batched 8 per plan run).  SDC
// counts must again be bit-identical — the backends differ only in
// schedule, never in results.  Emits BENCH_campaign_throughput.json for
// cross-PR tracking.
#include <atomic>
#include <cinttypes>

#include "bench/common.hpp"
#include "graph/builder.hpp"
#include "util/threadpool.hpp"

using namespace rangerpp;

namespace {

struct Measurement {
  double seconds = 0.0;
  std::size_t trials = 0;
  std::size_t sdcs = 0;
  double trials_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0;
  }
};

Measurement run_campaign(const models::Workload& w,
                         const bench::BenchConfig& cfg, bool partial) {
  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed32;
  cc.trials_per_input = cfg.trials_for(w.id);
  cc.seed = cfg.seed;
  cc.partial_reexecution = partial;
  const auto judges = models::default_judges(w.id);
  util::Timer timer;
  const auto results = fi::CampaignRunner({.campaign = cc})
                           .run(w.graph, w.eval_feeds, judges)
                           .aggregate;
  Measurement m;
  m.seconds = timer.elapsed_seconds();
  m.trials = results[0].trials;
  for (const auto& r : results) m.sdcs += r.sdcs;
  return m;
}

// The seed's behaviour: one full graph execution per trial, with a
// pass-free plan compiled from scratch for every trial.
Measurement run_legacy(const models::Workload& w,
                       const bench::BenchConfig& cfg) {
  const tensor::DType dtype = tensor::DType::kFixed32;
  const graph::CompileOptions options{.dtype = dtype,
                                      .observe = graph::Observe::kAll};
  const graph::Executor exec({dtype});
  const fi::SiteSpace sites(w.graph, dtype);
  const auto judges = models::default_judges(w.id);
  std::vector<tensor::Tensor> golden;
  {
    const graph::ExecutionPlan plan = graph::compile(w.graph, options);
    graph::Arena arena;
    for (const fi::Feeds& f : w.eval_feeds)
      golden.push_back(exec.run(plan, f, arena));
  }

  const std::size_t trials = cfg.trials_for(w.id);
  const std::size_t total = trials * w.eval_feeds.size();
  std::vector<std::atomic<std::size_t>> sdcs(judges.size());
  util::Timer timer;
  util::parallel_for(total, [&](std::size_t t) {
    const std::size_t input_idx = t / trials;
    util::Rng rng(util::derive_seed(cfg.seed, t));
    const fi::FaultSet faults = sites.sample(rng, 1);
    const graph::ExecutionPlan plan = graph::compile(w.graph, options);
    graph::Arena arena;
    const tensor::Tensor out =
        exec.run(plan, w.eval_feeds[input_idx], arena,
                 fi::make_injection_hook(w.graph, dtype, faults));
    for (std::size_t j = 0; j < judges.size(); ++j)
      if (judges[j]->is_sdc(golden[input_idx], out))
        sdcs[j].fetch_add(1, std::memory_order_relaxed);
  });
  Measurement m;
  m.seconds = timer.elapsed_seconds();
  m.trials = total;
  for (auto& s : sdcs) m.sdcs += s.load();
  return m;
}

// ---- Conv-workload backend comparison --------------------------------------

tensor::Tensor random_tensor(tensor::Shape s, util::Rng& rng, float scale) {
  std::vector<float> v(s.elements());
  for (float& x : v) x = static_cast<float>(rng.uniform(-scale, scale));
  return tensor::Tensor(s, std::move(v));
}

// AlexNet-shaped synthetic conv tower (weights random but seed-fixed: a
// throughput workload, not an accuracy one).
graph::Graph build_conv_tower(std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, 0x434f4e56));
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 32, 32, 3});
  b.conv2d("conv1", random_tensor({5, 5, 3, 32}, rng, 0.2f),
           random_tensor({32}, rng, 0.05f),
           {1, 1, ops::Padding::kSame});
  b.activation("act1", ops::OpKind::kRelu);
  b.max_pool("pool1", {2, 2, 2, 2, ops::Padding::kValid});
  b.conv2d("conv2", random_tensor({5, 5, 32, 64}, rng, 0.1f),
           random_tensor({64}, rng, 0.05f),
           {1, 1, ops::Padding::kSame});
  b.activation("act2", ops::OpKind::kRelu);
  b.max_pool("pool2", {2, 2, 2, 2, ops::Padding::kValid});
  b.conv2d("conv3", random_tensor({3, 3, 64, 96}, rng, 0.1f),
           random_tensor({96}, rng, 0.05f),
           {1, 1, ops::Padding::kSame});
  b.activation("act3", ops::OpKind::kRelu);
  b.flatten("flatten");
  b.dense("fc", random_tensor({8 * 8 * 96, 10}, rng, 0.05f),
          random_tensor({10}, rng, 0.05f), /*injectable=*/false);
  b.softmax("softmax");
  return b.finish();
}

Measurement run_conv_campaign(const graph::Graph& g,
                              const std::vector<fi::Feeds>& inputs,
                              const bench::BenchConfig& cfg,
                              ops::KernelBackend backend,
                              std::size_t batch) {
  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed32;
  cc.trials_per_input = std::max<std::size_t>(50, cfg.trials_small / 4);
  cc.seed = cfg.seed;
  cc.partial_reexecution = false;  // dense per-trial execution: the
                                   // kernel-stress configuration
  cc.backend = backend;
  cc.batch = batch;
  util::Timer timer;
  const fi::CampaignResult r =
      fi::CampaignRunner({.campaign = cc})
          .run(g, inputs, {std::make_shared<fi::Top1Judge>()})
          .aggregate[0];
  Measurement m;
  m.seconds = timer.elapsed_seconds();
  m.trials = r.trials;
  m.sdcs = r.sdcs;
  return m;
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header(
      "FI campaign throughput: partial vs full re-execution",
      "the Fig 6 classifier campaign, measured rather than replotted");

  models::WorkloadOptions wo;
  wo.eval_inputs = cfg.inputs;
  wo.seed = cfg.seed;
  const models::Workload w =
      models::make_workload(models::ModelId::kLeNet, wo);

  const Measurement legacy = run_legacy(w, cfg);
  const Measurement full = run_campaign(w, cfg, /*partial=*/false);
  const Measurement partial = run_campaign(w, cfg, /*partial=*/true);

  util::Table table({"mode", "trials", "SDCs", "seconds", "trials/sec"});
  const auto row = [&](const char* name, const Measurement& m) {
    table.add_row({name, std::to_string(m.trials), std::to_string(m.sdcs),
                   util::Table::fmt(m.seconds, 2),
                   util::Table::fmt(m.trials_per_sec(), 0)});
  };
  row("legacy (per-trial graph run)", legacy);
  row("plan, full re-execution", full);
  row("plan, partial re-execution", partial);
  table.print();

  const double speedup_vs_full =
      partial.seconds > 0.0 ? full.seconds / partial.seconds : 0.0;
  const double speedup_vs_legacy =
      partial.seconds > 0.0 ? legacy.seconds / partial.seconds : 0.0;
  const bool identical =
      legacy.sdcs == full.sdcs && full.sdcs == partial.sdcs;
  std::printf(
      "\npartial vs full: %.2fx   partial vs legacy: %.2fx   "
      "SDC counts %s\n",
      speedup_vs_full, speedup_vs_legacy,
      identical ? "bit-identical across all modes"
                : "MISMATCH (bug: partial re-execution must be exact)");

  // ---- Conv workload: scalar vs blocked kernel backend ------------------
  bench::print_header(
      "Conv workload: kernel backend comparison",
      "full re-execution on an AlexNet-shaped conv tower, fixed32");
  const graph::Graph tower = build_conv_tower(cfg.seed);
  std::vector<fi::Feeds> tower_inputs;
  {
    util::Rng rng(util::derive_seed(cfg.seed, 0x494e5055));
    for (std::size_t i = 0; i < std::min<std::size_t>(cfg.inputs, 4); ++i)
      tower_inputs.push_back(
          {{"input", random_tensor({1, 32, 32, 3}, rng, 1.0f)}});
  }
  const Measurement conv_scalar = run_conv_campaign(
      tower, tower_inputs, cfg, ops::KernelBackend::kScalar, /*batch=*/1);
  const Measurement conv_blocked = run_conv_campaign(
      tower, tower_inputs, cfg, ops::KernelBackend::kBlocked, /*batch=*/8);

  util::Table conv_table({"backend", "trials", "SDCs", "seconds",
                          "trials/sec"});
  const auto conv_row = [&](const char* name, const Measurement& m) {
    conv_table.add_row({name, std::to_string(m.trials),
                        std::to_string(m.sdcs),
                        util::Table::fmt(m.seconds, 2),
                        util::Table::fmt(m.trials_per_sec(), 0)});
  };
  conv_row("scalar (per-trial)", conv_scalar);
  conv_row("blocked (batched x8)", conv_blocked);
  conv_table.print();

  const double blocked_speedup =
      conv_blocked.seconds > 0.0
          ? conv_scalar.seconds / conv_blocked.seconds
          : 0.0;
  const bool conv_identical = conv_scalar.sdcs == conv_blocked.sdcs;
  std::printf("\nblocked vs scalar: %.2fx   SDC counts %s\n",
              blocked_speedup,
              conv_identical
                  ? "bit-identical across backends"
                  : "MISMATCH (bug: backends must be bit-identical)");

  // ---- Arena memory planning --------------------------------------------
  // The compiler's memory-planning pass aliases non-overlapping activation
  // lifetimes onto shared arena slots; on a pure-inference plan of the
  // conv tower the peak must come in below the retain-all footprint.  The
  // arena-planned plan must also stay exact: same top-1 as the pass-free
  // retain-all plan on every bench input.
  bench::print_header("Arena memory planning",
                      "peak activation bytes, planned vs retain-all");
  const graph::ExecutionPlan arena_plan = graph::compile(
      tower, {.dtype = tensor::DType::kFixed32,
              .observe = graph::Observe::kNone,
              .memory = graph::MemoryMode::kArena});
  const std::size_t peak_arena_bytes =
      arena_plan.report()->peak_arena_bytes;
  const std::size_t unplanned_bytes = arena_plan.report()->unplanned_bytes;
  bool arena_exact = true;
  {
    const graph::Executor exec({tensor::DType::kFixed32});
    const graph::ExecutionPlan retain_plan = graph::compile(
        tower, {.dtype = tensor::DType::kFixed32,
                .observe = graph::Observe::kAll});
    graph::Arena a1, a2;
    for (const fi::Feeds& f : tower_inputs)
      arena_exact = arena_exact &&
                    graph::argmax(exec.run(arena_plan, f, a1)) ==
                        graph::argmax(exec.run(retain_plan, f, a2));
  }
  const double arena_reduction =
      unplanned_bytes > 0
          ? 1.0 - static_cast<double>(peak_arena_bytes) /
                      static_cast<double>(unplanned_bytes)
          : 0.0;
  const bool arena_planned = peak_arena_bytes < unplanned_bytes;
  std::printf(
      "conv tower: peak_arena_bytes %zu vs retain-all %zu (%.1f%% "
      "reduction, %zu slots)  output %s\n",
      peak_arena_bytes, unplanned_bytes, 100.0 * arena_reduction,
      arena_plan.memory_plan().slots,
      arena_exact ? "identical" : "MISMATCH (bug: planning must be exact)");

  bench::emit_bench_json(
      "campaign_throughput",
      {{"trials", static_cast<double>(partial.trials)},
       {"legacy_seconds", legacy.seconds},
       {"full_seconds", full.seconds},
       {"partial_seconds", partial.seconds},
       {"legacy_trials_per_sec", legacy.trials_per_sec()},
       {"full_trials_per_sec", full.trials_per_sec()},
       {"partial_trials_per_sec", partial.trials_per_sec()},
       {"speedup_vs_full", speedup_vs_full},
       {"speedup_vs_legacy", speedup_vs_legacy},
       {"sdcs_partial", static_cast<double>(partial.sdcs)},
       {"sdcs_full", static_cast<double>(full.sdcs)},
       {"sdcs_legacy", static_cast<double>(legacy.sdcs)},
       {"sdc_counts_identical", identical ? 1.0 : 0.0},
       {"conv_scalar_trials_per_sec", conv_scalar.trials_per_sec()},
       {"conv_blocked_trials_per_sec", conv_blocked.trials_per_sec()},
       {"conv_blocked_speedup", blocked_speedup},
       {"conv_sdcs_scalar", static_cast<double>(conv_scalar.sdcs)},
       {"conv_sdcs_blocked", static_cast<double>(conv_blocked.sdcs)},
       {"conv_sdc_counts_identical", conv_identical ? 1.0 : 0.0},
       {"peak_arena_bytes", static_cast<double>(peak_arena_bytes)},
       {"unplanned_bytes", static_cast<double>(unplanned_bytes)},
       {"arena_reduction", arena_reduction},
       {"arena_planned", arena_planned ? 1.0 : 0.0},
       {"arena_exact", arena_exact ? 1.0 : 0.0}},
      cfg);
  return identical && conv_identical && arena_planned && arena_exact ? 0 : 1;
}
