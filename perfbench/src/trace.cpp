// Traced runs: per-layer metrics from the in-process layer runner, never an
// end-to-end number.
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace {

// Caps each campaign-long cell in the traced run: the single-threaded
// passes would otherwise take several times the timed run.
constexpr std::size_t kTracedTrialsPerCell = 300;

void print_self_times(const LayerTimes& t, double untraced_wall) {
  const std::pair<const char*, double> rows[] = {
      {"models.build (WorkloadCache::get)", t.models_build_s},
      {"core.profile (RangeProfiler::derive_bounds)", t.core_profile_s},
      {"core.transform (RangerTransform::apply)", t.core_transform_s},
      {"graph.compile (graph::compile)", t.graph_compile_s},
      {"graph.golden (TrialExecutor construction)", t.graph_golden_s},
      {"fi.plan (TrialPlanner)", t.fi_plan_s},
      {"graph.exec (run_trial_batch / run_trial)", t.graph_exec_s},
      {"graph.weight (patch_consts + run_weight_trial)", t.graph_weight_s},
      {"fi.judge (SdcJudge::is_sdc)", t.fi_judge_s},
      {"fi.encode (encode_records)", t.fi_encode_s},
      {"unattributed", t.wall_s - t.attributed_s()},
  };
  std::fprintf(stderr, "perfbench: self time per layer (traced pass)\n");
  for (const auto& [name, s] : rows)
    std::fprintf(stderr, "  %-48s %10.4f s %6.2f%%\n", name, s,
                 100.0 * s / t.wall_s);
  std::fprintf(stderr, "  %-48s %10.4f s (untraced pass %.4f s)\n", "wall",
               t.wall_s, untraced_wall);
}

double per(double x, double n) { return n > 0 ? x / n : 0.0; }

}  // namespace

TracedPass traced_passes(const std::vector<fi::SuiteSpec>& specs,
                         const RunOptions& opt) {
  namespace fs = std::filesystem;
  TracedPass p;
  util::metrics::set_enabled(false);
  warm_host(kWarmSeconds, opt.threads);
  // Untraced passes before and after the traced one; the faster is the
  // overhead base, so first-touch costs do not read as negative overhead.
  drive_layers(specs, p.untraced);

  const std::string name(workload_name(opt.workload));
  const fs::path dir(opt.work_dir);
  fs::create_directories(dir);
  // Counters scoped to this workload: reset before, one snapshot after.
  util::metrics::reset();
  util::metrics::set_enabled(true);
  const std::string trace_path = (dir / ("trace." + name + ".json")).string();
  if (!util::trace::start(trace_path))
    throw std::runtime_error("cannot start tracing");
  p.sdcs = drive_layers(specs, p.traced);
  if (!util::trace::stop_and_flush())
    throw std::runtime_error("cannot write " + trace_path);
  const double hits =
      static_cast<double>(util::metrics::counter_value("cache.feed.hit"));
  const double builds =
      static_cast<double>(util::metrics::counter_value("cache.feed.build"));
  p.feed_cache_hit_ratio = per(hits, hits + builds);
  const std::string metrics_path =
      (dir / ("metrics." + name + ".json")).string();
  if (!util::metrics::write_snapshot(metrics_path))
    throw std::runtime_error("cannot write " + metrics_path);
  util::metrics::set_enabled(false);
  LayerTimes again;
  drive_layers(specs, again);
  if (again.wall_s < p.untraced.wall_s) p.untraced = again;
  print_self_times(p.traced, p.untraced.wall_s);
  return p;
}

Metrics layer_metrics(const TracedPass& pass, const ServeLayers& serve,
                      const RunOptions& opt) {
  const LayerTimes& t = pass.traced;
  const double act = static_cast<double>(t.act_trials);
  const double trials = act + static_cast<double>(t.weight_trials);
  Metrics m = {
      {"models.build_s", {t.models_build_s, "s"}},
      {"core.profile_s", {t.core_profile_s, "s"}},
      {"core.transform_s", {t.core_transform_s, "s"}},
      {"graph.compile_s", {t.graph_compile_s, "s"}},
      {"graph.golden_s", {t.graph_golden_s, "s"}},
      {"ops.dispatches_per_trial",
       {per(static_cast<double>(t.loop_dispatches), trials), "count"}},
      {"graph.exec_us_per_trial", {1e6 * per(t.graph_exec_s, act), "us"}},
      {"graph.weight_us_per_trial",
       {1e6 * per(t.graph_weight_s, static_cast<double>(t.weight_trials)),
        "us"}},
      {"graph.nodes_pruned_per_run",
       {per(static_cast<double>(t.loop_nodes_pruned),
            static_cast<double>(t.loop_partial_runs)),
        "count"}},
      {"graph.elements_touched_per_trial",
       {per(static_cast<double>(t.loop_elements_touched), trials), "count"}},
      {"graph.trials_per_plan_run",
       {per(trials, static_cast<double>(t.loop_runs)), "count"}},
      {"graph.feed_cache_hit_ratio", {pass.feed_cache_hit_ratio, "fraction"}},
      {"fi.plan_us_per_trial", {1e6 * per(t.fi_plan_s, trials), "us"}},
      {"fi.judge_us_per_trial", {1e6 * per(t.fi_judge_s, trials), "us"}},
      {"fi.encode_us_per_record",
       {1e6 * per(t.fi_encode_s, static_cast<double>(t.records)), "us"}},
      {"fi.record_bytes",
       {per(static_cast<double>(t.record_bytes),
            static_cast<double>(t.records)),
        "bytes"}},
      {"sched.ack_ms", {serve.ack_ms, "ms"}},
      {"sched.queue_ms", {serve.queue_ms, "ms"}},
      {"sched.busy_frac", {serve.busy_frac, "fraction"}},
      {"sched.steals_per_slice", {serve.steals_per_slice, "count"}},
      {"ipc.record_mb_per_s", {serve.record_mb_per_s, "MB/s"}},
      {"trace.overhead_frac",
       {t.wall_s / pass.untraced.wall_s - 1.0, "fraction"}},
      {"trace.unattributed_frac",
       {(t.wall_s - t.attributed_s()) / t.wall_s, "fraction"}},
  };
  for (const auto& [model, ms] : full_run_ms(opt.seed))
    m["ops.full_run_ms." + model] = {ms, "ms"};
  return m;
}

RunResult trace_oneshot(const RunOptions& opt) {
  fi::SuiteSpec spec = oneshot_spec(opt.workload, opt.seed, opt.threads);
  if (opt.workload == Workload::kCampaignLong)
    spec.max_new_trials = kTracedTrialsPerCell;
  const TracedPass pass = traced_passes({spec}, opt);

  // The layer runner must reproduce Suite::run cell for cell.
  RunResult out;
  const CellSdcs expected = suite_sdcs(fi::Suite(spec).run());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ++out.attempted;
    if (c >= pass.sdcs.size() || pass.sdcs[c] != expected[c]) ++out.failed;
  }
  if (pass.sdcs.size() != expected.size()) ++out.failed;
  std::fprintf(stderr,
               "perfbench: sched.* and ipc.* read 0: one-shot grids do not "
               "reach the scheduler or IPC layers\n");
  out.metrics = layer_metrics(pass, ServeLayers{}, opt);
  return out;
}

}  // namespace perfbench
