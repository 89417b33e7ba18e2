// Timed one-shot workloads (zoo-setup, campaign-long): fi::Suite exactly
// as suite_cli drives it, with telemetry off.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace {

// Builds every workload, bound set and protected graph the grid needs —
// the set-up half of a suite run, through the Suite's own caches.
void prefetch(fi::Suite& suite) {
  const fi::SuiteSpec& spec = suite.plan().spec;
  const bool protect = std::any_of(
      spec.techniques.begin(), spec.techniques.end(),
      [](fi::Technique t) { return t != fi::Technique::kUnprotected; });
  for (const models::ModelId m : spec.models)
    for (const ops::OpKind act : spec.acts) {
      suite.workloads().get(m, act);
      if (!protect) continue;
      suite.bounds(m, act);
      suite.protected_graph(m, act);
    }
}

std::size_t executed_trials(const fi::SuiteResult& r) {
  std::size_t n = 0;
  for (const fi::SuiteCellResult& c : r.cells) n += c.report.executed();
  return n;
}

}  // namespace

RunResult run_oneshot(const RunOptions& opt) {
  // bench::BenchConfig turns metrics on; the timed path must not.
  util::metrics::set_enabled(false);
  const fi::SuiteSpec spec = oneshot_spec(opt.workload, opt.seed, opt.threads);
  warm_host(kWarmSeconds, opt.threads);
  // zoo-setup repeats whole grids (each one is mostly set-up); the
  // campaign-long grid fills the run by itself, so its second set-up
  // sample comes from a set-up-only pass.
  const bool zoo = opt.workload == Workload::kZooSetup;
  const std::size_t min_grids = zoo ? 3 : 1;
  const std::size_t min_setups = zoo ? 3 : 2;

  std::vector<double> setup_s, grid_s, trials_per_s;
  std::unique_ptr<fi::Suite> suite;
  fi::SuiteResult result;
  util::Timer run_timer;
  double last_grid = 0.0;
  // Stop before a grid that would end past the deadline, so every run
  // measures about the same number of grids.
  while (grid_s.size() < min_grids ||
         run_timer.elapsed_seconds() + last_grid <= opt.seconds) {
    suite.reset();  // free the previous grid's caches before timing
    util::Timer grid_timer;
    suite = std::make_unique<fi::Suite>(spec);
    prefetch(*suite);
    setup_s.push_back(grid_timer.elapsed_seconds());
    util::Timer loop_timer;
    result = suite->run();
    const double loop = loop_timer.elapsed_seconds();
    last_grid = grid_timer.elapsed_seconds();
    grid_s.push_back(last_grid);
    trials_per_s.push_back(static_cast<double>(executed_trials(result)) /
                           loop);
  }
  const double peak_rss = peak_rss_mb_self();
  while (setup_s.size() < min_setups) {
    util::Timer t;
    fi::Suite extra(spec);
    prefetch(extra);
    setup_s.push_back(t.elapsed_seconds());
  }

  RunResult out;
  // Untimed correctness: every cell complete, and a seeded sample of each
  // cell's records equal to the scalar full-re-execution reference.
  std::vector<std::vector<fi::TrialRecord>> records;
  for (const fi::SuiteCellResult& c : result.cells) {
    ++out.attempted;
    if (c.report.executed() != c.cell.total_trials) ++out.failed;
    records.push_back(c.report.records);
  }
  check_against_reference(*suite, spec, records, opt.seed, zoo ? 8 : 16,
                          out);

  std::vector<double> grid_ms;
  for (const double g : grid_s) grid_ms.push_back(1e3 * g);
  std::fprintf(stderr, "perfbench: set-up samples (s):");
  for (const double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\nperfbench: grid samples (s):");
  for (const double g : grid_s) std::fprintf(stderr, " %.3f", g);
  std::fprintf(stderr, "\n");
  // One-shot: the grid is the request, and Suite::run hands back every
  // record at once, so the first record arrives with the last.
  out.metrics = {
      {"setup_s", {median(setup_s), "s"}},
      {"grid_s", {median(grid_s), "s"}},
      {"trials_per_s", {median(trials_per_s), "trials/s"}},
      {"req_p50_ms", {median(grid_ms), "ms"}},
      {"req_tail_ms", {req_tail_ms(grid_ms), "ms"}},
      {"first_record_p50_ms", {median(grid_ms), "ms"}},
      {"peak_rss_mb", {peak_rss, "MiB"}},
  };
  return out;
}

}  // namespace perfbench
