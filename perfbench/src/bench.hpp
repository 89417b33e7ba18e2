// perfbench — the repository benchmark.  Three workloads, each generated
// from one seed, timed through the program's real entry points (fi::Suite
// for one-shot grids, a `scheduler_cli serve` child process over util::ipc
// for the daemon), checked against the scalar full-re-execution reference,
// and attributed to layers by a separate traced run whose spans wrap calls
// into each layer's public functions from this directory only.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fi/suite.hpp"

namespace perfbench {

using namespace rangerpp;

enum class Workload { kZooSetup, kCampaignLong, kServeMixed };

std::optional<Workload> workload_from_name(std::string_view name);
std::string_view workload_name(Workload w);

struct RunOptions {
  Workload workload = Workload::kZooSetup;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string work_dir;     // scratch space inside the checkout
  std::string daemon_path;  // scheduler_cli binary (serve-mixed)
  unsigned threads = 4;     // worker threads / client connections cap
};

// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// What a run reports: the metrics plus the correctness tally.
struct RunResult {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

// ---- Workload generation (pure functions of the seed) -----------------------

// The eight paper models the prepare step trains or calibrates.
inline constexpr models::ModelId kZoo[] = {
    models::ModelId::kLeNet,    models::ModelId::kAlexNet,
    models::ModelId::kVgg11,    models::ModelId::kVgg16,
    models::ModelId::kResNet18, models::ModelId::kSqueezeNet,
    models::ModelId::kDave,     models::ModelId::kComma};

// The one-shot grids (zoo-setup, campaign-long).
fi::SuiteSpec oneshot_spec(Workload w, std::uint64_t seed, unsigned threads);

// The daemon's warm-up requests: together they touch every (model, dtype,
// technique, fault class) the request mix uses, so timed requests hit
// warm engine caches.
std::vector<fi::SuiteSpec> serve_warmup();

// The first `n` requests of the serve-mixed closed loop.  Every request has
// a unique name and no two carry the same grid (spec minus name).
std::vector<fi::SuiteSpec> serve_requests(std::uint64_t seed, std::size_t n);

// ---- Measurement ------------------------------------------------------------

double median(std::vector<double> v);

// The highest percentile of `samples` with at least ten samples beyond
// it: with n samples, the largest p (whole percent) with
// floor(n * (100 - p) / 100) >= 10, read as the nearest-rank value.
// nullopt when n < 20, where that percentile would sit below the median.
struct Tail {
  int percentile = 0;
  std::size_t samples = 0;
  double value = 0.0;
};
std::optional<Tail> tail_percentile(std::vector<double> samples);

// The tail latency reported as req_tail_ms: tail_percentile, or the
// maximum when there are too few samples for one.  Says on stderr which,
// with the sample count.  `latencies_ms` must not be empty.
double req_tail_ms(const std::vector<double>& latencies_ms);

double peak_rss_mb_self();

// Keeps `threads` threads busy (spawned afresh every millisecond, as the
// blocked kernels spawn theirs) for `seconds`.  Idle virtual CPUs run
// slow for the first few seconds of load; every timed run warms them
// first so its first sample is not the slow one.
void warm_host(double seconds, unsigned threads);
inline constexpr double kWarmSeconds = 2.0;

// ---- Workloads --------------------------------------------------------------

// Timed one-shot run (telemetry off): fresh fi::Suite per iteration.
RunResult run_oneshot(const RunOptions& opt);
// Timed serve-mixed run: closed loop of clients against a daemon child.
RunResult run_serve(const RunOptions& opt);
// Traced runs: per-layer metrics only.
RunResult trace_oneshot(const RunOptions& opt);
RunResult trace_serve(const RunOptions& opt);

// ---- The in-process layer runner --------------------------------------------

// Per-layer totals of one layer-runner pass.  Times are wall seconds summed
// over every call into the layer's public function; the loop_* fields are
// util::metrics counter deltas over the trial loops (zero while metrics
// are off).
struct LayerTimes {
  double models_build_s = 0, core_profile_s = 0, core_transform_s = 0,
         graph_compile_s = 0, graph_golden_s = 0, fi_plan_s = 0,
         graph_exec_s = 0, graph_weight_s = 0, fi_judge_s = 0,
         fi_encode_s = 0;
  std::size_t act_trials = 0, weight_trials = 0, records = 0,
              record_bytes = 0;
  std::uint64_t loop_runs = 0, loop_partial_runs = 0, loop_nodes_pruned = 0,
                loop_elements_touched = 0, loop_dispatches = 0;
  double wall_s = 0;
  double attributed_s() const;
};

// Per-cell SDC counts (one vector of per-judge counts per cell, in plan
// order) — compared against Suite::run's aggregate.
using CellSdcs = std::vector<std::vector<std::size_t>>;

// Runs `specs` through the layers' public functions in the order
// Suite::run calls them, on one thread, each call wrapped in a
// util::trace::Span and timed into `times`.  Specs with equal (seed,
// inputs) share workloads, bounds, protected graphs and executors, as the
// scheduler engine's caches do; a spec's max_new_trials caps each cell's
// trials as it caps Suite::run's.
CellSdcs drive_layers(const std::vector<fi::SuiteSpec>& specs,
                      LayerTimes& times);

// Median wall time in ms of one full Executor::run of each zoo model's
// fixed32 plan, keyed by model token.
std::map<std::string, double> full_run_ms(std::uint64_t seed);

// SDC counts per cell of a Suite::run result, in the same layout.
CellSdcs suite_sdcs(const fi::SuiteResult& r);

// ---- Traced runs ------------------------------------------------------------

// Scheduler and IPC figures of a traced serve-mixed run (all zero on the
// one-shot workloads, which do not reach those layers).
struct ServeLayers {
  double ack_ms = 0, queue_ms = 0, busy_frac = 0, steals_per_slice = 0,
         record_mb_per_s = 0;
};

// Untraced and traced layer-runner passes over the same specs.  The traced
// pass runs with util::metrics reset and enabled and util::trace on; it
// writes the workload's metrics snapshot and trace file into the work
// directory, and prints the self-time table to stderr.
struct TracedPass {
  LayerTimes untraced, traced;
  CellSdcs sdcs;  // of the traced pass
  double feed_cache_hit_ratio = 0;
};
TracedPass traced_passes(const std::vector<fi::SuiteSpec>& specs,
                         const RunOptions& opt);

// Every per-layer metric, from a traced pass plus the serve figures.
Metrics layer_metrics(const TracedPass& pass, const ServeLayers& serve,
                      const RunOptions& opt);

// ---- Correctness ------------------------------------------------------------

// Recomputes a seeded sample of each cell's trials with the scalar
// backend and full re-execution (the bit-identical reference tier) via
// cell_runner_config + CampaignRunner on a sparse shard, and compares
// them with `records_by_cell` (plan order).  `graphs` supplies the
// workloads and protected graphs; its spec must share `spec`'s seed and
// input count.  Each checked trial adds to `out.attempted`; a mismatching
// or missing record adds to `out.failed`.
void check_against_reference(
    fi::Suite& graphs, const fi::SuiteSpec& spec,
    const std::vector<std::vector<fi::TrialRecord>>& records_by_cell,
    std::uint64_t sample_seed, std::size_t sample_trials_per_cell,
    RunResult& out);

}  // namespace perfbench
