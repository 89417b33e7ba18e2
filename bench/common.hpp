// Shared plumbing for the bench binaries.  Every bench regenerates one
// table or figure of the paper and prints the same rows/series the paper
// reports (see EXPERIMENTS.md for the side-by-side comparison).
//
// The SDC figures whose campaigns are grid cells (Fig 6-9, 11, 12,
// Table VI and weight_fault_sdc) run as fi::Suite grids
// (suite_spec_from_env), so their records come from
// fi::EngineCache::run_cell, the path suite_cli and the scheduler use.
// Benches keep direct campaigns only where the variable is not a suite
// axis: fig10 (bound percentile) and design_alternatives (restriction
// policy) through run_sdc_campaign, ablation_restriction_scope (ACT-only
// restriction scope, consecutive bursts on a fixed model), and the
// throughput and matrix benches, which time the execution modes and
// backends themselves.
//
// Environment knobs:
//   RANGERPP_TRIALS    — trials per input for small models (default 1000;
//                        large ImageNet-scale models get a quarter of this).
//   RANGERPP_INPUTS    — FI inputs per model (default 8; paper uses 10).
//   RANGERPP_SEED      — campaign seed (default 2021).
//   RANGERPP_SHARD     — "i/N": run only trials t with t % N == i (shard
//                        of the deterministic trial stream; the union of
//                        all shards equals the unsharded run).  Suite
//                        benches shard the suite-global stream.
//   RANGERPP_BENCH_DIR — directory for BENCH_*.json artifacts (default:
//                        current working directory).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/runner.hpp"
#include "fi/suite.hpp"
#include "graph/passes.hpp"
#include "models/workload.hpp"
#include "ops/backend.hpp"
#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace rangerpp::bench {

using util::env_size;

struct BenchConfig {
  std::size_t trials_small = env_size("RANGERPP_TRIALS", 1000);
  std::size_t inputs = env_size("RANGERPP_INPUTS", 8);
  std::uint64_t seed = env_size("RANGERPP_SEED", 2021);
  // RANGERPP_SHARD=i/N distributes a figure's campaigns across machines.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  BenchConfig() {
    // Benches always run with the metrics registry live so
    // emit_bench_json can embed the run's counters (cache hit rates,
    // kernel dispatch counts) next to its timing numbers.  Telemetry is
    // a pure observer: campaign results are unaffected.
    util::metrics::set_enabled(true);
    if (const char* s = std::getenv("RANGERPP_SHARD")) {
      if (const auto spec = util::parse_shard_spec(s)) {
        shard_index = spec->index;
        shard_count = spec->count;
      } else {
        std::fprintf(stderr, "bench: bad RANGERPP_SHARD=%s "
                             "(want i/N with i < N)\n", s);
        std::exit(2);
      }
    }
  }

  bool sharded() const { return shard_count > 1; }

  // The shared suite/bench trial-count rule (ImageNet-scale models run a
  // quarter of the small-model count, as in the paper).
  std::size_t trials_for(models::ModelId id) const {
    return models::scaled_trials(id, trials_small);
  }
};

// The fi::SuiteSpec equivalent of this bench environment: same trial
// scaling, inputs, seed and (suite-level) sharding, so a bench ported
// onto the suite draws the identical deterministic trial streams its
// standalone campaigns would.
inline fi::SuiteSpec suite_spec_from_env(const BenchConfig& cfg,
                                         std::string name) {
  fi::SuiteSpec spec;
  spec.name = std::move(name);
  spec.trials_small = cfg.trials_small;
  spec.inputs = cfg.inputs;
  spec.seed = cfg.seed;
  spec.shard_index = cfg.shard_index;
  spec.shard_count = cfg.shard_count;
  return spec;
}

// Builds the workload + its Ranger-protected twin with 100th-percentile
// (conservative) bounds.
struct ProtectedWorkload {
  models::Workload base;
  core::Bounds bounds;
  graph::Graph protected_graph;
  core::TransformStats transform_stats;
  double profiling_seconds = 0.0;
};

inline ProtectedWorkload make_protected(models::ModelId id,
                                        const BenchConfig& cfg,
                                        ops::OpKind act = ops::OpKind::kInput,
                                        double percentile = 100.0) {
  ProtectedWorkload pw;
  models::WorkloadOptions wo;
  wo.act = act;
  wo.eval_inputs = cfg.inputs;
  wo.seed = cfg.seed;
  pw.base = models::make_workload(id, wo);

  util::Timer timer;
  core::ProfileOptions po;
  po.percentile = percentile;
  pw.bounds = core::RangeProfiler{po}.derive_bounds(pw.base.graph,
                                                    pw.base.profile_feeds);
  pw.profiling_seconds = timer.elapsed_seconds();

  core::RangerTransform transform;
  pw.protected_graph = transform.apply(pw.base.graph, pw.bounds);
  pw.transform_stats = transform.last_stats();
  return pw;
}

// Direct campaign for the benches whose variable is not a suite axis
// (fig10's bound percentile, design_alternatives' restriction policy):
// CampaignRunner over the model's default judges, in memory.  With
// RANGERPP_SHARD unset this executes the campaign's whole deterministic
// trial stream; with it set, this process contributes its shard (raw
// trial index, not the suite-global mapping) and the printed rates are
// the shard's estimate.
inline fi::CampaignReport run_sdc_campaign(const graph::Graph& g,
                                           const models::Workload& base,
                                           const BenchConfig& cfg,
                                           tensor::DType dtype) {
  fi::RunnerConfig rc;
  rc.campaign.dtype = dtype;
  rc.campaign.trials_per_input = cfg.trials_for(base.id);
  rc.campaign.seed = cfg.seed;
  rc.shard_index = cfg.shard_index;
  rc.shard_count = cfg.shard_count;
  rc.label = models::model_name(base.id);
  return fi::CampaignRunner(rc).run(g, base.eval_feeds,
                                    models::default_judges(base.id));
}

// Mean over a campaign's judges of its SDC rate, in percent: the
// one-number-per-model summary Fig 8's reductions, Table VI's Hong row,
// the weight-fault table and the ablations quote.
inline double mean_sdc_pct(const fi::CampaignReport& r) {
  double sum = 0.0;
  for (const fi::CampaignResult& a : r.aggregate) sum += a.sdc_rate_pct();
  return r.aggregate.empty() ? 0.0
                             : sum / static_cast<double>(r.aggregate.size());
}

// The first cell of `r` with these dimensions (the bench grids have one
// dtype, so it is not matched).  Throws if the grid has no such cell.
inline const fi::SuiteCellResult& find_cell(
    const fi::SuiteResult& r, models::ModelId model, fi::Technique technique,
    ops::OpKind act = ops::OpKind::kInput,
    const fi::FaultModelSpec& fault = {}) {
  const std::string fault_token = fi::fault_spec_token(fault);
  for (const fi::SuiteCellResult& c : r.cells)
    if (c.cell.model == model && c.cell.technique == technique &&
        c.cell.act == act && fi::fault_spec_token(c.cell.fault) == fault_token)
      return c;
  throw std::out_of_range("bench: suite " + r.plan.spec.name +
                          " has no such cell for " +
                          models::model_name(model));
}

// Banner for sharded figure runs, so partial rates are never mistaken for
// full-campaign numbers.
inline void print_shard_note(const BenchConfig& cfg) {
  if (cfg.sharded())
    std::printf("NOTE: RANGERPP_SHARD=%zu/%zu — rates below estimate from "
                "this shard's trials only.\n\n",
                cfg.shard_index, cfg.shard_count);
}

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("\n=== %s ===\n(reproduces %s)\n\n", experiment, paper_ref);
}

// Machine-readable timing artifact: writes BENCH_<name>.json into
// $RANGERPP_BENCH_DIR (default: the working directory) so CI can track
// bench metrics (e.g. the campaign speedup) across PRs without the
// binaries littering the source tree.  Metrics are flat name -> number
// pairs; a `host` block (hardware_concurrency, kernel backend, seed,
// trial counts) makes artifacts from different machines comparable —
// throughput numbers like the conv blocked-vs-scalar speedup are
// host-dependent even though results are not.  `cfg` is the bench's
// own, so the block records the *effective* configuration.
inline void emit_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics,
    const BenchConfig& cfg) {
  std::string dir;
  if (const char* d = std::getenv("RANGERPP_BENCH_DIR")) {
    dir = d;
    if (!dir.empty() && dir.back() != '/') dir.push_back('/');
  }
  const std::string path = dir + "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",", name.c_str());
  std::fprintf(f,
               "\n  \"host\": {\"hardware_concurrency\": %u, \"backend\": "
               "\"%s\", \"seed\": %llu, \"trials\": %zu, \"inputs\": %zu, "
               "\"shard\": \"%zu/%zu\"}",
               std::thread::hardware_concurrency(),
               std::string(ops::backend_name(ops::default_backend())).c_str(),
               static_cast<unsigned long long>(cfg.seed), cfg.trials_small,
               cfg.inputs, cfg.shard_index, cfg.shard_count);
  // The run's metrics-registry snapshot (cache hit/build counts, kernel
  // dispatch counters, latency histograms) rides along next to the host
  // block, so a regression in, say, cache hit rate is visible in the
  // same artifact as the timing it explains.
  {
    std::string snap = util::metrics::snapshot_json();
    while (!snap.empty() && snap.back() == '\n') snap.pop_back();
    std::fprintf(f, ",\n  \"runtime_metrics\": %s", snap.c_str());
  }
  for (const auto& [key, value] : metrics)
    std::fprintf(f, ",\n  \"%s\": %.17g", key.c_str(), value);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace rangerpp::bench
