// suite_cli — run the zoo-wide campaign suite (fi::Suite) from the shell
// and CI: one declarative grid of (model × act × dtype × fault-model ×
// technique) cells, executed on the shared-cache orchestrator with
// per-cell JSONL checkpoints, suite-level sharding, an aggregated
// SUITE_<name>.json manifest and the figure/table report layer.
//
// Run (or resume) a shard of a suite:
//   suite_cli --name smoke --models lenet,alexnet,dave
//             --dtypes fixed32,fixed16 --techniques unprotected,ranger
//             --trials 100 --inputs 2 --seed 2021
//             [--shard 0/2] --dir build/suite [--report all]
//
// Merge the shard checkpoints written above (same grid flags; no trials
// execute) and write the full-suite manifest:
//   suite_cli --merge --name smoke ...same grid flags...
//             --dir build/suite --out build/suite/SUITE_smoke.json
//
// The manifest is derived only from per-trial records and the spec, so a
// merged-shards manifest is byte-identical to an unsharded run's — the
// CI suite-smoke job gates on exactly that with `cmp`.
//
// Flags shared with campaign_cli, their help lines and the RANGERPP_*
// environment fallbacks live in tools/cli_flags.hpp.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "fi/suite.hpp"
#include "graph/passes.hpp"
#include "tools/cli_flags.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

using namespace rangerpp;

namespace {

struct Options {
  cli::CommonFlags common;
  bool merge = false, dump_passes = false;
  std::string report = "cells", out, metrics;
};

using cli::Args;
using cli::UsageError;

// suite_cli's own flags; the shared ones are cli::kCommonFlags.
constexpr cli::Flag<Options> kFlags[] = {
    {"--models", "LIST",
     "lenet alexnet vgg11 vgg16 resnet18\n"
     "squeezenet dave dave-degrees comma (required)",
     [](Options& o, Args& a) {
       for (const models::ModelId id :
            a.token_list(models::model_from_token, "model"))
         o.common.spec.models.push_back(id);
     }},
    {"--acts", "LIST",
     "default | relu | tanh | sigmoid | elu\n"
     "(default: default — the published act)",
     [](Options& o, Args& a) {
       o.common.spec.acts = a.token_list(fi::act_from_token, "act");
     }},
    {"--dtypes", "LIST",
     "fixed32 | fixed16 | int8 | float32\n"
     "(default fixed32; int8 calibrates per-node\n"
     "formats from the model's profiled bounds)",
     [](Options& o, Args& a) {
       o.common.spec.dtypes = a.token_list(fi::dtype_from_token, "dtype");
     }},
    {"--techniques", "LIST",
     "unprotected | ranger | ranger-paired (default\n"
     "unprotected,ranger; ranger-paired replays the\n"
     "unprotected faults on the protected twin)",
     [](Options& o, Args& a) {
       o.common.spec.techniques =
           a.token_list(fi::technique_from_token, "technique");
     }},
    {"--name", "NAME",
     "suite name (checkpoint/manifest prefix;\ndefault 'suite')",
     [](Options& o, Args& a) { o.common.spec.name = a.value(); }},
    {"--trials-divisor", "D",
     "divide every cell's trials by D (Table VI\nruns at half trials; "
     "default 1)",
     [](Options& o, Args& a) {
       o.common.spec.trials_divisor = a.size_value();
       if (o.common.spec.trials_divisor == 0)
         throw UsageError("--trials-divisor wants >= 1");
     }},
    {"--dir", "DIR",
     "checkpoint + manifest directory (default:\n"
     "in-memory, manifest in the working dir)",
     [](Options& o, Args& a) { o.common.spec.checkpoint_dir = a.value(); }},
    {"--report", "MODE",
     "cells | fig6 | fig7 | fig9 | int8 | fig11 |\n"
     "fig12 | table6 | all | none (default cells)",
     [](Options& o, Args& a) {
       o.report = a.value();
       for (const char* k : {"cells", "fig6", "fig7", "fig9", "int8",
                             "fig11", "fig12", "table6", "all", "none"})
         if (o.report == k) return;
       throw UsageError("unknown report mode '" + o.report + "'");
     }},
    {"--merge", "",
     "merge the shard checkpoints in DIR (same grid\n"
     "flags; no trials execute)",
     [](Options& o, Args&) { o.merge = true; }},
    {"--out", "FILE",
     "manifest path (default:\nDIR/SUITE_<name>[.s<i>of<N>].json)",
     [](Options& o, Args& a) { o.out = a.value(); }},
    {"--metrics", "FILE",
     "write a metrics-registry snapshot JSON\n"
     "(counters/gauges/histograms) on exit",
     [](Options& o, Args& a) { o.metrics = a.value(); }},
    {"--dump-passes", "",
     "print the compile pipeline (per-pass timing\n"
     "+ node counts) of every plan the grid runs,\n"
     "and exit",
     [](Options& o, Args&) { o.dump_passes = true; }},
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "suite_cli: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: suite_cli --models M[,M...] [options]\n"
               "       suite_cli --merge --models M[,M...] [options] "
               "[--out FILE]\n"
               "       suite_cli --list\n"
               "\n"
               "grid and suite options:\n");
  cli::print_flags<Options>(stderr, kFlags);
  cli::print_flags<cli::CommonFlags>(stderr, cli::kCommonFlags);
  std::fprintf(stderr, "ImageNet-scale models (vgg16, resnet18, squeezenet) "
                       "run --trials/4 per input.\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (const auto err = cli::parse_flags<Options>({argv + 1, argv + argc},
                                                 kFlags, o))
    usage(err->c_str());
  if (o.common.help) usage();
  if (o.common.list) {
    cli::print_axes(stdout);
    return 0;
  }
  const fi::SuiteSpec& spec = o.common.spec;
  if (spec.models.empty()) usage("--models is required");
  cli::start_telemetry(o.common, !o.metrics.empty());

  try {
    fi::Suite suite(spec);
    if (o.dump_passes) {
      // The plan each distinct (model, act, dtype, protected) executor of
      // the grid runs its trials on — the one campaign_cli prints.
      std::set<std::tuple<models::ModelId, ops::OpKind, tensor::DType, bool>>
          seen;
      for (const fi::SuiteCell& c : suite.plan().cells) {
        const bool prot = c.technique != fi::Technique::kUnprotected;
        if (!seen.insert({c.model, c.act, c.dtype, prot}).second) continue;
        const fi::TrialExecutor& ex =
            suite.engine().executor(suite.plan().spec, c, prot);
        std::printf("compile pipeline for %s (%s):\n%s\n", c.label.c_str(),
                    std::string(fi::dtype_token(c.dtype)).c_str(),
                    ex.plan().report()->to_string().c_str());
      }
      return 0;
    }

    std::unique_ptr<cli::ProgressReporter> reporter;
    if (o.common.progress && !o.merge)
      reporter = std::make_unique<cli::ProgressReporter>(
          "suite", suite.plan().total_trials / spec.shard_count,
          /*with_cells=*/true);
    fi::SuiteResult result =
        o.merge ? suite.merge({spec.checkpoint_dir.empty()
                                   ? std::string(".")
                                   : spec.checkpoint_dir})
                : suite.run();
    reporter.reset();

    if (o.out.empty()) {
      std::string name = "SUITE_" + spec.name;
      if (!o.merge && spec.shard_count > 1)
        name += ".s" + std::to_string(spec.shard_index) + "of" +
                std::to_string(spec.shard_count);
      name += ".json";
      o.out = spec.checkpoint_dir.empty()
                  ? name
                  : (std::filesystem::path(spec.checkpoint_dir) / name)
                        .string();
    }
    // A merged manifest describes the full suite, not one shard: merge()
    // already reports full-campaign records, and the manifest's shard
    // field must say 0/1 so it compares equal to an unsharded run's.
    if (o.merge) {
      result.plan.spec.shard_index = 0;
      result.plan.spec.shard_count = 1;
    }
    fi::write_suite_manifest(o.out, result);
    // Merge executes no trials; don't let the table6 overhead column pull
    // in workload construction either (it prints "-" instead).
    if (!o.common.quiet && o.report != "none")
      fi::print_suite_report(result, o.report, o.merge ? nullptr : &suite);
    std::printf("wrote %s (%zu cells, %zu trials planned)\n", o.out.c_str(),
                result.plan.cells.size(), result.plan.total_trials);
    util::trace::stop_and_flush();
    if (!o.metrics.empty() && !util::metrics::write_snapshot(o.metrics)) {
      std::fprintf(stderr, "suite_cli: cannot write %s\n", o.metrics.c_str());
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    util::trace::stop_and_flush();
    std::fprintf(stderr, "suite_cli: %s\n", e.what());
    return 2;
  }
}
