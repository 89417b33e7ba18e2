// campaign_cli — drive one fault-injection campaign from the shell and
// CI (guide: docs/CAMPAIGNS.md).  A campaign is a one-cell suite: the tool
// compiles a SuiteSpec of one model, dtype, fault model and technique and
// runs it through fi::EngineCache::run_cell, the path fi::Suite and the
// scheduler daemon use, so its checkpoint is byte-identical to the
// matching suite_cli cell file.  Unlike suite_cli it runs --trials
// verbatim (no down-scaling for the ImageNet-scale models) and offers
// stratified sampling.
//
//   campaign_cli --model lenet --trials 100 --inputs 2 [--ranger]
//                [--shard 0/2] --checkpoint shard0.jsonl
//   campaign_cli --merge shard0.jsonl shard1.jsonl [--out merged.jsonl]
//                [--golden single.jsonl]
//
// Re-running with the same --checkpoint resumes: only missing trials
// execute, and the records are bit-identical to an uninterrupted run.
// --golden exits 1 unless the merged per-trial records equal the
// reference checkpoint's — the CI gate for shard-merge reproducibility.
// The flags shared with suite_cli live in tools/cli_flags.hpp.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fi/report.hpp"
#include "fi/suite.hpp"
#include "graph/passes.hpp"
#include "models/workload.hpp"
#include "tools/cli_flags.hpp"
#include "util/threadpool.hpp"
#include "util/trace.hpp"

using namespace rangerpp;

namespace {

struct Options {
  cli::CommonFlags common;
  std::optional<models::ModelId> model;
  tensor::DType dtype = tensor::DType::kFixed32;
  bool ranger = false, dump_passes = false;
  std::string checkpoint, out, golden;
  std::vector<std::string> merge_paths;
  fi::StratifiedOptions stratified;
};

using cli::Args;
using cli::UsageError;

// campaign_cli's own flags; the shared ones are cli::kCommonFlags.
constexpr cli::Flag<Options> kFlags[] = {
    {"--model", "NAME",
     "lenet alexnet vgg11 vgg16 resnet18 squeezenet\n"
     "dave dave-degrees comma (required)",
     [](Options& o, Args& a) {
       o.model = models::model_from_token(a.value());
       if (!o.model) throw UsageError("unknown model");
     }},
    {"--ranger", "", "campaign on the Ranger-protected graph",
     [](Options& o, Args&) { o.ranger = true; }},
    {"--dtype", "D", "fixed32 (default) | fixed16 | int8 | float32",
     [](Options& o, Args& a) {
       const auto dtype = fi::dtype_from_token(a.value());
       if (!dtype) throw UsageError("unknown dtype");
       o.dtype = *dtype;
     }},
    {"--sweep-inputs", "N", "shorthand: --fault-class weight --inputs N",
     [](Options& o, Args& a) {
       o.common.fault_class = fi::FaultClass::kWeight;
       o.common.spec.inputs = a.size_value();
     }},
    {"--checkpoint", "FILE",
     "stream per-trial JSONL records (binary with a\n"
     ".rcp suffix); resume if the file exists",
     [](Options& o, Args& a) { o.checkpoint = a.value(); }},
    {"--stratified", "", "stratified (layer, bit-group) sampling",
     [](Options& o, Args&) { o.stratified.enabled = true; }},
    {"--bit-group", "N", "bits per stratum group (default 8)",
     [](Options& o, Args& a) {
       o.stratified.bit_group_size = a.int_value(1, 64);
     }},
    {"--dump-passes", "",
     "print the compile pipeline (per-pass timing\n"
     "+ node counts) of the campaign's plan",
     [](Options& o, Args&) { o.dump_passes = true; }},
    {"--merge", "FILE...",
     "merge shard checkpoints into one report",
     [](Options& o, Args& a) {
       while (a.has_operand()) o.merge_paths.push_back(a.value());
       if (o.merge_paths.empty())
         throw UsageError("--merge wants at least one file");
     }},
    {"--out", "FILE", "--merge: write the merged checkpoint",
     [](Options& o, Args& a) { o.out = a.value(); }},
    {"--golden", "FILE",
     "--merge: exit 1 unless the merged records are\n"
     "bit-identical to this checkpoint's",
     [](Options& o, Args& a) { o.golden = a.value(); }},
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "campaign_cli: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: campaign_cli --model NAME [options]\n"
               "       campaign_cli --merge FILE... [--out FILE] "
               "[--golden FILE]\n"
               "       campaign_cli --list\n"
               "\n"
               "options:\n");
  cli::print_flags<Options>(stderr, kFlags);
  cli::print_flags<cli::CommonFlags>(stderr, cli::kCommonFlags);
  std::exit(2);
}

// Prints the machine-greppable summary line CI jobs key on.
void print_totals(const fi::CampaignReport& report) {
  std::string sdcs;
  for (const fi::CampaignResult& r : report.aggregate) {
    if (!sdcs.empty()) sdcs += ",";
    sdcs += std::to_string(r.sdcs);
  }
  std::printf("TOTALS trials=%zu planned=%zu sdcs=%s\n", report.executed(),
              report.planned, sdcs.c_str());
}

int run_merge(const std::vector<std::string>& paths, const std::string& out,
              const std::string& golden_path, bool quiet) {
  fi::CheckpointHeader header;
  const fi::CampaignReport report = fi::merge_checkpoints(paths, &header);
  if (!quiet) {
    std::printf("merged %zu checkpoint(s): %s\n", paths.size(),
                header.fingerprint().c_str());
    fi::print_report(report);
  }
  print_totals(report);

  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "campaign_cli: cannot write %s\n", out.c_str());
      return 2;
    }
    fi::write_checkpoint_header(f, header);
    for (const fi::TrialRecord& r : report.records)
      fi::append_trial_record(f, r);
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", out.c_str(),
                report.records.size());
  }

  if (!golden_path.empty()) {
    const fi::Checkpoint golden = fi::load_checkpoint(golden_path);
    if (golden.header.fingerprint() != header.fingerprint()) {
      std::fprintf(stderr,
                   "FAIL: golden %s is a different campaign\n  merged  %s\n"
                   "  golden  %s\n",
                   golden_path.c_str(), header.fingerprint().c_str(),
                   golden.header.fingerprint().c_str());
      return 1;
    }
    const fi::CampaignReport golden_report = fi::build_report(
        golden.records, golden.header.judges,
        golden.header.trials_per_input * golden.header.inputs);
    if (!fi::records_identical(report.records, golden_report.records)) {
      std::fprintf(stderr,
                   "FAIL: merged records differ from golden %s "
                   "(%zu vs %zu records)\n",
                   golden_path.c_str(), report.records.size(),
                   golden_report.records.size());
      return 1;
    }
    std::printf("OK: merged shards bit-identical to golden %s "
                "(%zu trials)\n",
                golden_path.c_str(), report.records.size());
  }
  return 0;
}

// The campaign as a one-cell suite on EngineCache::run_cell.
int run_campaign(const Options& o) {
  fi::SuiteSpec spec = o.common.spec;
  spec.models = {*o.model};
  spec.dtypes = {o.dtype};
  spec.techniques = {o.ranger ? fi::Technique::kRanger
                              : fi::Technique::kUnprotected};
  fi::SuiteCell cell = fi::compile_suite(spec).cells.front();
  // --trials runs verbatim: no scaled_trials for the ImageNet-scale models.
  cell.trials_per_input = spec.trials_small;
  cell.total_trials = cell.trials_per_input * spec.inputs;
  fi::RunnerConfig rc = fi::cell_runner_config(spec, cell);
  rc.checkpoint_path = o.checkpoint;
  rc.stratified = o.stratified;

  fi::EngineCache engine(util::worker_count(spec.check_every, spec.threads),
                         spec.verify_plan);
  if (o.dump_passes) {
    // The plan the campaign's trials execute on, from the same cache.
    const fi::TrialExecutor& ex = engine.executor(spec, cell, o.ranger);
    std::printf("compile pipeline for %s:\n%s", rc.label.c_str(),
                ex.plan().report()->to_string().c_str());
  }

  std::unique_ptr<cli::ProgressReporter> reporter;
  if (o.common.progress)
    reporter = std::make_unique<cli::ProgressReporter>(
        "campaign", cell.total_trials / spec.shard_count,
        /*with_cells=*/false);
  const fi::CampaignReport report = engine.run_cell(spec, cell, rc);
  reporter.reset();
  if (!o.common.quiet) {
    std::printf("%s  shard %zu/%zu  %s sampling\n", rc.label.c_str(),
                rc.shard_index, rc.shard_count,
                rc.stratified.enabled ? "stratified" : "uniform");
    if (rc.campaign.fault_class == fi::FaultClass::kWeight)
      std::printf("weight faults: kind=%s nbits=%d ecc=%s "
                  "(input sweep: %zu faults x %zu inputs)\n",
                  std::string(fi::weight_fault_kind_token(
                                  rc.campaign.weight_fault.kind))
                      .c_str(),
                  rc.campaign.weight_fault.n_bits,
                  fi::ecc_token(rc.campaign.ecc).c_str(),
                  rc.campaign.trials_per_input, spec.inputs);
    fi::print_report(report, models::judge_labels(cell.model));
  }
  print_totals(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.common.one_cell = true;
  if (const auto err = cli::parse_flags<Options>({argv + 1, argv + argc},
                                                 kFlags, o))
    usage(err->c_str());
  if (o.common.help) usage();
  if (o.common.list) {
    cli::print_axes(stdout);
    return 0;
  }
  const bool merge = !o.merge_paths.empty();
  if (!merge && !o.model) usage("--model is required");

  cli::start_telemetry(o.common, /*metrics=*/false);
  try {
    const int rc =
        merge ? run_merge(o.merge_paths, o.out, o.golden, o.common.quiet)
              : run_campaign(o);
    util::trace::stop_and_flush();
    return rc;
  } catch (const std::exception& e) {
    util::trace::stop_and_flush();
    std::fprintf(stderr, "campaign_cli: %s\n", e.what());
    return 2;
  }
}
