// Untimed correctness check against the repository's bit-identical
// reference tier: the scalar backend with full re-execution.
#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

void check_against_reference(
    fi::Suite& graphs, const fi::SuiteSpec& spec,
    const std::vector<std::vector<fi::TrialRecord>>& records_by_cell,
    std::uint64_t sample_seed, std::size_t sample_trials_per_cell,
    RunResult& out) {
  const fi::SuitePlan plan = fi::compile_suite(spec);
  if (records_by_cell.size() != plan.cells.size())
    throw std::invalid_argument("check_against_reference: cell count");
  for (std::size_t ci = 0; ci < plan.cells.size(); ++ci) {
    const fi::SuiteCell& cell = plan.cells[ci];
    if (cell.technique == fi::Technique::kRangerPaired)
      throw std::invalid_argument(
          "check_against_reference: ranger-paired cells are not sampled");
    fi::RunnerConfig rc = fi::cell_runner_config(spec, cell);
    rc.campaign.backend = ops::KernelBackend::kScalar;
    rc.campaign.partial_reexecution = false;
    // A sparse shard: about sample_trials_per_cell trials at a seeded
    // phase, spread over the whole cell.
    rc.shard_count = std::max<std::size_t>(
        1, cell.total_trials / std::max<std::size_t>(1,
                                                     sample_trials_per_cell));
    rc.shard_index = util::derive_seed(sample_seed, ci) % rc.shard_count;
    rc.max_new_trials = 0;
    rc.target_half_width_pct = 0.0;
    rc.checkpoint_path.clear();

    const models::Workload& w = graphs.workloads().get(cell.model, cell.act);
    fi::RunContext ctx;
    ctx.plan_graph = &w.graph;
    if (cell.technique == fi::Technique::kRanger)
      ctx.plan_graph = &graphs.protected_graph(cell.model, cell.act);
    const fi::CampaignReport ref = fi::CampaignRunner(rc).run(
        ctx, w.eval_feeds, models::default_judges(cell.model));

    std::unordered_map<std::uint64_t, const fi::TrialRecord*> got;
    for (const fi::TrialRecord& r : records_by_cell[ci]) got[r.trial] = &r;
    for (const fi::TrialRecord& r : ref.records) {
      ++out.attempted;
      const auto it = got.find(r.trial);
      if (it == got.end() || !(*it->second == r)) ++out.failed;
    }
  }
}

}  // namespace perfbench
