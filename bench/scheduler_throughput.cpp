// Scheduler throughput: trials/sec of the resident campaign scheduler
// (fi::Scheduler) against the one-shot fi::Suite runner on the same
// LeNet grid — 1 worker vs all cores, and N concurrent client requests
// multiplexed onto one worker pool.
//
// The scheduler is a scheduling layer, not an approximation: every
// configuration's exported per-cell JSONL must be byte-identical to the
// one-shot run's checkpoints.  The bench is the determinism gate — any
// divergence exits 1.  Emits BENCH_scheduler_throughput.json.
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench/common.hpp"
#include "fi/scheduler.hpp"

using namespace rangerpp;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("rangerpp_schedbench_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct Measurement {
  double seconds = 0.0;
  std::size_t trials = 0;
  double trials_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0;
  }
};

// Byte-compares a request's export against the one-shot checkpoint map
// keyed by filename; cell files with a different request name map onto
// the golden by cell id (the name only prefixes the filename).
bool exports_match(const std::vector<std::string>& paths,
                   const std::string& request_name,
                   const std::string& golden_name,
                   const std::map<std::string, std::string>& golden) {
  if (paths.size() != golden.size()) return false;
  bool ok = true;
  for (const std::string& path : paths) {
    std::string fname = std::filesystem::path(path).filename().string();
    if (fname.rfind(request_name + ".", 0) == 0)
      fname = golden_name + fname.substr(request_name.size());
    const auto it = golden.find(fname);
    if (it == golden.end() || slurp(path) != it->second) {
      std::fprintf(stderr, "DIVERGENCE: %s does not match the one-shot "
                           "checkpoint\n", path.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main() {
  bench::BenchConfig cfg;
  if (cfg.sharded()) {
    // The scheduler owns partitioning; its requests are always the full
    // unsharded grid.
    std::printf("NOTE: RANGERPP_SHARD ignored — the scheduler partitions "
                "internally.\n");
    cfg.shard_index = 0;
    cfg.shard_count = 1;
  }
  bench::print_header(
      "Campaign scheduler throughput",
      "the resident-engine configuration; records gated byte-identical "
      "to one-shot runs");

  fi::SuiteSpec spec = bench::suite_spec_from_env(cfg, "schedbench");
  spec.models = {models::ModelId::kLeNet};
  spec.inputs = std::min<std::size_t>(spec.inputs, 4);
  spec.check_every = 64;

  models::WorkloadOptions wo;
  wo.eval_inputs = spec.inputs;
  wo.seed = spec.seed;
  models::WorkloadCache cache(wo);

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::size_t kClients = 3;

  // One-shot baseline (and the golden bytes every scheduler run must
  // reproduce).  Workloads are built once into the shared cache first so
  // every measurement times campaign execution, not LeNet training.
  fi::SuiteSpec golden_spec = spec;
  golden_spec.checkpoint_dir = scratch_dir("golden");
  Measurement oneshot;
  {
    fi::Suite warm(spec, &cache);
    warm.run();  // warms the cache; also JIT-warms data/kernel paths
    util::Timer timer;
    fi::Suite suite(golden_spec, &cache);
    const fi::SuiteResult r = suite.run();
    oneshot.seconds = timer.elapsed_seconds();
    oneshot.trials = r.plan.total_trials;
  }
  std::map<std::string, std::string> golden;
  for (const auto& entry :
       std::filesystem::directory_iterator(golden_spec.checkpoint_dir))
    golden[entry.path().filename().string()] = slurp(entry.path().string());

  bool identical = true;
  const auto run_sched = [&](unsigned workers,
                             std::size_t clients) -> Measurement {
    fi::SchedulerConfig sc;
    sc.workers = workers;
    sc.partitions_per_cell = 4;
    sc.slice_trials = 0;  // in-memory: whole partitions per slice
    fi::Scheduler sched(sc, &cache);
    std::vector<fi::SuiteSpec> specs(clients, spec);
    for (std::size_t c = 0; c < clients; ++c)
      specs[c].name = spec.name + "_c" + std::to_string(c);
    std::vector<std::uint64_t> ids(clients, 0);
    util::Timer timer;
    {
      std::vector<std::thread> submitters;
      submitters.reserve(clients);
      for (std::size_t c = 0; c < clients; ++c)
        submitters.emplace_back(
            [&sched, &specs, &ids, c] { ids[c] = sched.submit(specs[c]); });
      for (std::thread& t : submitters) t.join();
      for (const std::uint64_t id : ids) sched.wait(id);
    }
    Measurement m;
    m.seconds = timer.elapsed_seconds();
    for (std::size_t c = 0; c < clients; ++c) {
      const auto paths = sched.export_request_jsonl(
          ids[c], scratch_dir("out_" + std::to_string(workers) + "_" +
                              std::to_string(c)));
      m.trials += fi::compile_suite(specs[c]).total_trials;
      identical = exports_match(paths, specs[c].name, spec.name, golden) &&
                  identical;
    }
    return m;
  };

  const Measurement sched1 = run_sched(1, 1);
  const Measurement schedN = run_sched(cores, 1);
  const Measurement multi = run_sched(cores, kClients);

  util::Table table({"configuration", "trials", "seconds", "trials/sec"});
  const auto row = [&](const std::string& name, const Measurement& m) {
    table.add_row({name, std::to_string(m.trials),
                   util::Table::fmt(m.seconds, 2),
                   util::Table::fmt(m.trials_per_sec(), 0)});
  };
  row("one-shot suite", oneshot);
  row("scheduler, 1 worker", sched1);
  row("scheduler, " + std::to_string(cores) + " workers", schedN);
  row("scheduler, " + std::to_string(cores) + " workers, " +
          std::to_string(kClients) + " clients",
      multi);
  table.print();

  const double scaling =
      sched1.seconds > 0.0 && schedN.seconds > 0.0
          ? sched1.seconds / schedN.seconds
          : 0.0;
  std::printf("\n1 -> %u workers: %.2fx   exports %s\n", cores, scaling,
              identical ? "byte-identical to one-shot"
                        : "DIVERGED (bug: scheduling must be invisible)");

  bench::emit_bench_json(
      "scheduler_throughput",
      {{"trials", static_cast<double>(oneshot.trials)},
       {"workers", static_cast<double>(cores)},
       {"clients", static_cast<double>(kClients)},
       {"oneshot_seconds", oneshot.seconds},
       {"oneshot_trials_per_sec", oneshot.trials_per_sec()},
       {"sched1_seconds", sched1.seconds},
       {"sched1_trials_per_sec", sched1.trials_per_sec()},
       {"schedN_seconds", schedN.seconds},
       {"schedN_trials_per_sec", schedN.trials_per_sec()},
       {"multi_client_seconds", multi.seconds},
       {"multi_client_trials_per_sec", multi.trials_per_sec()},
       {"worker_scaling", scaling},
       {"exports_identical", identical ? 1.0 : 0.0}},
      cfg);
  return identical ? 0 : 1;
}
