// perigee_perfbench: one run of one benchmark workload, in one process.
//
//   perigee_perfbench --workload learn --seed 1 --workers 4 --out DIR
//                     [--mode run|setup|trace] [--parity CKPT_DIR]
//
// run    drives runner::SweepRunner::run (checkpoints into DIR/ckpt, build
//        reuse on) and writes the result JSON to DIR/result.json.
// setup  stops where `run` would enter SweepRunner::run.
// trace  runs the same grid through the traced harness (harness.hpp),
//        writes DIR/result.json, and compares every job's λ bytes with the
//        checkpoints an untraced run left in CKPT_DIR.
//
// Prints one JSON object on stdout: the CLOCK_MONOTONIC time at which
// SweepRunner::run is (or would be) entered, wall and CPU time from there
// until the result file is written, peak RSS, run metadata and input sizes,
// plus the layer metrics and parity counts in trace mode. perfbench/run.py
// launches it and turns those objects into the benchmark's metrics.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "obs/meta.hpp"
#include "obs/metrics.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json.hpp"
#include "runner/sweep.hpp"
#include "util/flags.hpp"
#include "workloads.hpp"

namespace {

using namespace perigee;

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

// CPUs this process may run on (what `nproc` prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

int fail(const std::string& message) {
  std::cerr << "perigee_perfbench: " << message << "\n";
  return 2;
}

std::string workload_names() {
  std::string names;
  for (const auto& w : perfbench::workloads()) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("workload", "", "workload name");
  flags.add_int("seed", 1, "workload seed (base seed of the grid)");
  flags.add_int("workers", 4, "sweep worker threads");
  flags.add_string("out", "", "directory for result.json and checkpoints");
  flags.add_string("mode", "run", "run, setup or trace");
  flags.add_string("parity", "",
                   "trace mode: checkpoint directory of an untraced run to "
                   "compare every job's λ bytes with");
  if (!flags.parse(argc, argv)) return 2;
  if (!flags.unknown().empty()) {
    return fail("unknown argument '" + flags.unknown().front() + "'");
  }

  const perfbench::Workload* workload =
      perfbench::find_workload(flags.get_string("workload"));
  if (workload == nullptr) {
    return fail("unknown workload '" + flags.get_string("workload") +
                "' (choose one of: " + workload_names() + ")");
  }
  const std::int64_t seed = flags.get_int("seed");
  if (seed < 0) return fail("--seed must be a non-negative integer");
  const std::int64_t workers = flags.get_int("workers");
  const int cpus = usable_cpus();
  if (workers < 1 || workers > cpus) {
    return fail("--workers must be in [1, " + std::to_string(cpus) +
                "] (nproc)");
  }
  const std::string& mode = flags.get_string("mode");
  if (mode != "run" && mode != "setup" && mode != "trace") {
    return fail("unknown --mode '" + mode + "' (choose one of: run, setup, "
                "trace)");
  }
  const std::string& out = flags.get_string("out");
  if (out.empty()) return fail("--out is required");

  const runner::SweepSpec spec =
      perfbench::make_spec(*workload, static_cast<std::uint64_t>(seed));
  // Grid expansion and the input sizes it implies; also checks that every
  // cell expands before any job runs.
  const perfbench::InputSize inputs = perfbench::input_size(spec);
  const runner::SweepRunner sweep(static_cast<int>(workers));
  runner::SweepOptions options;
  options.checkpoint_dir = out + "/ckpt";

  const std::int64_t enter_ns = monotonic_ns();
  std::ostringstream json;  // printed whole, only on success
  runner::JsonWriter w(json, 0);
  w.begin_object();
  w.field("mode", mode);
  w.field("workload", workload->name);
  w.field("cli", workload->cli);
  w.field("seed", seed);
  w.field("workers", workers);
  w.field("enter_ns", enter_ns);
  if (mode == "setup") {
    w.end_object();
    std::cout << json.str() << "\n";
    return 0;
  }

  try {
    const double cpu0 = cpu_seconds();
    const std::string path = out + "/result.json";
    runner::SweepResult result;
    perfbench::TracedRun traced;
    if (mode == "run") {
      result = sweep.run(spec, options);
    } else {
      obs::Registry::instance().reset();
      traced = perfbench::run_traced(spec, static_cast<unsigned>(workers));
      result = runner::aggregate_slots(spec, traced.slots);
    }
    const obs::RunMeta meta = obs::capture_run_meta();
    if (!runner::write_json_file(path, spec, result, &meta)) {
      std::cerr << "perigee_perfbench: cannot write " << path << "\n";
      return 1;
    }
    const std::int64_t end_ns = monotonic_ns();
    const double cpu_s = cpu_seconds() - cpu0;

    w.field("wall_s", static_cast<double>(end_ns - enter_ns) * 1e-9);
    w.field("cpu_s", cpu_s);
    w.field("peak_rss_kb", obs::peak_rss_kb());
    w.field("result", path);
    w.key("inputs");
    w.begin_object();
    w.field("nodes", static_cast<std::int64_t>(inputs.nodes));
    w.field("jobs", static_cast<std::int64_t>(inputs.jobs));
    w.field("blocks", static_cast<std::int64_t>(inputs.blocks));
    w.field("lambda_sources", static_cast<std::int64_t>(inputs.lambda_sources));
    w.end_object();
    w.key("meta");
    w.begin_object();
    obs::write_run_meta_fields(w, meta);
    w.end_object();

    if (mode == "trace") {
      const perfbench::LayerTotals& t = traced.totals;
      std::size_t mismatched = traced.slots.size();
      if (const std::string& dir = flags.get_string("parity"); !dir.empty()) {
        const runner::CheckpointStore store(dir,
                                            runner::grid_fingerprint(spec));
        mismatched = perfbench::count_mismatches(traced.slots,
                                                 store.load_all());
      }
      w.field("parity_jobs", static_cast<std::int64_t>(traced.slots.size()));
      w.field("parity_mismatched", static_cast<std::int64_t>(mismatched));
      w.field("pool_wall_s", t.wall_s);
      w.field("job_s_sum", t.job_s_sum);
      w.field("round_ms_sum", t.round_ms_sum);
      w.key("layers");
      w.begin_object();
      for (const auto& [name, value] :
           perfbench::layer_metrics(t, obs::Registry::instance().scrape())) {
        w.field(name, value);
      }
      w.end_object();
    }
  } catch (const std::exception& e) {
    std::cerr << "perigee_perfbench: " << e.what() << "\n";
    return 1;
  }
  w.end_object();
  std::cout << json.str() << "\n";
  return 0;
}
