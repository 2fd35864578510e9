// Unified sweep driver: runs any named figure or scenario grid (or a custom
// cartesian grid over algorithm / n / rounds / hash model / validation scale
// / relay / churn rate / heterogeneity profile / withholding fraction /
// transmission model) end-to-end on the parallel SweepRunner and writes
// BENCH_<name>.json.
//
//   perigee_sweep --figure fig3a --jobs 8
//   perigee_sweep --figure congestion --seeds 2 --jobs 0
//   perigee_sweep --algorithms random,perigee-subset,ideal
//       --nodes 200,400 --churn 0,0.05 --seeds 3 --jobs 4 --json grid.json
//   perigee_sweep --transmission delay,queue --hetero off,bandwidth
//
// The sweep runs as a crash-safe service: every completed (cell, seed) job
// is checkpointed (disable with --checkpoint-dir none), an interrupted run
// restarts with --resume, and a grid can be split across k coordination-free
// processes and folded back together:
//
//   perigee_sweep --figure fig4a --resume               # pick up where left
//   perigee_sweep --figure fig4a --shard 0/2            # process A
//   perigee_sweep --figure fig4a --shard 1/2            # process B
//   perigee_sweep --figure fig4a --merge S0,S1          # fold them back
//
// where S0 and S1 are BENCH_fig4a.shard0of2.json and
// BENCH_fig4a.shard1of2.json.
//
// Results are bit-identical at any --jobs value, resumed or not, sharded or
// not; see src/runner/sweep.hpp.
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/curves.hpp"
#include "obs/meta.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json.hpp"
#include "runner/sweep.hpp"
#include "scenario/scenario.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace perigee;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// stoull/stod abort the process on garbage; a CLI wants a clean error.
std::optional<double> parse_number(const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

struct Figure {
  const char* name;
  const char* what;
  runner::SweepSpec (*make)();
};

runner::SweepSpec fig3a() {
  runner::SweepSpec spec;
  spec.name = "fig3a";
  spec.base.net.n = 1000;
  spec.base.rounds = 50;
  spec.algorithms = {
      core::Algorithm::Random,         core::Algorithm::Geographic,
      core::Algorithm::Kademlia,       core::Algorithm::PerigeeVanilla,
      core::Algorithm::PerigeeUcb,     core::Algorithm::PerigeeSubset,
      core::Algorithm::Ideal,
  };
  return spec;
}

runner::SweepSpec fig3b() {
  runner::SweepSpec spec = fig3a();
  spec.name = "fig3b";
  spec.base.net.n = 600;
  spec.base.rounds = 40;
  spec.base.hash_model = mining::HashPowerModel::Exponential;
  return spec;
}

runner::SweepSpec fig4a() {
  runner::SweepSpec spec;
  spec.name = "fig4a";
  spec.base.net.n = 600;
  spec.base.rounds = 40;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  spec.validation_scales = {0.1, 0.5, 1.0, 5.0, 10.0};
  return spec;
}

runner::SweepSpec fig4b() {
  runner::SweepSpec spec;
  spec.name = "fig4b";
  spec.base.net.n = 600;
  spec.base.rounds = 30;
  spec.base.hash_model = mining::HashPowerModel::Pools;
  spec.base.pool_latency_scale = 0.1;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::Geographic,
                     core::Algorithm::PerigeeSubset, core::Algorithm::Ideal};
  return spec;
}

runner::SweepSpec fig4c() {
  runner::SweepSpec spec;
  spec.name = "fig4c";
  spec.base.net.n = 600;
  spec.base.rounds = 30;
  spec.base.relay = true;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::Geographic,
                     core::Algorithm::PerigeeSubset, core::Algorithm::Ideal};
  return spec;
}

// Scenario grids (src/scenario): the conditions the paper's §6 leaves open,
// as first-class sweep axes. Sized so `--seeds 2` finishes CI-fast while the
// regime effects are still visible.

// Node churn: per-round leave/rejoin fractions from none to aggressive.
// Static baselines live through the same schedule but only rejoiners redial,
// so the grid shows Perigee's exploration-driven self-healing.
runner::SweepSpec churn_grid() {
  runner::SweepSpec spec;
  spec.name = "churn";
  spec.base.net.n = 200;
  spec.base.rounds = 12;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  spec.churn_rates = {0.0, 0.02, 0.05};
  return spec;
}

// Heterogeneous node capabilities (PODS-style tiers): bandwidth-only,
// validation-only, and the full datacenter mix with concentrated hash power.
runner::SweepSpec hetero_grid() {
  runner::SweepSpec spec;
  spec.name = "hetero";
  spec.base.net.n = 200;
  spec.base.rounds = 12;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  spec.hetero_profiles = {
      scenario::HeteroProfile::Off, scenario::HeteroProfile::Bandwidth,
      scenario::HeteroProfile::Validation, scenario::HeteroProfile::Datacenter};
  return spec;
}

// Adversarial withholding: sweep the fraction of never-forwarding nodes.
// Perigee's scoring disconnects them (§1 incentive compatibility); the
// random baseline keeps relaying into dead ends.
runner::SweepSpec adversary_grid() {
  runner::SweepSpec spec;
  spec.name = "adversary";
  spec.base.net.n = 200;
  spec.base.rounds = 12;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset};
  spec.withhold_fractions = {0.0, 0.05, 0.10, 0.20};
  return spec;
}

// Bandwidth congestion: delay-only vs the queued egress engine, with and
// without the two-tier bandwidth mix. Under "queue" + "bandwidth" the slow
// tier's token buckets throttle block serialization, so the grid shows how
// much of Perigee's advantage survives when links saturate (the analytic
// per-hop block term stays off under queue — the engine owns transmission;
// see docs/TRANSMISSION_MODEL.md).
runner::SweepSpec congestion_grid() {
  runner::SweepSpec spec;
  spec.name = "congestion";
  spec.base.net.n = 200;
  spec.base.rounds = 12;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset};
  spec.transmission_models = {scenario::TransmissionModel::Delay,
                              scenario::TransmissionModel::Queue};
  spec.hetero_profiles = {scenario::HeteroProfile::Off,
                          scenario::HeteroProfile::Bandwidth};
  return spec;
}

// CI-sized smoke grid: every adaptive variant on a small network.
runner::SweepSpec baseline() {
  runner::SweepSpec spec;
  spec.name = "baseline";
  spec.base.net.n = 200;
  spec.base.rounds = 10;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeVanilla,
                     core::Algorithm::PerigeeUcb, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  return spec;
}

constexpr Figure kFigures[] = {
    {"fig3a", "uniform hash power, all algorithms (n=1000)", fig3a},
    {"fig3b", "exponential hash power (n=600)", fig3b},
    {"fig4a", "validation-delay scale sweep", fig4a},
    {"fig4b", "mining pools with fast pool links", fig4b},
    {"fig4c", "fast relay overlay present", fig4c},
    {"churn", "node churn rate sweep (scenario)", churn_grid},
    {"hetero", "heterogeneous capability tiers (scenario)", hetero_grid},
    {"adversary", "withholding-fraction sweep (scenario)", adversary_grid},
    {"congestion", "delay vs queued egress engine (scenario)", congestion_grid},
    {"baseline", "CI-sized smoke grid (n=200)", baseline},
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("figure", "", "named grid (see --list)");
  flags.add_bool("list", false, "list named figure grids and exit");
  flags.add_string("name", "", "override sweep name (output file stem)");
  flags.add_string("algorithms", "",
                   "CSV algorithm axis, e.g. random,perigee-subset,ideal");
  flags.add_string("nodes", "", "CSV network-size axis");
  flags.add_string("rounds", "", "CSV learning-round axis");
  flags.add_string("hash", "", "CSV hash-model axis: uniform,exponential,pools");
  flags.add_string("vscales", "", "CSV validation-scale axis");
  flags.add_string("relay", "", "CSV relay axis: on,off");
  flags.add_string("churn", "", "CSV per-round churn-rate axis, e.g. 0,0.02");
  flags.add_string("hetero", "",
                   "CSV heterogeneity axis: off,bandwidth,validation,"
                   "datacenter");
  flags.add_string("withhold", "",
                   "CSV withholding-fraction axis, e.g. 0,0.1,0.2");
  flags.add_string("transmission", "",
                   "CSV transmission-model axis: delay (pure propagation) "
                   "and/or queue (token-bucket egress engine)");
  flags.add_int("seeds", 0, "repetitions per cell (0 = keep preset/default)");
  flags.add_int("seed", 1, "base seed");
  flags.add_double("coverage", 0.90, "hash-power coverage for lambda");
  flags.add_int("jobs", 0, "worker threads (0 = all hardware threads)");
  flags.add_string("json", "", "output path (default BENCH_<name>.json)");
  flags.add_string("checkpoint-dir", "",
                   "directory for per-job crash-safe checkpoints (default "
                   "<output path>.ckpt; 'none' disables checkpointing)");
  flags.add_bool("resume", false,
                 "load completed (cell, seed) jobs from the checkpoint "
                 "directory and run only the rest; the final JSON is "
                 "byte-identical to an uninterrupted run");
  flags.add_string("shard", "",
                   "i/k: run only shard i of a k-way split of the grid "
                   "(jobs round-robin by index; no coordination between "
                   "shard processes) and write "
                   "BENCH_<name>.shard<i>of<k>.json for --merge");
  flags.add_string("merge", "",
                   "CSV of k shard files to fold into the final "
                   "BENCH_<name>.json (runs no jobs; pass the same grid "
                   "flags as the shard runs — a fingerprint mismatch "
                   "aborts). Byte-identical to a single-process run");
  flags.add_bool("reuse-builds", true,
                 "build each distinct (topology axes, seed) scenario once "
                 "and clone it across cells that differ only in policy "
                 "axes (byte-identical either way; =false rebuilds per "
                 "cell)");
  flags.add_string("trace", "",
                   "write a Chrome trace_event JSON (chrome://tracing, "
                   "Perfetto, scripts/summarize_trace.py) of the sweep to "
                   "this path; requires a PERIGEE_TELEMETRY build");
  flags.add_bool("metrics", false,
                 "print the merged telemetry counter/histogram table to "
                 "stderr after the sweep");
  flags.add_bool("print-meta", false,
                 "print this binary's run metadata (build type, compiler, "
                 "git sha, ...) as JSON and exit");
  flags.add_bool("incremental-csr", true,
                 "patch CSR snapshots from the topology mutation journal "
                 "between rounds (--incremental-csr=false forces full "
                 "recompiles; results are byte-identical either way)");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.unknown().empty()) {
    for (const auto& arg : flags.unknown()) {
      std::cerr << "unknown argument '" << arg << "'\n";
    }
    std::cerr << "see --help for the flags perigee_sweep accepts\n";
    return 1;
  }

  if (flags.get_bool("list")) {
    for (const auto& figure : kFigures) {
      std::cout << figure.name << "\t" << figure.what << "\n";
    }
    return 0;
  }

  if (flags.get_bool("print-meta")) {
    const obs::RunMeta meta = obs::capture_run_meta();
    runner::JsonWriter writer(std::cout);
    writer.begin_object();
    obs::write_run_meta_fields(writer, meta);
    writer.end_object();
    std::cout << "\n";
    return 0;
  }

  const std::string& trace_path = flags.get_string("trace");
  if (!trace_path.empty()) {
    if (!obs::Tracer::instance().start(trace_path)) {
      std::cerr << "--trace requires a PERIGEE_TELEMETRY=ON build "
                   "(telemetry_compiled="
                << (obs::telemetry_compiled() ? "true" : "false") << ")\n";
      return 1;
    }
  }

  runner::SweepSpec spec;
  const std::string& figure_name = flags.get_string("figure");
  if (!figure_name.empty()) {
    bool found = false;
    for (const auto& figure : kFigures) {
      if (figure_name == figure.name) {
        spec = figure.make();
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "unknown figure '" << figure_name << "' (try --list)\n";
      return 1;
    }
  }
  // Default repetitions, applied after any figure preset so both preset and
  // custom grids get multi-seed curves unless --seeds overrides.
  spec.seeds = 2;

  // Axis overrides from flags.
  if (const auto& names = flags.get_string("algorithms"); !names.empty()) {
    spec.algorithms.clear();
    for (const auto& name : split_csv(names)) {
      const auto algorithm = core::algorithm_from_name(name);
      if (!algorithm) {
        std::cerr << "unknown algorithm '" << name << "'; known:";
        for (const auto a : core::all_algorithms()) {
          std::cerr << ' ' << core::algorithm_name(a);
        }
        std::cerr << "\n";
        return 1;
      }
      spec.algorithms.push_back(*algorithm);
    }
  }
  if (const auto& csv = flags.get_string("nodes"); !csv.empty()) {
    spec.nodes.clear();
    for (const auto& item : split_csv(csv)) {
      const auto v = parse_number(item);
      if (!v || *v < 2 || *v != static_cast<std::size_t>(*v)) {
        std::cerr << "bad --nodes value '" << item << "'\n";
        return 1;
      }
      spec.nodes.push_back(static_cast<std::size_t>(*v));
    }
  }
  if (const auto& csv = flags.get_string("rounds"); !csv.empty()) {
    spec.rounds.clear();
    for (const auto& item : split_csv(csv)) {
      const auto v = parse_number(item);
      if (!v || *v < 0 || *v != static_cast<int>(*v)) {
        std::cerr << "bad --rounds value '" << item << "'\n";
        return 1;
      }
      spec.rounds.push_back(static_cast<int>(*v));
    }
  }
  if (const auto& csv = flags.get_string("hash"); !csv.empty()) {
    spec.hash_models.clear();
    for (const auto& item : split_csv(csv)) {
      const auto model = mining::hash_model_from_name(item);
      if (!model) {
        std::cerr << "unknown hash model '" << item
                  << "' (uniform, exponential, pools)\n";
        return 1;
      }
      spec.hash_models.push_back(*model);
    }
  }
  if (const auto& csv = flags.get_string("vscales"); !csv.empty()) {
    spec.validation_scales.clear();
    for (const auto& item : split_csv(csv)) {
      const auto v = parse_number(item);
      if (!v || *v <= 0) {
        std::cerr << "bad --vscales value '" << item << "'\n";
        return 1;
      }
      spec.validation_scales.push_back(*v);
    }
  }
  if (const auto& csv = flags.get_string("relay"); !csv.empty()) {
    spec.relay.clear();
    for (const auto& item : split_csv(csv)) {
      if (item != "on" && item != "off") {
        std::cerr << "relay axis values are 'on' and 'off'\n";
        return 1;
      }
      spec.relay.push_back(item == "on");
    }
  }
  if (const auto& csv = flags.get_string("churn"); !csv.empty()) {
    spec.churn_rates.clear();
    for (const auto& item : split_csv(csv)) {
      const auto v = parse_number(item);
      if (!v || *v < 0 || *v > 1) {
        std::cerr << "bad --churn value '" << item << "' (want [0, 1])\n";
        return 1;
      }
      spec.churn_rates.push_back(*v);
    }
  }
  if (const auto& csv = flags.get_string("hetero"); !csv.empty()) {
    spec.hetero_profiles.clear();
    for (const auto& item : split_csv(csv)) {
      const auto profile = scenario::hetero_profile_from_name(item);
      if (!profile) {
        std::cerr << "unknown hetero profile '" << item
                  << "' (off, bandwidth, validation, datacenter)\n";
        return 1;
      }
      spec.hetero_profiles.push_back(*profile);
    }
  }
  if (const auto& csv = flags.get_string("withhold"); !csv.empty()) {
    spec.withhold_fractions.clear();
    for (const auto& item : split_csv(csv)) {
      const auto v = parse_number(item);
      if (!v || *v < 0 || *v >= 1) {
        std::cerr << "bad --withhold value '" << item << "' (want [0, 1))\n";
        return 1;
      }
      spec.withhold_fractions.push_back(*v);
    }
  }
  if (const auto& csv = flags.get_string("transmission"); !csv.empty()) {
    spec.transmission_models.clear();
    for (const auto& item : split_csv(csv)) {
      const auto model = scenario::transmission_model_from_name(item);
      if (!model) {
        std::cerr << "unknown transmission model '" << item
                  << "' (delay, queue)\n";
        return 1;
      }
      spec.transmission_models.push_back(*model);
    }
  }
  if (const auto seeds = static_cast<int>(flags.get_int("seeds")); seeds > 0) {
    spec.seeds = seeds;
  }
  spec.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  spec.base.coverage = flags.get_double("coverage");
  // Wall-clock A/B switch, not a grid axis: cell results and the JSON are
  // byte-identical at either setting.
  spec.base.incremental_csr = flags.get_bool("incremental-csr");
  if (const auto& name = flags.get_string("name"); !name.empty()) {
    spec.name = name;
  }

  // --merge: fold k shard outputs into the final file. No jobs run; the
  // merged JSON is byte-identical to a single-process run of the same grid.
  if (const auto& csv = flags.get_string("merge"); !csv.empty()) {
    const std::vector<std::string> shard_paths = split_csv(csv);
    runner::SweepResult merged;
    try {
      merged = runner::merge_shards(spec, shard_paths);
    } catch (const std::exception& e) {
      std::cerr << "merge failed: " << e.what() << "\n";
      return 1;
    }
    const obs::RunMeta meta = obs::capture_run_meta();
    std::string path = flags.get_string("json");
    if (path.empty()) path = runner::default_json_path(spec);
    if (!runner::write_json_file(path, spec, merged, &meta)) {
      std::cerr << "cannot write " << path
                << " (shard files are untouched; rerun --merge after fixing "
                   "the destination)\n";
      return 1;
    }
    std::cerr << "merged " << shard_paths.size() << " shards into " << path
              << "\n";
    return 0;
  }

  int shard_index = 0;
  int shard_count = 1;
  if (const auto& text = flags.get_string("shard"); !text.empty()) {
    const std::size_t slash = text.find('/');
    const auto i = slash == std::string::npos
                       ? std::nullopt
                       : parse_number(text.substr(0, slash));
    const auto k = slash == std::string::npos
                       ? std::nullopt
                       : parse_number(text.substr(slash + 1));
    if (!i || !k || *k < 1 || *i < 0 || *i >= *k ||
        *i != static_cast<int>(*i) || *k != static_cast<int>(*k)) {
      std::cerr << "bad --shard '" << text << "' (want i/k with 0 <= i < k)\n";
      return 1;
    }
    shard_index = static_cast<int>(*i);
    shard_count = static_cast<int>(*k);
  }

  // The output path anchors the default checkpoint directory, so shard
  // processes sharing a working directory never collide.
  std::string path = flags.get_string("json");
  if (path.empty()) {
    path = shard_count > 1
               ? runner::default_shard_path(spec, shard_index, shard_count)
               : runner::default_json_path(spec);
  }

  runner::SweepOptions options;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  options.resume = flags.get_bool("resume");
  options.reuse_builds = flags.get_bool("reuse-builds");
  options.checkpoint_dir = flags.get_string("checkpoint-dir");
  if (options.checkpoint_dir.empty()) options.checkpoint_dir = path + ".ckpt";
  if (options.checkpoint_dir == "none") options.checkpoint_dir.clear();
  if (options.resume && options.checkpoint_dir.empty()) {
    std::cerr << "--resume needs a checkpoint directory\n";
    return 1;
  }

  const runner::SweepRunner sweep_runner(
      static_cast<int>(flags.get_int("jobs")));
  std::size_t cell_count = 0;
  try {
    cell_count = runner::expand_grid(spec).size();
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad grid: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "sweep '" << spec.name << "': " << cell_count << " cells x "
            << spec.seeds << " seeds on " << sweep_runner.workers()
            << " workers";
  if (shard_count > 1) {
    std::cerr << " (shard " << shard_index << "/" << shard_count << ")";
  }
  std::cerr << "\n";

  // The runner reports completions from worker threads concurrently;
  // ProgressPrinter serializes the stream writes (a bare cerr << "\r..."
  // here used to interleave partial lines under load).
  runner::ProgressPrinter progress(std::cerr, "jobs ");
  runner::SweepResult result;
  runner::ShardFile shard;
  try {
    if (shard_count > 1) {
      shard.shard_index = shard_index;
      shard.shard_count = shard_count;
      shard.slots = sweep_runner.run_slots(spec, options, std::ref(progress));
    } else {
      result = sweep_runner.run(spec, options, std::ref(progress));
    }
    progress.finish();
  } catch (const std::exception& e) {
    progress.finish();
    std::cerr << "sweep failed: " << e.what() << "\n";
    return 1;
  }

  if (shard_count > 1) {
    if (!runner::write_shard_file(path, runner::grid_fingerprint(spec),
                                  shard)) {
      std::cerr << "cannot write " << path << "\n";
      if (!options.checkpoint_dir.empty()) {
        std::cerr << "completed jobs are checkpointed in "
                  << options.checkpoint_dir
                  << "; rerun with --resume to re-emit without recomputing\n";
      }
      return 1;
    }
    std::cerr << "wrote " << path << " (" << shard.slots.size()
              << " of " << cell_count * static_cast<std::size_t>(spec.seeds)
              << " jobs; merge all " << shard_count
              << " shard files with --merge)\n";
    // The shard file now holds everything the checkpoints held.
    if (!options.checkpoint_dir.empty()) {
      runner::CheckpointStore(options.checkpoint_dir, "").remove_all();
    }
    return 0;
  }

  // Terminal summary: sorted-λ means at the paper's error-bar indices.
  if (!result.cells.empty()) {
    const std::size_t n = result.cells.front().curve.mean.size();
    std::vector<std::string> header = {"cell"};
    for (const std::size_t idx : metrics::errorbar_indices(n)) {
      header.push_back("node " + std::to_string(idx));
    }
    header.push_back("mean");
    util::Table table(header);
    for (const auto& cell : result.cells) {
      std::vector<std::string> row = {cell.cell.label};
      if (cell.curve.mean.size() == n) {
        for (const std::size_t idx : metrics::errorbar_indices(n)) {
          row.push_back(util::fmt(cell.curve.mean[idx]));
        }
      } else {
        // Mixed-n grids: per-cell indices differ, show the mean only.
        for (std::size_t i = 0; i < metrics::errorbar_indices(n).size(); ++i) {
          row.push_back("-");
        }
      }
      row.push_back(util::fmt(metrics::curve_mean(cell.curve)));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  // Provenance rides in a separate top-level `meta` member; the curve cells
  // above it stay byte-identical across telemetry settings and --jobs (CI
  // strips `meta` before diffing).
  const obs::RunMeta meta = obs::capture_run_meta();
  if (!runner::write_json_file(path, spec, result, &meta)) {
    // An unwritable destination must not discard hours of computed cells:
    // the per-job checkpoints survive, so a --resume rerun re-emits the
    // identical file from disk without recomputing anything.
    std::cerr << "cannot write " << path << "\n";
    if (!options.checkpoint_dir.empty()) {
      std::cerr << "completed jobs are checkpointed in "
                << options.checkpoint_dir
                << "; fix the destination and rerun with --resume to re-emit "
                   "without recomputing\n";
    }
    return 1;
  }
  std::cerr << "wrote " << path << "\n";
  // The result file now holds everything the checkpoints held.
  if (!options.checkpoint_dir.empty()) {
    runner::CheckpointStore(options.checkpoint_dir, "").remove_all();
  }

  if (!trace_path.empty()) {
    if (!obs::Tracer::instance().finish()) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    std::cerr << "wrote " << trace_path << "\n";
  }
  if (flags.get_bool("metrics")) {
    const obs::MetricsSnapshot snapshot = obs::Registry::instance().scrape();
    std::cerr << "telemetry counters"
              << (obs::telemetry_compiled() ? ":" : " (compiled out):")
              << "\n";
    for (const auto& [name, value] : snapshot.counters) {
      std::cerr << "  " << name << " = " << value << "\n";
    }
    for (const auto& [name, hist] : snapshot.histograms) {
      std::cerr << "  " << name << " count=" << hist.count
                << " sum=" << hist.sum << "\n";
    }
  }
  return 0;
}
