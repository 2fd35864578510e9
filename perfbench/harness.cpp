#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/perigee.hpp"
#include "metrics/edge_hist.hpp"
#include "metrics/eval.hpp"
#include "net/csr.hpp"
#include "runner/checkpoint.hpp"
#include "runner/thread_pool.hpp"
#include "scenario/driver.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "sim/rounds.hpp"

namespace perfbench {
namespace {

using namespace perigee;
using Clock = std::chrono::steady_clock;

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Index into LayerTotals::select_* for the adaptive algorithms, -1 for the
// static baselines.
int selector_slot(core::Algorithm algorithm) {
  switch (algorithm) {
    case core::Algorithm::PerigeeUcb:
      return 0;
    case core::Algorithm::PerigeeSubset:
      return 1;
    case core::Algorithm::PerigeeVanilla:
      return 2;
    default:
      return -1;
  }
}

// What one job measured; merged into LayerTotals in job order.
struct JobTrace {
  int slot = -1;  // selector_slot of the job's algorithm
  double job_s = 0;
  double build_ms = 0, churn_ms = 0, initial_ms = 0;
  double csr_refresh_ms = 0, round_csr_ms = 0, csr_compile_ms = 0;
  std::vector<double> round_ms;
  double broadcast_ms = 0, observe_ms = 0;
  std::uint64_t blocks = 0;
  double select_ms = 0;
  std::vector<std::uint32_t> select_ns;
  std::uint64_t select_calls = 0, mutations = 0;
  double eval_ms = 0, ideal_ms = 0;
  std::uint64_t eval_sources = 0, ideal_sources = 0;
};

// Within-round markers, reset by the pre-round hook.
struct RoundMarks {
  Clock::time_point hook_end, first_block, first_select;
  bool block_seen = false;
  bool select_seen = false;
};

// Times every on_round_end of the wrapped policy and the topology
// mutations it makes; everything else is forwarded untouched.
class TimedSelector final : public sim::NeighborSelector {
 public:
  TimedSelector(std::unique_ptr<sim::NeighborSelector> inner, JobTrace& trace,
                RoundMarks& marks)
      : inner_(std::move(inner)), trace_(trace), marks_(marks) {}

  void on_round_end(net::NodeId self, sim::RoundContext& ctx) override {
    const std::uint64_t before = ctx.topology.version();
    const Clock::time_point t0 = Clock::now();
    if (!marks_.select_seen) {
      marks_.select_seen = true;
      marks_.first_select = t0;
    }
    inner_->on_round_end(self, ctx);
    const Clock::duration d = Clock::now() - t0;
    trace_.select_ms += ms(d);
    if (trace_.slot >= 0) {
      trace_.select_ns.push_back(static_cast<std::uint32_t>(std::min<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
          UINT32_MAX)));
      trace_.mutations += ctx.topology.version() - before;
      ++trace_.select_calls;
    }
  }
  void on_reset(net::NodeId self) override { inner_->on_reset(self); }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::NeighborSelector> inner_;
  JobTrace& trace_;
  RoundMarks& marks_;
};

// The experiment's λ engine, as core::run_experiment sets it up: delay-only
// batched relaxation, or the egress DES under the queued regime.
struct EvalEngine {
  sim::MultiSourceScratch scratch;
  std::optional<sim::EgressConfig> egress;
  sim::EgressPlanCache plans;
  sim::EgressScratch egress_scratch;

  explicit EvalEngine(const core::ExperimentConfig& config) {
    const scenario::TransmissionRegime& regime = config.scenario.transmission;
    if (regime.enabled()) {
      sim::EgressConfig c;
      c.block_bytes = regime.block_kb * 1000.0;
      c.control_bytes = regime.control_kb * 1000.0;
      c.compact_blocks = regime.compact_blocks;
      c.rate_scale = regime.rate_scale;
      c.burst_bytes = regime.burst_kb * 1000.0;
      egress = c;
    }
  }

  std::vector<double> lambda(const net::CsrTopology& csr,
                             const net::Network& network, double coverage) {
    if (egress.has_value()) {
      return metrics::eval_all_sources_egress(
          csr, network, *egress, plans.get(network, *egress), coverage,
          &egress_scratch, nullptr);
    }
    return metrics::eval_all_sources(csr, network, coverage, &scratch,
                                     nullptr);
  }
};

void evaluate(const core::ExperimentConfig& config, const net::CsrTopology& csr,
              const net::Network& network, EvalEngine& eval, JobTrace& t,
              runner::SlotCurves& out) {
  const Clock::time_point t0 = Clock::now();
  out.lambda = eval.lambda(csr, network, config.coverage);
  out.lambda50 = eval.lambda(csr, network, 0.50);
  t.eval_ms += ms(Clock::now() - t0);
  t.eval_sources += 2 * network.size();
}

// core::run_cell_curves for one job, with every layer call timed.
void trace_job(const core::ExperimentConfig& config,
               const core::Scenario* prebuilt, JobTrace& t,
               runner::SlotCurves& out) {
  // Mirrored here: the regimes the workloads use. The others would make
  // run_experiment take paths this function does not reproduce.
  if (config.partial_view || config.message_level || config.checkpoints > 0 ||
      config.engine_jobs != 1) {
    throw std::invalid_argument(
        "traced harness: partial views, message-level gossip, checkpoints "
        "and engine jobs are not mirrored");
  }
  t.slot = selector_slot(config.algorithm);
  if (config.algorithm == core::Algorithm::Ideal) {
    // The bound reads the shared build directly, never a clone.
    std::optional<core::Scenario> own;
    if (prebuilt == nullptr) {
      const Clock::time_point t0 = Clock::now();
      own.emplace(core::build_scenario(config));
      t.build_ms += ms(Clock::now() - t0);
      prebuilt = &*own;
    }
    const Clock::time_point t0 = Clock::now();
    auto multi = metrics::eval_ideal_multi(
        prebuilt->network, {config.coverage, 0.50}, &prebuilt->topology);
    t.ideal_ms += ms(Clock::now() - t0);
    t.ideal_sources += prebuilt->network.size();
    out.lambda = std::move(multi[0]);
    out.lambda50 = std::move(multi[1]);
    return;
  }

  Clock::time_point t0 = Clock::now();
  core::Scenario scenario = prebuilt != nullptr
                                ? core::clone_scenario(*prebuilt)
                                : core::build_scenario(config);
  t.build_ms += ms(Clock::now() - t0);
  t0 = Clock::now();
  core::build_initial_topology(config, scenario);
  t.initial_ms += ms(Clock::now() - t0);

  EvalEngine eval(config);
  if (core::is_adaptive(config.algorithm) || config.scenario.churn.enabled()) {
    // The schedule core::run_experiment derives (see there).
    const bool ucb = config.algorithm == core::Algorithm::PerigeeUcb;
    const int total_rounds =
        ucb ? config.rounds * config.blocks_per_round : config.rounds;
    const int blocks_per_round = ucb || !core::is_adaptive(config.algorithm)
                                     ? 1
                                     : config.blocks_per_round;

    RoundMarks marks;
    auto selectors = core::make_selectors(scenario.network.size(),
                                          config.algorithm, config.params);
    for (auto& s : selectors) {
      s = std::make_unique<TimedSelector>(std::move(s), t, marks);
    }
    sim::RoundRunner runner(scenario.network, scenario.topology,
                            std::move(selectors), blocks_per_round,
                            config.seed, sim::RoundRunner::Engine::Fast);
    runner.set_thread_pool(nullptr);
    runner.set_csr_patching(config.incremental_csr);
    runner.set_relax_engine(config.relax_engine);
    runner.set_transmission(eval.egress);

    std::unique_ptr<scenario::ChurnDriver> churn;
    if (config.scenario.churn.enabled()) {
      const auto rounds_per_epoch =
          ucb ? static_cast<std::size_t>(config.blocks_per_round) : 1u;
      churn = std::make_unique<scenario::ChurnDriver>(
          config.scenario.churn, scenario.topology, scenario.network,
          config.seed, nullptr, config.addrman_bootstrap, rounds_per_epoch);
    }
    // The hook runs the churn schedule exactly as run_experiment's does,
    // then refreshes the round's CSR snapshot itself: the round's own
    // cache lookup that follows is a hit, so the refresh is timed without
    // adding or moving any work.
    runner.set_pre_round_hook([&](std::size_t round) {
      const Clock::time_point h0 = Clock::now();
      if (churn) {
        if (churn->before_round(round)) runner.refresh_hash_power();
        for (const net::NodeId v : churn->last_rejoined()) {
          runner.reset_selector(v);
        }
      }
      const Clock::time_point h1 = Clock::now();
      runner.current_csr();
      marks.hook_end = Clock::now();
      marks.block_seen = false;
      marks.select_seen = false;
      t.churn_ms += ms(h1 - h0);
      t.round_csr_ms += ms(marks.hook_end - h1);
    });
    runner.set_block_hook([&](const sim::BroadcastResult&) {
      if (!marks.block_seen) {
        marks.block_seen = true;
        marks.first_block = Clock::now();
      }
    });

    t.round_ms.reserve(static_cast<std::size_t>(total_rounds));
    if (t.slot >= 0) {
      t.select_ns.reserve(static_cast<std::size_t>(total_rounds) *
                          scenario.network.size());
    }
    for (int r = 0; r < total_rounds; ++r) {
      t0 = Clock::now();
      runner.run_round();
      t.round_ms.push_back(ms(Clock::now() - t0));
      t.broadcast_ms += ms(marks.first_block - marks.hook_end);
      t.observe_ms += ms(marks.first_select - marks.first_block);
    }
    t.blocks += static_cast<std::uint64_t>(total_rounds) *
                static_cast<std::uint64_t>(blocks_per_round);

    t0 = Clock::now();
    const net::CsrTopology& csr = runner.current_csr();
    t.csr_refresh_ms += ms(Clock::now() - t0);
    evaluate(config, csr, scenario.network, eval, t, out);
  } else {
    t0 = Clock::now();
    const net::CsrTopology csr =
        net::CsrTopology::build(scenario.topology, scenario.network);
    t.csr_compile_ms += ms(Clock::now() - t0);
    evaluate(config, csr, scenario.network, eval, t, out);
  }
  // run_experiment also extracts the final edge latencies; keep the work.
  const auto edges =
      metrics::p2p_edge_latencies(scenario.topology, scenario.network);
  (void)edges;
}

void merge(LayerTotals& totals, const JobTrace& t) {
  totals.job_s_sum += t.job_s;
  totals.critical_job_s = std::max(totals.critical_job_s, t.job_s);
  totals.build_ms += t.build_ms;
  totals.churn_ms += t.churn_ms;
  totals.initial_ms += t.initial_ms;
  totals.csr_refresh_ms += t.csr_refresh_ms + t.round_csr_ms;
  totals.round_csr_ms += t.round_csr_ms;
  totals.csr_compile_ms += t.csr_compile_ms;
  for (const double r : t.round_ms) totals.round_ms_sum += r;
  totals.round_ms.insert(totals.round_ms.end(), t.round_ms.begin(),
                         t.round_ms.end());
  totals.broadcast_ms += t.broadcast_ms;
  totals.observe_ms += t.observe_ms;
  totals.blocks += t.blocks;
  if (t.slot >= 0) {
    const auto s = static_cast<std::size_t>(t.slot);
    totals.select_ms[s] += t.select_ms;
    totals.select_ns[s].insert(totals.select_ns[s].end(), t.select_ns.begin(),
                               t.select_ns.end());
  } else {
    totals.static_select_ms += t.select_ms;
  }
  totals.select_calls += t.select_calls;
  totals.mutations += t.mutations;
  totals.eval_ms += t.eval_ms;
  totals.eval_sources += t.eval_sources;
  totals.ideal_ms += t.ideal_ms;
  totals.ideal_sources += t.ideal_sources;
}

// Nearest-rank percentile; 0 for an empty sample.
template <typename T>
double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return static_cast<double>(values[k]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

TracedRun run_traced(const runner::SweepSpec& spec, unsigned workers) {
  const std::vector<runner::SweepCell> cells = runner::expand_grid(spec);
  const auto seeds = static_cast<std::size_t>(spec.seeds);
  const std::size_t jobs_total = cells.size() * seeds;

  // The build-reuse groups of SweepRunner::run_slots (reuse_builds on):
  // jobs with one scenario signature share a master build; the first job
  // builds it, the others clone, the last one frees it.
  struct BuildGroup {
    std::once_flag once;
    std::shared_ptr<const core::Scenario> scenario;
    std::atomic<std::size_t> remaining{0};
  };
  std::vector<std::unique_ptr<BuildGroup>> groups;
  std::vector<BuildGroup*> group_of(jobs_total, nullptr);
  std::map<std::string, std::vector<std::size_t>> by_signature;
  for (std::size_t j = 0; j < jobs_total; ++j) {
    core::ExperimentConfig config = cells[j / seeds].config;
    config.seed += static_cast<std::uint64_t>(j % seeds);
    by_signature[runner::scenario_signature(config)].push_back(j);
  }
  for (auto& [signature, members] : by_signature) {
    if (members.size() < 2) continue;
    auto group = std::make_unique<BuildGroup>();
    group->remaining.store(members.size(), std::memory_order_relaxed);
    for (const std::size_t j : members) group_of[j] = group.get();
    groups.push_back(std::move(group));
  }

  TracedRun run;
  run.slots.resize(jobs_total);
  std::vector<JobTrace> traces(jobs_total);
  const Clock::time_point start = Clock::now();
  {
    runner::ThreadPool pool(workers);
    for (std::size_t j = 0; j < jobs_total; ++j) {
      pool.submit([&, j] {
        const Clock::time_point job_start = Clock::now();
        const std::size_t c = j / seeds;
        const std::size_t s = j % seeds;
        core::ExperimentConfig config = cells[c].config;
        config.seed += static_cast<std::uint64_t>(s);
        JobTrace& t = traces[j];
        BuildGroup* group = group_of[j];
        std::shared_ptr<const core::Scenario> prebuilt;
        if (group != nullptr) {
          std::call_once(group->once, [&] {
            const Clock::time_point t0 = Clock::now();
            group->scenario = std::make_shared<const core::Scenario>(
                core::build_scenario(config));
            t.build_ms += ms(Clock::now() - t0);
          });
          prebuilt = group->scenario;
        }
        run.slots[j].cell = c;
        run.slots[j].seed = s;
        trace_job(config, prebuilt.get(), t, run.slots[j]);
        if (group != nullptr &&
            group->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          group->scenario.reset();
        }
        t.job_s = std::chrono::duration<double>(Clock::now() - job_start)
                      .count();
      });
    }
    pool.wait();
  }
  run.totals.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  run.totals.workers = workers;
  for (JobTrace& t : traces) merge(run.totals, t);
  return run;
}

std::size_t count_mismatches(const std::vector<runner::SlotCurves>& traced,
                             const std::vector<runner::SlotCurves>& reference) {
  std::map<std::pair<std::size_t, std::size_t>, const runner::SlotCurves*> ref;
  for (const auto& slot : reference) ref[{slot.cell, slot.seed}] = &slot;
  const auto same_bytes = [](const std::vector<double>& a,
                             const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  std::size_t mismatched = 0;
  for (const auto& slot : traced) {
    const auto it = ref.find({slot.cell, slot.seed});
    if (it == ref.end() || !same_bytes(slot.lambda, it->second->lambda) ||
        !same_bytes(slot.lambda50, it->second->lambda50)) {
      ++mismatched;
    }
  }
  return mismatched;
}

std::vector<std::pair<std::string, double>> layer_metrics(
    const LayerTotals& t, const obs::MetricsSnapshot& counters) {
  const auto count = [&](const char* name) {
    return static_cast<double>(counters.counter(name));
  };
  double select_all = t.static_select_ms;
  for (const double s : t.select_ms) select_all += s;
  // Round time the splits cover: churn and the round's CSR refresh run in
  // its pre-round hook, then the batch, the observation replay and the
  // selector calls. The rest (shuffle, loop overhead) is unattributed.
  const double covered = t.churn_ms + t.round_csr_ms + t.broadcast_ms +
                         t.observe_ms + select_all;

  std::vector<std::pair<std::string, double>> m = {
      {"runner.critical_job_s", t.critical_job_s},
      {"runner.busy_frac",
       ratio(t.job_s_sum, static_cast<double>(t.workers) * t.wall_s)},
      {"scenario.build_ms", t.build_ms},
      {"scenario.churn_ms", t.churn_ms},
      {"topo.initial_ms", t.initial_ms},
      {"net.csr_refresh_ms", t.csr_refresh_ms},
      {"net.csr.patches", count("csr.cache.patches")},
      {"net.csr.rebuilds", count("csr.cache.rebuilds")},
      {"net.csr_compile_ms", t.csr_compile_ms},
      {"sim.round_ms.p50", percentile(t.round_ms, 0.50)},
      {"sim.round_ms.p99", percentile(t.round_ms, 0.99)},
      {"sim.rounds", static_cast<double>(t.round_ms.size())},
      {"sim.broadcast_ms", t.broadcast_ms},
      {"sim.broadcast_us_per_block",
       ratio(t.broadcast_ms * 1000.0, static_cast<double>(t.blocks))},
      {"sim.observe_ms", t.observe_ms},
      {"sim.unattributed_frac",
       t.round_ms_sum > 0
           ? std::max(0.0, t.round_ms_sum - covered) / t.round_ms_sum
           : 0},
      {"sim.egress_events", count("egress.events")},
      {"sim.bucket_pops", count("engine.bucket.pops")},
  };
  static constexpr const char* kSelectors[3] = {"ucb", "subset", "vanilla"};
  for (std::size_t s = 0; s < 3; ++s) {
    m.emplace_back(std::string("core.select_ms.") + kSelectors[s],
                   t.select_ms[s]);
  }
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string base =
        std::string("core.select_ns_per_call.") + kSelectors[s];
    m.emplace_back(base + ".p50", percentile(t.select_ns[s], 0.50));
    m.emplace_back(base + ".p99", percentile(t.select_ns[s], 0.99));
  }
  m.emplace_back("core.mutations_per_call",
                 ratio(static_cast<double>(t.mutations),
                       static_cast<double>(t.select_calls)));
  m.emplace_back("metrics.eval_ms", t.eval_ms);
  m.emplace_back("metrics.eval_sources", static_cast<double>(t.eval_sources));
  m.emplace_back("metrics.eval_us_per_source",
                 ratio(t.eval_ms * 1000.0, static_cast<double>(t.eval_sources)));
  m.emplace_back("metrics.ideal_ms", t.ideal_ms);
  m.emplace_back("metrics.ideal_us_per_source",
                 ratio(t.ideal_ms * 1000.0,
                       static_cast<double>(t.ideal_sources)));
  return m;
}

}  // namespace perfbench
