// paper_grid: the evaluation behind Figs 7-15 on the figure benches'
// default machine (scaled(16)) and schedule (1.5 M-cycle execution
// epochs, 40 k-cycle sampling intervals). The simulator is nearly all
// of the host time here, so op generation and the cache/prefetcher
// kernels show.
#include <cmath>
#include <exception>
#include <memory>

#include "analysis/run_harness.hpp"
#include "analysis/solo_cache.hpp"
#include "analysis/speedup_metrics.hpp"
#include "common/parallel.hpp"
#include "core/epoch_driver.hpp"
#include "workloads.hpp"
#include "workloads/workload_mix.hpp"

namespace perfbench {

using namespace cmm;

namespace {

constexpr unsigned kMixesPerCategory = 1;
// The mix composition is part of the workload: the figure benches' mixes
// (their default seed). The run's seed drives every random stream.
constexpr std::uint64_t kMixSeed = 42;
// Timed passes run their jobs one at a time. Jobs co-running on every
// vCPU of a shared host slow each other by an amount that changes from
// run to run: at four worker threads the mean job time of ten-seed sets
// spread three times as much as at one.
constexpr unsigned kPassThreads = 1;

struct Grid {
  analysis::RunParams params;
  std::vector<workloads::WorkloadMix> mixes;
  std::vector<std::string> policies;  // "baseline" first, then the mechanisms
  std::vector<std::string> solos;     // distinct benchmarks, first-use order

  std::size_t mix_jobs() const { return mixes.size() * policies.size(); }
  std::size_t jobs() const { return mix_jobs() + solos.size(); }
  const workloads::WorkloadMix& mix_of(std::size_t job) const {
    return mixes[job / policies.size()];
  }
  const std::string& policy_of(std::size_t job) const { return policies[job % policies.size()]; }
};

Grid make_grid(std::uint64_t seed) {
  Grid g;
  g.params.machine = sim::MachineConfig::scaled(16);
  g.params.warmup_cycles = 3'000'000;
  g.params.run_cycles = 4'500'000;  // three whole execution epochs
  g.params.epochs.execution_epoch = 1'500'000;
  g.params.epochs.sampling_interval = 40'000;
  g.params.seed = seed;
  g.mixes = workloads::paper_workloads(g.params.machine.num_cores, kMixSeed, kMixesPerCategory);
  g.policies.push_back("baseline");
  for (const auto& m : analysis::mechanism_names()) g.policies.push_back(m);
  for (const auto& mix : g.mixes) {
    for (const auto& b : mix.benchmarks) {
      if (std::find(g.solos.begin(), g.solos.end(), b) == g.solos.end()) g.solos.push_back(b);
    }
  }
  return g;
}

/// Everything the grid builds before its first simulated cycle: the
/// mixes from the seed, then per mix job the system, its op sources,
/// the policy and the driver (what run_mix does before driver.run).
Grid set_up(std::uint64_t seed) {
  Grid g = make_grid(seed);
  for (std::size_t i = 0; i < g.mix_jobs(); ++i) {
    sim::MulticoreSystem system(g.params.machine);
    workloads::attach_mix(system, g.mix_of(i), g.params.seed);
    const auto policy = analysis::make_policy(g.policy_of(i), g.params.detector());
    core::EpochDriver driver(system, *policy, g.params.epochs);
  }
  return g;
}

struct Rep {
  std::vector<analysis::RunResult> results;
  std::vector<double> ms;
  std::vector<std::string> errors;
  analysis::BatchStats batch;
  std::vector<LayerTimes> layers;  // traced reps only
};

std::vector<std::size_t> all_jobs(const Grid& g) {
  std::vector<std::size_t> jobs(g.jobs());
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i] = i;
  return jobs;
}

/// Runs the listed jobs of the grid (a pass runs them all). Each job is
/// timed on its own; a throwing job is recorded, not propagated, so one
/// failure cannot hide the rest.
Rep run_rep(const Grid& g, const std::vector<std::size_t>& jobs, unsigned threads, bool traced) {
  analysis::SoloRunCache::global().clear();
  Rep rep;
  const std::size_t n = g.jobs();
  rep.results.resize(n);
  rep.ms.resize(n);
  rep.errors.resize(n);
  if (traced) rep.layers.resize(n);
  analysis::BatchOptions opts;
  opts.threads = threads;
  rep.batch = analysis::run_batch(
      jobs.size(),
      [&](std::size_t k) {
        const std::size_t i = jobs[k];
        const auto t0 = Clock::now();
        try {
          if (i < g.mix_jobs()) {
            if (traced) {
              rep.results[i] = traced_run_mix(g.mix_of(i), g.policy_of(i), g.params, rep.layers[i]);
            } else {
              const auto policy = analysis::make_policy(g.policy_of(i), g.params.detector());
              rep.results[i] = analysis::run_mix(g.mix_of(i), *policy, g.params);
            }
          } else {
            rep.results[i] =
                *analysis::run_solo_cached(g.solos[i - g.mix_jobs()], g.params, /*prefetch_on=*/true);
          }
        } catch (const std::exception& e) {
          rep.errors[i] = e.what();
        }
        rep.ms[i] = seconds_between(t0, Clock::now()) * 1e3;
      },
      opts);
  return rep;
}

std::string job_name(const Grid& g, std::size_t i) {
  if (i < g.mix_jobs()) return g.mix_of(i).name + "/" + g.policy_of(i);
  return "solo/" + g.solos[i - g.mix_jobs()];
}

/// Per-job correctness: the job ran, produced one stats row per core,
/// and every core's counters keep the L2 request >= miss invariants.
std::string job_error(const Grid& g, const Rep& rep, std::size_t i) {
  if (!rep.errors[i].empty()) return rep.errors[i];
  const auto& r = rep.results[i];
  const std::size_t cores = i < g.mix_jobs() ? g.params.machine.num_cores : 1;
  if (r.cores.size() != cores) return "wrong core count";
  for (const auto& c : r.cores) {
    if (auto v = counter_violation(c.counters); !v.empty()) return v;
    if (!(c.ipc > 0.0) || !std::isfinite(c.ipc)) return "non-positive IPC";
  }
  return {};
}

std::string digest_of(const Rep& rep, const std::vector<std::size_t>& jobs) {
  Digest d;
  for (const std::size_t i : jobs) d.add(rep.results[i]);
  return d.hex();
}

/// Fig 11 / Fig 12 projections: mean normalized HS and mean worst-case
/// per-app speedup of cmm_a/b/c over baseline.
void add_model(const Grid& g, const Rep& rep, Outcome& out) {
  std::map<std::string, double> alone;
  for (std::size_t s = 0; s < g.solos.size(); ++s) {
    const auto& r = rep.results[g.mix_jobs() + s];
    alone[g.solos[s]] = r.cores.empty() ? 0.0 : r.cores.front().ipc;
  }
  auto hs = [&](const analysis::RunResult& r) {
    std::vector<double> together, solo;
    for (const auto& c : r.cores) {
      together.push_back(c.ipc);
      solo.push_back(alone[c.benchmark]);
    }
    return analysis::harmonic_speedup(together, solo);
  };
  std::vector<double> hs_norm, worst;
  const std::size_t np = g.policies.size();
  for (std::size_t m = 0; m < g.mixes.size(); ++m) {
    const auto& base = rep.results[m * np];
    for (std::size_t p = 0; p < np; ++p) {
      const auto& name = g.policies[p];
      if (name != "cmm_a" && name != "cmm_b" && name != "cmm_c") continue;
      const auto& r = rep.results[m * np + p];
      const double hb = hs(base);
      hs_norm.push_back(hb > 0.0 ? hs(r) / hb : 0.0);
      worst.push_back(analysis::worst_case_speedup(r.ipcs(), base.ipcs()));
    }
  }
  out.model["hs_norm"] = analysis::mean(hs_norm);
  out.model["worst_speedup"] = analysis::mean(worst);
  out.model_score = "hs_norm";
}

void account(const Grid& g, const Rep& rep, Outcome& out) {
  for (std::size_t i = 0; i < g.jobs(); ++i) {
    ++out.attempted;
    if (const auto err = job_error(g, rep, i); !err.empty()) {
      out.fail(job_name(g, i) + ": " + err);
      continue;
    }
    const std::uint64_t instructions = instructions_of(rep.results[i]);
    out.sim_instructions += instructions;
    if (i >= g.mix_jobs()) {
      out.latency_ms["solo"].push_back(rep.ms[i]);
      continue;
    }
    out.latency_ms["job"].push_back(rep.ms[i]);
  }
}

}  // namespace

Outcome run_paper_grid(const Options& opt) {
  Outcome out;
  out.primary_op = "job";
  out.threads = kPassThreads;

  Grid g;
  for (int k = 0; k < kSetupRepetitions; ++k) {
    const auto t0 = k == 0 ? process_start() : Clock::now();
    g = set_up(opt.seed);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.info["mixes"] = static_cast<double>(g.mixes.size());
  out.info["jobs_per_rep"] = static_cast<double>(g.jobs());

  // Timed phase: whole grid passes, repeated while another pass is
  // predicted to fit in the budget, so every run does identical work
  // per pass whatever the host speed.
  const std::vector<std::size_t> every_job = all_jobs(g);
  std::string first_digest;
  Rep first;
  const auto t_start = Clock::now();
  double elapsed = 0.0;
  while (true) {
    Rep rep = run_rep(g, every_job, kPassThreads, /*traced=*/false);
    account(g, rep, out);
    const std::string digest = digest_of(rep, every_job);
    if (out.reps == 0) {
      first_digest = digest;
      first = std::move(rep);
    } else if (digest != first_digest) {
      out.fail("pass " + std::to_string(out.reps) + " digest differs from pass 0");
    }
    ++out.reps;
    elapsed = seconds_between(t_start, Clock::now());
    if (elapsed + elapsed / static_cast<double>(out.reps) > opt.seconds) break;
  }
  out.timed_s = elapsed;
  out.digest = first_digest;
  add_model(g, first, out);
  out.check("model_finite", std::isfinite(out.model["hs_norm"]) && out.model["hs_norm"] > 0.0 &&
                                std::isfinite(out.model["worst_speedup"]));

  // A pass usually fills the budget alone, so the repeat check is a
  // rerun of the whole grid outside the timed phase, on every worker
  // thread: its digest must equal the one-thread pass's, which checks
  // repeatability and thread-count invariance at once. The rerun also
  // gives run_batch's parallel efficiency.
  const Rep rerun = run_rep(g, every_job, resolve_threads(0), /*traced=*/false);
  out.check("n_threads_digest_equals_one_thread", digest_of(rerun, every_job) == first_digest);
  const auto& batch = rerun.batch;
  out.info["batch_efficiency"] =
      batch.wall_seconds > 0.0 ? batch.job_seconds / (batch.wall_seconds * batch.threads) : 0.0;

  if (!opt.trace) {
    // One job through the traced rebuild of run_mix, which checks PMU
    // monotonicity at every HAL read.
    const std::vector<std::size_t> one{6};  // mix 0 / cmm_c
    const Rep traced = run_rep(g, one, 1, /*traced=*/true);
    out.check("traced_equals_untraced", digest_of(traced, one) == digest_of(first, one));
    const auto& lt = traced.layers[one.front()];
    out.check("pmu_monotone", lt.pmu_reads > 0 && lt.pmu_monotone_violations == 0);
    return out;
  }

  // Traced run: the same grid again through the rebuilt, decorated
  // run_mix. Its digest must equal the untraced pass's.
  const auto t_traced = Clock::now();
  Rep traced = run_rep(g, every_job, kPassThreads, /*traced=*/true);
  const double traced_s = seconds_between(t_traced, Clock::now());
  const double untraced_s = elapsed / static_cast<double>(out.reps);
  out.check("traced_digest_equals_untraced", digest_of(traced, every_job) == first_digest);
  LayerTimes lt;
  for (const auto& l : traced.layers) lt.merge(l);
  out.check("pmu_monotone", lt.pmu_reads > 0 && lt.pmu_monotone_violations == 0);
  add_layer_metrics(lt, out);
  out.layers["obs.trace_overhead"] = traced_s / untraced_s - 1.0;
  out.layers["analysis.batch_efficiency"] = out.info["batch_efficiency"];
  out.layers["hw.faults_injected"] = 0.0;  // the grid runs without a fault plan
  double solo_ms = 0.0, job_ms = 0.0;
  for (std::size_t i = 0; i < g.jobs(); ++i) (i < g.mix_jobs() ? job_ms : solo_ms) += traced.ms[i];
  out.layers["analysis.solo_share"] = solo_ms / (solo_ms + job_ms);
  out.layers["analysis.solo_runs"] = static_cast<double>(g.solos.size());
  out.layers["analysis.harness_share"] =
      (job_ms * 1e6 - static_cast<double>(lt.driver.ns)) / ((job_ms + solo_ms) * 1e6);
  // The first stream of each benchmark, on the core and with the seed
  // attach_mix gives it.
  std::vector<StreamSpec> streams;
  for (const auto& mix : g.mixes) {
    for (CoreId c = 0; c < mix.benchmarks.size(); ++c)
      add_stream(streams, {mix.benchmarks[c], c, g.params.seed + 0x1000ULL * c});
  }
  run_component_replays(g.params.machine, streams, out);
  return out;
}

}  // namespace perfbench
