#include "analysis/run_harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "analysis/solo_cache.hpp"
#include "analysis/speedup_metrics.hpp"
#include "common/bitmask.hpp"
#include "common/parallel.hpp"
#include "core/metrics.hpp"
#include "core/policy_baseline.hpp"
#include "core/policy_cmm.hpp"
#include "core/policy_cp.hpp"
#include "core/policy_dunn.hpp"
#include "core/policy_pt.hpp"
#include "sim/multicore_system.hpp"

namespace cmm::analysis {

namespace {

double to_gbs(std::uint64_t bytes, Cycle cycles, double freq_ghz) {
  if (cycles == 0) return 0.0;
  const double seconds = static_cast<double>(cycles) / (freq_ghz * 1e9);
  return static_cast<double>(bytes) / seconds / 1e9;
}

}  // namespace

CoreRunStats make_core_stats(const std::string& benchmark, const sim::PmuCounters& delta,
                             double freq_ghz) {
  CoreRunStats s;
  s.benchmark = benchmark;
  s.counters = delta;
  s.ipc = delta.ipc();
  s.demand_gbs = to_gbs(delta.dram_demand_bytes, delta.cycles, freq_ghz);
  s.prefetch_gbs = to_gbs(delta.dram_prefetch_bytes, delta.cycles, freq_ghz);
  s.stalls_l2_pending = delta.stalls_l2_pending;
  return s;
}

RunResult make_run_result(const std::vector<std::string>& benchmarks,
                          const std::vector<sim::PmuCounters>& exec, double freq_ghz) {
  RunResult result;
  for (CoreId c = 0; c < exec.size(); ++c) {
    result.cores.push_back(make_core_stats(benchmarks[c], exec[c], freq_ghz));
    result.measured_cycles = std::max<Cycle>(result.measured_cycles, exec[c].cycles);
  }
  return result;
}

std::vector<double> RunResult::ipcs() const {
  std::vector<double> v;
  v.reserve(cores.size());
  for (const auto& c : cores) v.push_back(c.ipc);
  return v;
}

double RunResult::total_gbs() const {
  double sum = 0.0;
  for (const auto& c : cores) sum += c.total_gbs();
  return sum;
}

std::uint64_t RunResult::total_stalls() const {
  std::uint64_t sum = 0;
  for (const auto& c : cores) sum += c.stalls_l2_pending;
  return sum;
}

RunResult run_solo(const std::string& benchmark, const RunParams& params, bool prefetch_on,
                   unsigned ways) {
  sim::MachineConfig machine = params.machine;
  // A solo characterisation run exercises exactly one core on one
  // LLC/bandwidth domain; collapsing a fleet machine's idle domains
  // keeps the config valid (num_cores % num_llc_domains) without
  // changing what the run measures.
  machine.num_cores = 1;
  machine.num_llc_domains = 1;

  sim::MulticoreSystem system(machine);
  system.core(0).prefetch_msr().set_all(prefetch_on);
  if (ways > 0 && ways < machine.llc.ways) {
    system.cat().set_cbm(0, contiguous_mask(0, ways));
    system.cat().assign_core(0, 0);
  }
  system.set_op_source(0, workloads::make_op_source(benchmark, machine, 0, params.seed));

  system.run(params.warmup_cycles);
  const auto before = system.pmu().snapshot();
  system.run(params.run_cycles);
  const auto after = system.pmu().snapshot();

  RunResult result;
  result.measured_cycles = params.run_cycles;
  result.cores.push_back(
      make_core_stats(benchmark, after[0].delta_since(before[0]), machine.freq_ghz));
  return result;
}

RunResult run_mix(const workloads::WorkloadMix& mix, core::Policy& policy,
                  const RunParams& params) {
  sim::MulticoreSystem system(params.machine);
  workloads::attach_mix(system, mix, params.seed);

  core::EpochDriver driver(system, policy, params.epochs);
  driver.run(params.run_cycles);
  return make_run_result(mix.benchmarks, driver.execution_counters(), params.machine.freq_ghz);
}

FaultRunOutcome run_mix_with_faults(const workloads::WorkloadMix& mix, core::Policy& policy,
                                    const RunParams& params, const hw::FaultPlan& plan) {
  sim::MulticoreSystem system(params.machine);
  workloads::attach_mix(system, mix, params.seed);

  // Real HAL at the bottom, fault-injecting decorators on top. One
  // injector feeds all three so the fault stream is a single
  // deterministic sequence driven by plan.seed and HAL call order.
  hw::SimMsrDevice sim_msr(system);
  hw::SimPmuReader sim_pmu(system);
  hw::SimCatController sim_cat(system);
  hw::SimMbaController sim_mba(system);
  hw::FaultInjector injector(plan);
  hw::FaultInjectingMsrDevice msr(sim_msr, injector);
  hw::FaultInjectingPmuReader pmu(sim_pmu, injector);
  hw::FaultInjectingCatController cat(sim_cat, injector);
  hw::FaultInjectingMbaController mba(sim_mba, injector);

  core::EpochDriver driver(system, policy, msr, pmu, cat, mba, params.epochs);

  FaultRunOutcome out;
  try {
    driver.run(params.run_cycles);
    out.completed = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }

  out.health = driver.health();
  out.prefetch_available = driver.prefetch_available();
  out.cat_available = driver.cat_available();
  out.mba_available = driver.mba_available();

  const auto& exec = driver.execution_counters();
  out.result = make_run_result(mix.benchmarks, exec, params.machine.freq_ghz);
  // hm_ipc contract (see core::hm_ipc): a core with zero measured IPC
  // pins the harmonic mean at 0. That is right for a stalled core, but
  // a core that never executed a measured cycle (offline before the
  // first epoch completed) carries no evidence at all — exclude it
  // instead of reporting a meaningless 0 for the whole mix.
  std::vector<sim::PmuCounters> measured;
  measured.reserve(exec.size());
  for (const auto& d : exec) {
    if (d.cycles > 0) measured.push_back(d);
  }
  out.hm_ipc = core::hm_ipc(measured);

  // The watchdog invariant: whatever happened during the run, the
  // hardware must not be left in a non-baseline state the controller no
  // longer manages. Checked against the *sim* models, below the fault
  // layer, so an injector lying about a write cannot fake compliance.
  const WayMask full = full_mask(system.cat().llc_ways());
  out.hardware_baseline_at_end = true;
  for (CoreId c = 0; c < system.num_cores(); ++c) {
    if (system.cat(system.domain_of(c)).core_mask(c) != full) out.hardware_baseline_at_end = false;
    if (!system.core(c).prefetch_msr().all_enabled()) out.hardware_baseline_at_end = false;
    if (system.memory(system.domain_of(c)).throttle_level(c) != 0) {
      out.hardware_baseline_at_end = false;
    }
  }
  return out;
}

double BatchStats::speedup() const noexcept {
  return wall_seconds > 0.0 ? job_seconds / wall_seconds : 0.0;
}

std::string BatchStats::json() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"jobs\":" << jobs << ",\"threads\":" << threads << ",\"cache_hits\":" << cache_hits
     << ",\"cache_misses\":" << cache_misses << ",\"wall_s\":" << wall_seconds
     << ",\"job_s\":" << job_seconds << ",\"speedup\":" << speedup() << "}";
  return std::move(os).str();
}

BatchStats run_batch(std::size_t n, const std::function<void(std::size_t)>& job,
                     const BatchOptions& opts) {
  BatchStats stats;
  stats.jobs = n;
  stats.threads = resolve_threads(opts.threads);

  auto& cache = SoloRunCache::global();
  const std::size_t hits_before = cache.hits();
  const std::size_t misses_before = cache.misses();

  std::atomic<std::uint64_t> job_nanos{0};
  const auto t0 = std::chrono::steady_clock::now();
  parallel_for(n, stats.threads, [&](std::size_t i) {
    const auto s = std::chrono::steady_clock::now();
    job(i);
    const auto e = std::chrono::steady_clock::now();
    job_nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(e - s).count()),
        std::memory_order_relaxed);
  });
  const auto t1 = std::chrono::steady_clock::now();

  stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.job_seconds = static_cast<double>(job_nanos.load(std::memory_order_relaxed)) * 1e-9;
  stats.cache_hits = cache.hits() - hits_before;
  stats.cache_misses = cache.misses() - misses_before;
  return stats;
}

std::vector<RunResult> run_solo_batch(const std::vector<SoloQuery>& queries,
                                      const RunParams& params, const BatchOptions& opts,
                                      BatchStats* stats) {
  std::vector<RunResult> results(queries.size());
  const auto s = run_batch(
      queries.size(),
      [&](std::size_t i) {
        const auto& q = queries[i];
        results[i] = *run_solo_cached(q.benchmark, params, q.prefetch_on, q.ways);
      },
      opts);
  if (stats != nullptr) *stats = s;
  return results;
}

std::vector<RunResult> for_each_mix(const std::vector<workloads::WorkloadMix>& mixes,
                                    const std::vector<std::string>& policies,
                                    const RunParams& params, const BatchOptions& opts,
                                    BatchStats* stats, obs::MetricsRegistry* registry) {
  const std::size_t n = mixes.size() * policies.size();
  std::vector<RunResult> results(n);
  std::vector<obs::MetricsRegistry> job_metrics(registry != nullptr ? n : 0);
  const auto s = run_batch(
      n,
      [&](std::size_t i) {
        const auto& mix = mixes[i / policies.size()];
        const auto& name = policies[i % policies.size()];
        const auto policy = make_policy(name, params.detector());
        RunParams job_params = params;
        if (registry != nullptr) job_params.epochs.metrics = &job_metrics[i];
        results[i] = run_mix(mix, *policy, job_params);
      },
      opts);
  if (registry != nullptr) {
    for (const auto& m : job_metrics) registry->merge(m);
    for (std::size_t mi = 0; mi < mixes.size() && !policies.empty(); ++mi) {
      std::size_t best = 0;
      double best_hm = -1.0;
      for (std::size_t pi = 0; pi < policies.size(); ++pi) {
        const auto ipcs = results[mi * policies.size() + pi].ipcs();
        const double hm = harmonic_mean(ipcs);
        if (hm > best_hm) {
          best_hm = hm;
          best = pi;
        }
      }
      registry->count("win." + policies[best]);
    }
  }
  if (stats != nullptr) *stats = s;
  return results;
}

std::vector<std::string> mechanism_names() {
  return {"pt", "dunn", "pref_cp", "pref_cp2", "cmm_a", "cmm_b", "cmm_c"};
}

std::unique_ptr<core::Policy> make_policy(const std::string& name,
                                          const core::DetectorConfig& detector) {
  using namespace cmm::core;
  if (name == "baseline") return std::make_unique<BaselinePolicy>();
  if (name == "pt") {
    PtPolicy::Options o;
    o.detector = detector;
    return std::make_unique<PtPolicy>(o);
  }
  if (name == "dunn") {
    DunnPolicy::Options o;
    o.freq_ghz = detector.freq_ghz;
    return std::make_unique<DunnPolicy>(o);
  }
  if (name == "pref_cp" || name == "pref_cp2") {
    CpPolicy::Options o;
    o.detector = detector;
    o.variant = (name == "pref_cp") ? CpVariant::PrefCp : CpVariant::PrefCp2;
    return std::make_unique<CpPolicy>(o);
  }
  if (name == "cmm_a" || name == "cmm_b" || name == "cmm_c") {
    CmmPolicy::Options o;
    o.detector = detector;
    o.variant = (name == "cmm_a")   ? CmmVariant::A
                : (name == "cmm_b") ? CmmVariant::B
                                    : CmmVariant::C;
    return std::make_unique<CmmPolicy>(o);
  }
  if (name == "cmm_bp") {
    // CMM-a's PT x CP decision plus the BP (memory-bandwidth
    // regulation) coordinate-descent pass.
    CmmPolicy::Options o;
    o.detector = detector;
    o.variant = CmmVariant::A;
    o.bp_enabled = true;
    return std::make_unique<CmmPolicy>(o);
  }
  throw std::invalid_argument("unknown policy: " + name);
}

std::map<std::string, double> compute_alone_ipcs(const std::vector<std::string>& benchmarks,
                                                 const RunParams& params,
                                                 const BatchOptions& opts) {
  std::vector<std::string> unique;
  for (const auto& name : benchmarks) {
    if (std::find(unique.begin(), unique.end(), name) == unique.end()) unique.push_back(name);
  }
  std::vector<SoloQuery> queries;
  queries.reserve(unique.size());
  for (const auto& name : unique) queries.push_back({name, /*prefetch_on=*/true, 0});
  const auto results = run_solo_batch(queries, params, opts);

  std::map<std::string, double> table;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    table[unique[i]] = results[i].cores.front().ipc;
  }
  return table;
}

BenchmarkClassification classify_benchmark(const std::string& name, const RunParams& params,
                                           const ClassifierThresholds& thresholds,
                                           const BatchOptions& opts) {
  BenchmarkClassification c;
  c.name = name;

  // Way sweep grid (prefetch on), paper Fig. 3 — coarse; the dedicated
  // fig03 bench sweeps every way count.
  const unsigned total_ways = params.machine.llc.ways;
  std::vector<unsigned> grid;
  for (const unsigned w : {1U, 2U, 3U, 4U, 6U, 8U, 10U, 12U, 16U, 20U}) {
    if (w <= total_ways) grid.push_back(w);
  }
  if (grid.empty() || grid.back() != total_ways) grid.push_back(total_ways);

  // One memoized batch: prefetch off/on plus the whole way sweep.
  std::vector<SoloQuery> queries{{name, /*prefetch_on=*/false, 0}, {name, /*prefetch_on=*/true, 0}};
  for (const unsigned w : grid) queries.push_back({name, /*prefetch_on=*/true, w});
  const auto results = run_solo_batch(queries, params, opts);
  const RunResult& off = results[0];
  const RunResult& on = results[1];

  const double bw_off = off.cores.front().total_gbs();
  const double bw_on = on.cores.front().total_gbs();
  c.demand_gbs = off.cores.front().demand_gbs;
  c.bw_gain = bw_off > 0.0 ? (bw_on - bw_off) / bw_off : 0.0;
  const double ipc_off = off.cores.front().ipc;
  c.prefetch_speedup = ipc_off > 0.0 ? on.cores.front().ipc / ipc_off : 0.0;

  std::vector<double> ipc_at(grid.size(), 0.0);
  double best = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ipc_at[i] = results[2 + i].cores.front().ipc;
    best = std::max(best, ipc_at[i]);
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (c.ways_for_80pct == 0 && ipc_at[i] >= 0.8 * best) c.ways_for_80pct = grid[i];
    if (c.ways_for_90pct == 0 && ipc_at[i] >= 0.9 * best) c.ways_for_90pct = grid[i];
  }

  c.prefetch_aggressive =
      c.demand_gbs > thresholds.demand_gbs_min && c.bw_gain > thresholds.bw_gain_min;
  c.prefetch_friendly = c.prefetch_speedup > thresholds.friendly_speedup_min;
  c.llc_sensitive = c.ways_for_80pct >= thresholds.sensitive_ways_min;
  return c;
}

}  // namespace cmm::analysis
