// Evaluation harness: solo characterisation runs (Figs 1-3), policy
// runs over workload mixes (Figs 7-15), the alone-IPC table HS needs,
// and the paper's offline benchmark classifier (Sec. IV-B criteria).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/epoch_driver.hpp"
#include "core/health.hpp"
#include "core/policy.hpp"
#include "hw/fault_injection.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/machine_config.hpp"
#include "workloads/benchmark_specs.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::analysis {

struct RunParams {
  sim::MachineConfig machine = sim::MachineConfig::scaled(16);
  Cycle warmup_cycles = 3'000'000;
  Cycle run_cycles = 4'000'000;
  core::EpochConfig epochs{};
  std::uint64_t seed = 42;

  /// Detector tuned to this machine (freq for per-second thresholds).
  core::DetectorConfig detector() const {
    core::DetectorConfig d;
    d.freq_ghz = machine.freq_ghz;
    return d;
  }
};

struct CoreRunStats {
  std::string benchmark;
  double ipc = 0.0;
  double demand_gbs = 0.0;    // DRAM demand bandwidth
  double prefetch_gbs = 0.0;  // DRAM prefetch bandwidth
  double total_gbs() const noexcept { return demand_gbs + prefetch_gbs; }
  std::uint64_t stalls_l2_pending = 0;
  sim::PmuCounters counters;  // deltas over the measured span

  bool operator==(const CoreRunStats&) const = default;
};

/// Per-core stats from a measured PMU delta (shared by the mix, fault
/// and fleet harnesses so every runner derives rates identically).
CoreRunStats make_core_stats(const std::string& benchmark, const sim::PmuCounters& delta,
                             double freq_ghz);

struct RunResult {
  std::vector<CoreRunStats> cores;
  Cycle measured_cycles = 0;

  std::vector<double> ipcs() const;
  double total_gbs() const;
  std::uint64_t total_stalls() const;

  /// Bit-exact: parallel batches must reproduce the serial path.
  bool operator==(const RunResult&) const = default;
};

/// Result of an EpochDriver run (the mix, fault and fleet harnesses):
/// one CoreRunStats per core of `exec` (the driver's execution-epoch
/// counters) under the tenant `benchmarks[core]`, and the longest
/// measured span.
RunResult make_run_result(const std::vector<std::string>& benchmarks,
                          const std::vector<sim::PmuCounters>& exec, double freq_ghz);

/// Run one benchmark alone on a single-core machine derived from
/// `params.machine` (same caches/latencies/bandwidth). `ways` limits
/// the LLC allocation mask (0 = all ways). `prefetch_on` gates all four
/// prefetchers.
RunResult run_solo(const std::string& benchmark, const RunParams& params, bool prefetch_on,
                   unsigned ways = 0);

/// Run a full mix under a policy via the EpochDriver. Reported stats
/// cover execution epochs only.
RunResult run_mix(const workloads::WorkloadMix& mix, core::Policy& policy,
                  const RunParams& params);

// ------------------------------------------------------- fault campaigns

/// One policy run through the fault-injecting HAL decorators.
struct FaultRunOutcome {
  RunResult result;                // execution-epoch stats, like run_mix()
  core::HealthLog health;          // deterministic fault-handling record
  bool completed = false;          // epoch loop finished; no exception escaped
  std::string error;               // exception text when !completed
  bool prefetch_available = true;  // degradation-ladder state at end of run
  bool cat_available = true;
  bool mba_available = true;
  bool hardware_baseline_at_end = false;  // prefetchers on, full masks, no throttle
  double hm_ipc = 0.0;             // harmonic-mean IPC over execution counters
};

/// Run a full mix under `policy` with the HAL wrapped in the
/// fault-injecting decorators driven by `plan`. With all plan rates at
/// zero the RunResult is bit-identical to run_mix(); under faults the
/// EpochDriver's retry/degradation machinery keeps the run alive and
/// records what happened in the HealthLog.
FaultRunOutcome run_mix_with_faults(const workloads::WorkloadMix& mix, core::Policy& policy,
                                    const RunParams& params, const hw::FaultPlan& plan);

// ----------------------------------------------------- parallel batches

/// Knobs for the parallel batch layer. threads == 0 defers to the
/// CMM_THREADS environment variable, then hardware_concurrency.
struct BatchOptions {
  unsigned threads = 0;
};

/// Accounting for one batch; json() is the one-line summary the bench
/// binaries print so the perf trajectory lands in their captured
/// output.
struct BatchStats {
  std::size_t jobs = 0;
  unsigned threads = 1;
  std::size_t cache_hits = 0;  // global solo-cache traffic during the batch
  std::size_t cache_misses = 0;
  double wall_seconds = 0.0;
  double job_seconds = 0.0;  // sum of per-job wall times

  /// Parallel efficiency proxy: job_seconds / wall_seconds.
  double speedup() const noexcept;
  std::string json() const;
};

/// Run job(0..n-1) across resolve_threads(opts.threads) workers with
/// per-job timing and solo-cache accounting. Jobs must own all mutable
/// state (system, policy, RNG stream) so batch results are bit-identical
/// to the serial path at any thread count.
BatchStats run_batch(std::size_t n, const std::function<void(std::size_t)>& job,
                     const BatchOptions& opts = {});

/// One solo-characterisation request within a batch.
struct SoloQuery {
  std::string benchmark;
  bool prefetch_on = true;
  unsigned ways = 0;  // 0 = all ways
};

/// Memoized parallel solo runs; results in query order.
std::vector<RunResult> run_solo_batch(const std::vector<SoloQuery>& queries,
                                      const RunParams& params, const BatchOptions& opts = {},
                                      BatchStats* stats = nullptr);

/// Run every (mix, policy) pair concurrently; each job owns its own
/// MulticoreSystem and policy instance. Results indexed
/// [mix_index * policies.size() + policy_index].
///
/// When `registry` is non-null every job records driver metrics into
/// its own private registry; after the batch they are merged in job
/// order (deterministic at any thread count) together with one
/// `win.<policy>` counter per mix (the policy with the best
/// harmonic-mean IPC on that mix). Jobs never share a registry, so the
/// driver hot path stays single-threaded and lock-free.
std::vector<RunResult> for_each_mix(const std::vector<workloads::WorkloadMix>& mixes,
                                    const std::vector<std::string>& policies,
                                    const RunParams& params, const BatchOptions& opts = {},
                                    BatchStats* stats = nullptr,
                                    obs::MetricsRegistry* registry = nullptr);

// ----------------------------------------------------------- policies

/// The evaluated mechanisms, paper order: pt, dunn, pref_cp, pref_cp2,
/// cmm_a, cmm_b, cmm_c ("baseline" also resolvable).
std::vector<std::string> mechanism_names();

/// Factory by name; throws std::invalid_argument for unknown names.
std::unique_ptr<core::Policy> make_policy(const std::string& name,
                                          const core::DetectorConfig& detector);

// --------------------------------------------------------- alone IPCs

/// IPC of each benchmark running alone (baseline config), keyed by
/// name. Deduplicates, then runs the distinct solos as one memoized
/// parallel batch; used by HS.
std::map<std::string, double> compute_alone_ipcs(const std::vector<std::string>& benchmarks,
                                                 const RunParams& params,
                                                 const BatchOptions& opts = {});

// ------------------------------------------------------ classification

/// Measured classification of one benchmark per the paper's Sec. IV-B
/// criteria, derived from solo runs.
struct BenchmarkClassification {
  std::string name;
  double demand_gbs = 0.0;        // solo, prefetch off
  double bw_gain = 0.0;           // (BW_pf_on - BW_pf_off) / BW_pf_off
  double prefetch_speedup = 0.0;  // IPC_on / IPC_off
  unsigned ways_for_80pct = 0;    // min ways reaching 80 % of best IPC
  unsigned ways_for_90pct = 0;
  bool prefetch_aggressive = false;
  bool prefetch_friendly = false;
  bool llc_sensitive = false;
};

struct ClassifierThresholds {
  double demand_gbs_min = 1.5;      // paper: demand BW > 1500 MB/s
  double bw_gain_min = 0.5;         // paper: prefetch BW increase > 50 %
  double friendly_speedup_min = 1.3;  // paper Sec. IV-B: IPC gain > 30 %
  unsigned sensitive_ways_min = 8;  // needs >= 8 ways for 80 % of peak
};

/// All ~12 solo runs behind one classification go through the memo
/// cache and run as one batch (`opts.threads` workers).
BenchmarkClassification classify_benchmark(const std::string& name, const RunParams& params,
                                           const ClassifierThresholds& thresholds = {},
                                           const BatchOptions& opts = {});

}  // namespace cmm::analysis
