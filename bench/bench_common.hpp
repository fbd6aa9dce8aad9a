// Shared machinery for the per-figure bench binaries: environment-
// controlled run parameters, the run preamble and the batch summary.
//
// Environment knobs (all optional):
//   CMM_BENCH_SCALE   LLC capacity divisor for the simulated machine
//                     (default 16; 1 = the paper's full 20 MB LLC)
//   CMM_BENCH_CYCLES  simulated cycles per workload run (default 8e6)
//   CMM_BENCH_MIXES   workloads per category (default 3; paper uses 10)
//   CMM_BENCH_SEED    workload/mix RNG seed (default 42)
//   CMM_THREADS       worker threads for the parallel batch layer
//                     (default: hardware_concurrency). Results are
//                     bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/run_harness.hpp"
#include "analysis/speedup_metrics.hpp"
#include "analysis/table.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::bench {

struct BenchEnv {
  analysis::RunParams params;
  unsigned mixes_per_category = 3;

  static BenchEnv from_env();

  /// The evaluation workloads in paper presentation order (Fri, Agg,
  /// Unfri, NoAgg).
  std::vector<workloads::WorkloadMix> workloads() const;
};

/// Print the standard figure preamble (machine + parameters).
void print_preamble(const BenchEnv& env, const std::string& figure, const std::string& what);

/// Print the one-line JSON batch summary (jobs, threads, cache traffic,
/// wall time, speedup) that the BENCH_*.json capture parses.
void print_batch_summary(const analysis::BatchStats& stats);

/// Unsigned integer environment knob; unset or empty yields `fallback`.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Print one "PASS"/"FAIL" gate line and return `ok`, so a bench can
/// fold its gates into its exit status.
bool gate(bool ok, const std::string& what);

}  // namespace cmm::bench
