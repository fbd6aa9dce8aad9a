#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>

#include "common/parallel.hpp"

namespace cmm::bench {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::uint64_t>(std::strtoull(value, nullptr, 10));
}

bool gate(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS" : "FAIL") << "  " << what << "\n";
  return ok;
}

BenchEnv BenchEnv::from_env() {
  BenchEnv env;
  const auto scale = static_cast<unsigned>(env_u64("CMM_BENCH_SCALE", 16));
  env.params.machine =
      scale <= 1 ? sim::MachineConfig::broadwell_ep() : sim::MachineConfig::scaled(scale);
  env.params.run_cycles = env_u64("CMM_BENCH_CYCLES", 8'000'000);
  env.params.warmup_cycles = 3'000'000;
  env.params.seed = env_u64("CMM_BENCH_SEED", 42);
  env.params.epochs.execution_epoch = 1'500'000;
  env.params.epochs.sampling_interval = 40'000;
  env.mixes_per_category = static_cast<unsigned>(env_u64("CMM_BENCH_MIXES", 3));
  return env;
}

std::vector<workloads::WorkloadMix> BenchEnv::workloads() const {
  return workloads::paper_workloads(params.machine.num_cores, params.seed, mixes_per_category);
}

void print_preamble(const BenchEnv& env, const std::string& figure, const std::string& what) {
  const auto& m = env.params.machine;
  std::cout << "== " << figure << ": " << what << " ==\n"
            << "machine: " << m.num_cores << " cores, LLC " << m.llc.size_bytes / 1024 << " KB/"
            << m.llc.ways << "w, L2 " << m.l2.size_bytes / 1024 << " KB, L1 "
            << m.l1d.size_bytes / 1024 << " KB | run " << env.params.run_cycles << " cycles, "
            << env.mixes_per_category << " mixes/category, seed " << env.params.seed << ", "
            << resolve_threads(0) << " threads\n"
            << "(scale with CMM_BENCH_SCALE / CMM_BENCH_CYCLES / CMM_BENCH_MIXES / "
               "CMM_THREADS)\n\n";
}

void print_batch_summary(const analysis::BatchStats& stats) {
  std::cout << "\n" << stats.json() << "\n";
}

}  // namespace cmm::bench
