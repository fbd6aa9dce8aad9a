// Figs. 1-2: what prefetching does to each benchmark running alone.
// Both figures read the same solo batch (every benchmark with
// prefetching off and on), so it is simulated once.
//
// Fig. 1, memory bandwidth: demand BW with prefetching off vs total BW
// with it on. The paper's shape: the demand-intensive streamers draw
// ~4 GB/s demand BW and gain >80 % from prefetching.
//
// Fig. 2, IPC speedup from prefetching. The paper's shape:
// libquantum/bwaves/wrf/GemsFDTD-likes gain 50 %+; the Rand Access
// micro-benchmark *loses* (~25 % in the paper).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace cmm;
  const auto env = bench::BenchEnv::from_env();
  bench::print_preamble(env, "Figs 1-2", "solo memory bandwidth and IPC, prefetching off vs on");

  const auto& suite = workloads::benchmark_suite();
  std::vector<analysis::SoloQuery> queries;
  for (const auto& spec : suite) {
    queries.push_back({spec.name, /*prefetch_on=*/false, 0});
    queries.push_back({spec.name, /*prefetch_on=*/true, 0});
  }
  analysis::BatchStats stats;
  const auto results = analysis::run_solo_batch(queries, env.params, {}, &stats);

  analysis::Table bandwidth(
      {"benchmark", "demand GB/s (pf off)", "total GB/s (pf on)", "increase %"});
  analysis::Table speedup({"benchmark", "ipc pf off", "ipc pf on", "speedup"});
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& off = results[2 * i].cores.front();
    const auto& on = results[2 * i + 1].cores.front();
    const double bw_off = off.total_gbs();
    const double bw_on = on.total_gbs();
    const double gain = bw_off > 0 ? 100.0 * (bw_on - bw_off) / bw_off : 0.0;
    bandwidth.add_row({suite[i].name, analysis::Table::fmt(off.demand_gbs, 2),
                       analysis::Table::fmt(bw_on, 2), analysis::Table::fmt(gain, 1)});
    const double s = off.ipc > 0 ? on.ipc / off.ipc : 0.0;
    speedup.add_row({suite[i].name, analysis::Table::fmt(off.ipc), analysis::Table::fmt(on.ipc),
                     analysis::Table::fmt(s, 2)});
  }
  std::cout << "== Fig 1: memory bandwidth with and without prefetching ==\n\n";
  bandwidth.print(std::cout);
  std::cout << "\n== Fig 2: IPC speedup from prefetching (solo) ==\n\n";
  speedup.print(std::cout);
  bench::print_batch_summary(stats);
  return 0;
}
