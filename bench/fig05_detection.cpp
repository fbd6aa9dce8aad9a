// Fig. 5: the Agg-core detection pipeline (PGA above mean -> L2 PMR
// filter -> L2 PTR gate). The paper's figure is a flow diagram; this
// bench traces each stage's decision for every core of one workload
// per category.
//
// Table I: the seven PMU-derived metrics (M-1..M-7) the CMM front-end
// works from, per core of the Pref Agg workload over the same
// profiling sample the detector trace reads.
#include <iostream>

#include "bench_common.hpp"
#include "core/detector.hpp"
#include "core/metrics.hpp"
#include "hw/pmu_reader.hpp"
#include "sim/multicore_system.hpp"

int main() {
  using namespace cmm;
  const auto env = bench::BenchEnv::from_env();
  bench::print_preamble(env, "Fig 5", "Agg-set detection trace per workload category");

  const core::DetectorConfig det = env.params.detector();
  analysis::Table table1({"core", "benchmark", "M-1 l2->llc", "M-2 pref_frac", "M-3 PTR(M/s)",
                          "M-4 PGA", "M-5 PMR", "M-6 PPM", "M-7 LLC_PT(GB/s)", "ipc"});
  for (const auto category :
       {workloads::MixCategory::PrefFri, workloads::MixCategory::PrefAgg,
        workloads::MixCategory::PrefUnfri, workloads::MixCategory::PrefNoAgg}) {
    const auto mixes = workloads::make_mixes(category, 1, env.params.machine.num_cores,
                                             env.params.seed);
    const auto& mix = mixes.front();

    sim::MulticoreSystem system(env.params.machine);
    workloads::attach_mix(system, mix, env.params.seed);
    system.run(2'000'000);  // warm, all prefetchers on (baseline state)
    const auto before = system.pmu().snapshot();
    system.run(200'000);
    const auto metrics = core::compute_all_metrics(
        hw::pmu_delta(system.pmu().snapshot(), before), env.params.machine.freq_ghz);

    double mean_pga = 0.0;
    for (const auto& m : metrics) mean_pga += m.pga / static_cast<double>(metrics.size());
    const auto agg = core::detect_aggressive(metrics, det);

    std::cout << "-- " << mix.name << " (mean PGA " << analysis::Table::fmt(mean_pga, 2)
              << ") --\n";
    analysis::Table table({"core", "benchmark", "PGA", "pass1", "PMR", "pass2", "PTR(M/s)",
                           "pass3", "in Agg set"});
    for (CoreId c = 0; c < metrics.size(); ++c) {
      const auto& m = metrics[c];
      const bool p1 = m.pga >= det.pga_floor && m.pga >= det.pga_rel_mean * mean_pga;
      const bool p2 = p1 && m.l2_pmr >= det.pmr_threshold;
      const bool p3 = p2 && m.l2_ptr >= det.ptr_threshold_per_sec;
      const bool in_agg = std::find(agg.begin(), agg.end(), c) != agg.end();
      table.add_row({std::to_string(c), mix.benchmarks[c], analysis::Table::fmt(m.pga, 2),
                     p1 ? "y" : "-", analysis::Table::fmt(m.l2_pmr, 2), p2 ? "y" : "-",
                     analysis::Table::fmt(m.l2_ptr / 1e6, 1), p3 ? "y" : "-",
                     in_agg ? "AGG" : ""});
    }
    table.print(std::cout);
    std::cout << "\n";

    // Machine-readable verdict line, one per category: pinned as golden
    // JSON by scripts/check_golden.py (ctest Golden.fig05_detection) so
    // detector-verdict drift fails loudly instead of shifting figures.
    std::cout << "{\"fig05\":{\"mix\":\"" << mix.name << "\",\"mean_pga\":"
              << analysis::Table::fmt(mean_pga, 4) << ",\"cores\":[";
    for (CoreId c = 0; c < metrics.size(); ++c) {
      const auto& m = metrics[c];
      const bool p1 = m.pga >= det.pga_floor && m.pga >= det.pga_rel_mean * mean_pga;
      const bool p2 = p1 && m.l2_pmr >= det.pmr_threshold;
      const bool p3 = p2 && m.l2_ptr >= det.ptr_threshold_per_sec;
      const bool in_agg = std::find(agg.begin(), agg.end(), c) != agg.end();
      std::cout << (c ? "," : "") << "{\"core\":" << c << ",\"benchmark\":\""
                << mix.benchmarks[c] << "\",\"pga\":" << analysis::Table::fmt(m.pga, 4)
                << ",\"pmr\":" << analysis::Table::fmt(m.l2_pmr, 4) << ",\"ptr_mps\":"
                << analysis::Table::fmt(m.l2_ptr / 1e6, 4) << ",\"pass\":[" << p1 << ',' << p2
                << ',' << p3 << "],\"agg\":" << in_agg << '}';
    }
    std::cout << "]}}\n";

    if (category != workloads::MixCategory::PrefAgg) continue;
    for (CoreId c = 0; c < metrics.size(); ++c) {
      const auto& m = metrics[c];
      table1.add_row({std::to_string(c), mix.benchmarks[c],
                      analysis::Table::fmt(m.l2_llc_traffic, 0),
                      analysis::Table::fmt(m.l2_pref_miss_frac),
                      analysis::Table::fmt(m.l2_ptr / 1e6, 1), analysis::Table::fmt(m.pga, 2),
                      analysis::Table::fmt(m.l2_pmr, 2), analysis::Table::fmt(m.l2_ppm, 2),
                      analysis::Table::fmt(m.llc_pt / 1e9, 2), analysis::Table::fmt(m.ipc, 3)});
    }
  }

  std::cout << "\n== Table I: per-core metric values on a Pref Agg workload ==\n\n";
  table1.print(std::cout);
  return 0;
}
