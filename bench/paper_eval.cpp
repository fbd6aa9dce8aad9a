// Figs. 7-15: the paper's seven mechanisms against the baseline on one
// workload set. Every one of these figures is a projection of the same
// (mix x policy) grid — normalized HS, WS, worst-case speedup, memory
// bandwidth and L2-pending stalls — so the grid is simulated once
// (baseline + each mechanism per mix, plus the solo runs HS divides by)
// and each figure is one entry of the spec below.
//
// Besides the tables, one {"paper_eval":...} line per grid cell and per
// solo carries the integer PMU counters every figure is computed from;
// ctest Golden.paper_eval pins them with scripts/check_golden.py.
#include <algorithm>
#include <iostream>
#include <map>

#include "bench_common.hpp"

namespace {

using namespace cmm;
using analysis::RunResult;
using analysis::Table;

/// Every mix under the baseline and each mechanism, plus the alone IPCs
/// harmonic speedup divides by.
struct Grid {
  std::vector<workloads::WorkloadMix> mixes;
  std::vector<std::string> policies;  // "baseline" first
  std::vector<RunResult> runs;        // [mix * policies.size() + policy]
  std::map<std::string, double> alone_ipc;

  const RunResult& run(std::size_t mix, const std::string& policy) const {
    const auto p = std::find(policies.begin(), policies.end(), policy) - policies.begin();
    return runs[mix * policies.size() + static_cast<std::size_t>(p)];
  }

  double hs(const RunResult& r) const {
    std::vector<double> alone;
    for (const auto& core : r.cores) alone.push_back(alone_ipc.at(core.benchmark));
    return analysis::harmonic_speedup(r.ipcs(), alone);
  }
};

/// One policy's run of a mix, measured against the mix's baseline run.
using Metric = double (*)(const Grid&, const RunResult& run, const RunResult& base);

double ratio(double value, double base) { return base > 0.0 ? value / base : 0.0; }

double norm_hs(const Grid& g, const RunResult& r, const RunResult& b) {
  return ratio(g.hs(r), g.hs(b));
}
double norm_ws(const Grid&, const RunResult& r, const RunResult& b) {
  return analysis::weighted_speedup(r.ipcs(), b.ipcs());
}
double worst_case(const Grid&, const RunResult& r, const RunResult& b) {
  return analysis::worst_case_speedup(r.ipcs(), b.ipcs());
}
double norm_bw(const Grid&, const RunResult& r, const RunResult& b) {
  return ratio(r.total_gbs(), b.total_gbs());
}
double norm_stalls(const Grid&, const RunResult& r, const RunResult& b) {
  return ratio(static_cast<double>(r.total_stalls()), static_cast<double>(b.total_stalls()));
}

/// A metric shown for each of a figure's policies; "{}" in the column
/// label stands for the policy name.
struct Series {
  std::string label;
  Metric metric;
};

/// One row per mix category, each cell the series' mean over that
/// category's mixes.
struct MeanTable {
  std::string caption;  // printed above the table; empty for none
  std::string first_header;
  std::vector<Series> series;
};

/// A count line under a worst-case table, given each mix's lowest
/// worst-case speedup over the figure's policies.
using CountLine = void (*)(const std::vector<double>& lowest);

struct Figure {
  std::string title;
  std::string what;
  std::vector<std::string> policies;
  std::vector<Series> per_mix;  // columns of the per-mix table; empty for none
  std::vector<MeanTable> means;
  CountLine counts = nullptr;
};

void pt_degraded(const std::vector<double>& lowest) {
  const auto n = std::count_if(lowest.begin(), lowest.end(), [](double wc) { return wc < 0.8; });
  std::cout << "\nworkloads with an application degraded >20%: " << n << "/" << lowest.size()
            << "\n";
}

void cmm_isolated(const std::vector<double>& lowest) {
  const auto at_least = [&](double floor) {
    return std::count_if(lowest.begin(), lowest.end(), [&](double wc) { return wc >= floor; });
  };
  std::cout << "\nworkloads with worst-case >= 0.8 under all variants: " << at_least(0.8) << "/"
            << lowest.size() << "  (>= 0.9: " << at_least(0.9) << ")\n";
}

std::vector<Figure> paper_figures() {
  const std::vector<std::string> pt{"pt"};
  const std::vector<std::string> cp{"dunn", "pref_cp", "pref_cp2"};
  const std::vector<std::string> cmm{"cmm_a", "cmm_b", "cmm_c"};
  const auto all = analysis::mechanism_names();
  return {
      // Paper: Pref Unfri gains most, then Pref Agg; Pref No Agg nothing.
      {"Fig 7", "normalized HS and WS of PT", pt,
       {{"HS/HS_base", norm_hs}, {"WS", norm_ws}},
       {{"category means:", "category", {{"HS/HS_base", norm_hs}, {"WS", norm_ws}}}}},
      // Paper: PT costs some application >20 % in ~80 % of workloads.
      {"Fig 8", "lowest normalized IPC per workload under PT", pt,
       {{"worst-case speedup", worst_case}}, {}, pt_degraded},
      // Paper: the prefetch-aware partitioners beat prefetch-blind Dunn.
      {"Fig 9", "normalized HS and WS: Dunn vs Pref-CP vs Pref-CP2", cp,
       {{"{} HS", norm_hs}, {"{} WS", norm_ws}},
       {{"category mean HS/HS_base:", "category", {{"{}", norm_hs}}}}},
      {"Fig 10", "worst-case speedup: Dunn vs Pref-CP vs Pref-CP2", cp, {{"{}", worst_case}}, {}},
      // Paper: CMM-a/c beat CMM-b on Pref Agg / Pref Unfri.
      {"Fig 11", "normalized HS and WS: CMM-a/b/c", cmm,
       {{"{} HS", norm_hs}, {"{} WS", norm_ws}},
       {{"category mean HS/HS_base:", "category", {{"{}", norm_hs}}}}},
      // Paper: every workload keeps >= 0.8 under CMM, most >= 0.9.
      {"Fig 12", "worst-case speedup: CMM-a/b/c", cmm, {{"{}", worst_case}}, {}, cmm_isolated},
      {"Fig 13", "category mean normalized HS, all 7 mechanisms", all, {},
       {{"", "category", {{"{}", norm_hs}}},
        {"category mean normalized WS:", "category", {{"{}", norm_ws}}}}},
      // Paper: PT uses the least bandwidth; CP alone does not cut it.
      {"Fig 14", "normalized memory bandwidth, all 7 mechanisms", all, {{"{}", norm_bw}},
       {{"category means:", "workload", {{"{}", norm_bw}}}}},
      // Paper: CMM-a/c stall least (best performance isolation).
      {"Fig 15", "normalized L2-pending stalls, all 7 mechanisms", all, {{"{}", norm_stalls}},
       {{"category means:", "workload", {{"{}", norm_stalls}}}}},
  };
}

std::string label(const std::string& pattern, const std::string& policy) {
  const auto at = pattern.find("{}");
  if (at == std::string::npos) return pattern;
  return pattern.substr(0, at) + policy + pattern.substr(at + 2);
}

void render(const Figure& fig, const Grid& g) {
  const auto value = [&](Metric metric, const std::string& policy, std::size_t mix) {
    return metric(g, g.run(mix, policy), g.run(mix, "baseline"));
  };
  const auto headers = [&](const std::string& first, const std::vector<Series>& series) {
    std::vector<std::string> h{first};
    for (const auto& s : series) {
      for (const auto& p : fig.policies) h.push_back(label(s.label, p));
    }
    return h;
  };

  std::cout << "== " << fig.title << ": " << fig.what << " ==\n\n";
  if (!fig.per_mix.empty()) {
    Table table(headers("workload", fig.per_mix));
    for (std::size_t m = 0; m < g.mixes.size(); ++m) {
      std::vector<std::string> row{g.mixes[m].name};
      for (const auto& s : fig.per_mix) {
        for (const auto& p : fig.policies) row.push_back(Table::fmt(value(s.metric, p, m)));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }
  for (const auto& mt : fig.means) {
    if (!mt.caption.empty()) std::cout << "\n" << mt.caption << "\n";
    Table table(headers(mt.first_header, mt.series));
    for (const auto category :
         {workloads::MixCategory::PrefFri, workloads::MixCategory::PrefAgg,
          workloads::MixCategory::PrefUnfri, workloads::MixCategory::PrefNoAgg}) {
      std::vector<std::string> row{std::string(workloads::to_string(category))};
      for (const auto& s : mt.series) {
        for (const auto& p : fig.policies) {
          std::vector<double> values;
          for (std::size_t m = 0; m < g.mixes.size(); ++m) {
            if (g.mixes[m].category == category) values.push_back(value(s.metric, p, m));
          }
          row.push_back(Table::fmt(analysis::mean(values)));
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }
  if (fig.counts != nullptr) {
    std::vector<double> lowest;
    for (std::size_t m = 0; m < g.mixes.size(); ++m) {
      std::vector<double> wc;
      for (const auto& p : fig.policies) wc.push_back(value(worst_case, p, m));
      lowest.push_back(*std::min_element(wc.begin(), wc.end()));
    }
    fig.counts(lowest);
  }
  std::cout << "\n";
}

/// The counters the figures read: IPC, DRAM bytes, L2-pending stalls.
void print_counters(const sim::PmuCounters& c) {
  std::cout << "\"cycles\":" << c.cycles << ",\"instructions\":" << c.instructions
            << ",\"dram_demand_bytes\":" << c.dram_demand_bytes
            << ",\"dram_prefetch_bytes\":" << c.dram_prefetch_bytes
            << ",\"stalls_l2_pending\":" << c.stalls_l2_pending;
}

}  // namespace

int main() {
  const auto env = bench::BenchEnv::from_env();
  bench::print_preamble(env, "paper_eval", "Figs 7-15 from one simulated grid");

  Grid g;
  g.mixes = env.workloads();
  g.policies = analysis::mechanism_names();
  g.policies.insert(g.policies.begin(), "baseline");
  analysis::BatchStats stats;
  g.runs = analysis::for_each_mix(g.mixes, g.policies, env.params, {}, &stats);

  std::vector<analysis::SoloQuery> solos;
  for (const auto& mix : g.mixes) {
    for (const auto& b : mix.benchmarks) {
      if (std::none_of(solos.begin(), solos.end(),
                       [&](const analysis::SoloQuery& q) { return q.benchmark == b; })) {
        solos.push_back({b});
      }
    }
  }
  analysis::BatchStats solo_stats;
  const auto solo_runs = analysis::run_solo_batch(solos, env.params, {}, &solo_stats);
  for (std::size_t i = 0; i < solos.size(); ++i) {
    g.alone_ipc[solos[i].benchmark] = solo_runs[i].cores.front().ipc;
  }
  stats.jobs += solo_stats.jobs;
  stats.cache_hits += solo_stats.cache_hits;
  stats.cache_misses += solo_stats.cache_misses;
  stats.wall_seconds += solo_stats.wall_seconds;
  stats.job_seconds += solo_stats.job_seconds;

  for (const auto& fig : paper_figures()) render(fig, g);

  for (std::size_t m = 0; m < g.mixes.size(); ++m) {
    for (const auto& p : g.policies) {
      std::cout << "{\"paper_eval\":{\"mix\":\"" << g.mixes[m].name << "\",\"policy\":\"" << p
                << "\",\"cores\":[";
      const auto& cores = g.run(m, p).cores;
      for (std::size_t c = 0; c < cores.size(); ++c) {
        std::cout << (c ? "," : "") << "{\"benchmark\":\"" << cores[c].benchmark << "\",";
        print_counters(cores[c].counters);
        std::cout << "}";
      }
      std::cout << "]}}\n";
    }
  }
  for (std::size_t i = 0; i < solos.size(); ++i) {
    std::cout << "{\"paper_eval\":{\"solo\":\"" << solos[i].benchmark << "\",";
    print_counters(solo_runs[i].cores.front().counters);
    std::cout << "}}\n";
  }
  bench::print_batch_summary(stats);
  return 0;
}
