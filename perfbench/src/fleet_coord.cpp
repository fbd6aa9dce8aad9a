// fleet_coord: an 8-domain x 4-core fleet (scale 32, like fleet_migrate's
// rung) that starts from a pathological placement — the bandwidth-heavy
// tenants packed onto the low domains — with the FleetCoordinator
// running every slice and seeded tenant churn. It exercises what the
// other workloads never touch: the sharded runner's per-slice barriers
// (the slowest shard sets the time), live migration and hotplug cold
// restarts (LLC invalidate_owner sweeps instead of probe/fill), and
// small per-domain caches.
#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>

#include "analysis/fleet.hpp"
#include "analysis/solo_cache.hpp"
#include "analysis/speedup_metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/epoch_driver.hpp"
#include "obs/jsonl_sink.hpp"
#include "workloads.hpp"
#include "workloads/benchmark_specs.hpp"
#include "workloads/workload_mix.hpp"

namespace perfbench {

using namespace cmm;

namespace {

constexpr unsigned kDomains = 8;
constexpr unsigned kCoresPerDomain = 4;
constexpr unsigned kScale = 32;
constexpr unsigned kInputs = 8;  // distinct fleets per pass

struct FleetInput {
  analysis::FleetConfig cfg;
  std::vector<workloads::WorkloadMix> shards;  // pathological placement
  std::vector<std::string> tenants;            // global core order
};

/// Replacement tenants drawn on churn: one of each suite class.
std::vector<std::string> churn_catalog() {
  return {"mcf", "omnetpp", "sphinx3", "rand_access", "h264ref", "zeusmp"};
}

FleetInput make_input(std::uint64_t seed, unsigned j) {
  FleetInput in;
  Rng rng(derive_seed(seed, j));
  auto& cfg = in.cfg;
  cfg.params.machine = sim::MachineConfig::fleet(kDomains, kCoresPerDomain, kScale);
  cfg.params.warmup_cycles = 100'000;
  cfg.params.run_cycles = 900'000;
  cfg.params.epochs.execution_epoch = 100'000;
  cfg.params.epochs.sampling_interval = 10'000;
  cfg.params.seed = derive_seed(seed, 200 + j);
  cfg.policy = "cmm_c";
  cfg.coordinator_period = 1;
  cfg.migration_budget = 2;
  cfg.churn_slice = cfg.params.epochs.execution_epoch + 8 * cfg.params.epochs.sampling_interval;
  cfg.churn_per_mille = 250;
  cfg.churn_seed = derive_seed(seed, 100 + j);
  cfg.churn_catalog = churn_catalog();

  // Heavy half of the fleet: prefetch-aggressive streams; light half:
  // compute-bound tenants (fleet_migrate's pools). Packing them apart is
  // what the coordinator must unwind; the seed rotates who sits where.
  const std::vector<std::string> heavy{"lbm", "libquantum", "milc", "bwaves"};
  const std::vector<std::string> light{"povray", "calculix", "gobmk", "namd"};
  const auto rotation = rng.next_below(kCoresPerDomain);
  in.shards.resize(kDomains);
  for (unsigned d = 0; d < kDomains; ++d) {
    in.shards[d].name = "fleet_d" + std::to_string(d);
    const auto& pool = d < kDomains / 2 ? heavy : light;
    for (unsigned c = 0; c < kCoresPerDomain; ++c) {
      in.shards[d].benchmarks.push_back(pool[(c + d + rotation) % pool.size()]);
      in.tenants.push_back(in.shards[d].benchmarks.back());
    }
  }
  return in;
}

/// Builds the inputs, then what run_fleet builds before its first
/// slice: one system, op-source set, policy and driver per domain.
std::vector<FleetInput> set_up(std::uint64_t seed) {
  std::vector<FleetInput> inputs;
  for (unsigned j = 0; j < kInputs; ++j) inputs.push_back(make_input(seed, j));
  for (const auto& in : inputs) {
    for (unsigned d = 0; d < kDomains; ++d) {
      analysis::RunParams p = in.cfg.params;
      p.machine = in.cfg.params.machine.domain_config(d);
      sim::MulticoreSystem system(p.machine);
      workloads::attach_mix(system, in.shards[d], p.seed);
      const auto policy = analysis::make_policy(in.cfg.policy, p.detector());
      core::EpochDriver driver(system, *policy, p.epochs);
    }
  }
  return inputs;
}

struct RunOut {
  analysis::FleetResult result;
  std::vector<workloads::WorkloadMix> placement;
  double fleet_ms = 0.0;
  double placement_ms = 0.0;
  std::string error;
};

RunOut run_one(const FleetInput& in, unsigned threads, obs::TraceSink* sink) {
  RunOut r;
  analysis::BatchOptions opts;
  opts.threads = threads;
  try {
    auto t0 = Clock::now();
    r.placement = analysis::plan_placement(in.tenants, analysis::PlacementMode::BandwidthBalanced,
                                           in.cfg.params, opts);
    r.placement_ms = seconds_between(t0, Clock::now()) * 1e3;
    analysis::FleetConfig cfg = in.cfg;
    cfg.coordinator_sink = sink;
    t0 = Clock::now();
    r.result = analysis::run_fleet(cfg, in.shards, opts);
    r.fleet_ms = seconds_between(t0, Clock::now()) * 1e3;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

std::string run_error(const FleetInput& in, const RunOut& r) {
  if (!r.error.empty()) return r.error;
  const auto& res = r.result;
  if (res.merged.cores.size() != kDomains * kCoresPerDomain) return "wrong core count";
  for (const auto& c : res.merged.cores) {
    if (auto v = counter_violation(c.counters); !v.empty()) return v;
  }
  for (const auto& m : res.migrations) {
    if (m.accepted && m.from_core / kCoresPerDomain == m.to_core / kCoresPerDomain)
      return "accepted migration within one domain";
  }
  if (!(res.hm_ipc > 0.0) || !std::isfinite(res.hm_ipc)) return "non-positive hm_ipc";
  // The balanced placement must be a permutation of the tenants.
  std::vector<std::string> placed;
  for (const auto& mix : r.placement) {
    if (mix.benchmarks.size() != kCoresPerDomain) return "placement shard size";
    placed.insert(placed.end(), mix.benchmarks.begin(), mix.benchmarks.end());
  }
  auto want = in.tenants;
  std::sort(placed.begin(), placed.end());
  std::sort(want.begin(), want.end());
  if (placed != want) return "placement is not a permutation of the tenants";
  return {};
}

void digest_into(const RunOut& r, Digest& d) {
  d.add(r.result.merged);
  d.add(r.result.hm_ipc);
  d.add(r.result.total_churn_swaps());
  for (const auto& m : r.result.migrations) {
    d.add(m.round);
    d.add(static_cast<std::uint64_t>(m.from_core));
    d.add(static_cast<std::uint64_t>(m.to_core));
    d.add(m.tenant_a);
    d.add(m.tenant_b);
    d.add(m.predicted_gain);
    d.add(static_cast<std::uint64_t>(m.accepted));
    d.add(m.reason);
  }
  for (const auto& mix : r.placement) {
    for (const auto& b : mix.benchmarks) d.add(b);
  }
}

struct Pass {
  std::vector<RunOut> runs;
  std::string digest;
};

Pass run_pass(const std::vector<FleetInput>& inputs, unsigned threads, obs::TraceSink* sink) {
  analysis::SoloRunCache::global().clear();
  Pass p;
  Digest d;
  for (const auto& in : inputs) {
    p.runs.push_back(run_one(in, threads, sink));
    digest_into(p.runs.back(), d);
  }
  p.digest = d.hex();
  return p;
}

}  // namespace

Outcome run_fleet_coord(const Options& opt) {
  Outcome out;
  out.primary_op = "fleet";
  const unsigned threads = resolve_threads(0);
  out.threads = threads;

  std::vector<FleetInput> inputs;
  for (int k = 0; k < kSetupRepetitions; ++k) {
    const auto t0 = k == 0 ? process_start() : Clock::now();
    inputs = set_up(opt.seed);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Pass first;
  const auto t_start = Clock::now();
  double elapsed = 0.0;
  while (true) {
    Pass pass = run_pass(inputs, threads, nullptr);
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const auto& r = pass.runs[j];
      ++out.attempted;
      if (const auto err = run_error(inputs[j], r); !err.empty()) {
        out.fail("fleet " + std::to_string(j) + ": " + err);
        continue;
      }
      out.latency_ms["fleet"].push_back(r.fleet_ms);
      out.latency_ms["placement"].push_back(r.placement_ms);
      out.sim_instructions += instructions_of(r.result.merged);
    }
    if (out.reps == 0) {
      first = std::move(pass);
    } else if (pass.digest != first.digest) {
      out.fail("pass " + std::to_string(out.reps) + " digest differs from pass 0");
    }
    ++out.reps;
    elapsed = seconds_between(t_start, Clock::now());
    if (elapsed + elapsed / static_cast<double>(out.reps) > opt.seconds) break;
  }
  out.timed_s = elapsed;
  out.digest = first.digest;

  std::vector<double> hm;
  double migrations = 0.0, ruled = 0.0, swaps = 0.0, idle = 0.0;
  for (const auto& r : first.runs) {
    hm.push_back(r.result.hm_ipc);
    migrations += static_cast<double>(r.result.accepted_migrations());
    ruled += static_cast<double>(r.result.migrations.size());
    swaps += static_cast<double>(r.result.total_churn_swaps());
    const auto& b = r.result.batch;
    idle += b.wall_seconds > 0.0 ? 1.0 - b.job_seconds / (b.wall_seconds * b.threads) : 0.0;
  }
  out.model["fleet_hm_ipc"] = analysis::mean(hm);
  out.model_score = "fleet_hm_ipc";
  out.info["migrations_accepted"] = migrations;
  out.info["churn_swaps"] = swaps;
  out.check("model_finite", std::isfinite(out.model["fleet_hm_ipc"]));

  if (!opt.trace) {
    // Thread-count invariance on one fleet: one worker vs the pool.
    const RunOut serial = run_one(inputs[0], 1, nullptr);
    out.check("one_thread_equals_n_threads",
              serial.error.empty() && serial.result.merged == first.runs[0].result.merged &&
                  serial.result.metrics.json() == first.runs[0].result.metrics.json());
    return out;
  }

  // Traced run. run_fleet builds its systems internally, so the fleet
  // itself is traced only at its boundary: spans around plan_placement
  // and run_fleet, the coordinator's event stream through a timed sink,
  // and the FleetResult counts.
  std::ostringstream coordinator_trace;
  obs::JsonlTraceSink jsonl(coordinator_trace);
  LayerTimes coordinator_lt;
  TimedSink sink(jsonl, coordinator_lt.obs);
  const auto t_traced = Clock::now();
  const Pass traced = run_pass(inputs, threads, &sink);
  const double traced_s = seconds_between(t_traced, Clock::now());
  jsonl.flush();
  out.check("traced_digest_equals_untraced", traced.digest == first.digest);
  double placement_ms = 0.0, fleet_ms = 0.0;
  for (const auto& r : traced.runs) {
    placement_ms += r.placement_ms;
    fleet_ms += r.fleet_ms;
  }

  // The per-layer split inside a fleet comes from its shards: each
  // domain's initial shard re-run alone (no coordinator, no churn) as a
  // traced run_mix on the domain machine, the configuration in which a
  // fleet shard is byte-identical to run_mix.
  std::vector<std::pair<const FleetInput*, unsigned>> shards;
  for (const auto& in : inputs) {
    for (unsigned d = 0; d < kDomains; ++d) shards.emplace_back(&in, d);
  }
  std::vector<LayerTimes> shard_lt(shards.size());
  analysis::BatchOptions opts;
  opts.threads = threads;
  analysis::run_batch(
      shards.size(),
      [&](std::size_t i) {
        const auto& [in, d] = shards[i];
        analysis::RunParams p = in->cfg.params;
        p.machine = in->cfg.params.machine.domain_config(d);
        traced_run_mix(in->shards[d], in->cfg.policy, p, shard_lt[i]);
      },
      opts);
  LayerTimes lt;
  for (const auto& l : shard_lt) lt.merge(l);
  out.check("pmu_monotone", lt.pmu_reads > 0 && lt.pmu_monotone_violations == 0);
  add_layer_metrics(lt, out);

  const double untraced_s = elapsed / static_cast<double>(out.reps);
  out.layers["obs.trace_overhead"] = traced_s / untraced_s - 1.0;
  out.layers["hw.faults_injected"] = 0.0;  // the fleet runs without a fault plan
  out.layers["obs.coordinator_events"] = static_cast<double>(coordinator_lt.obs.items);
  out.layers["analysis.placement_ms"] = placement_ms / static_cast<double>(traced.runs.size());
  out.layers["analysis.placement_share"] = placement_ms / (placement_ms + fleet_ms);
  out.layers["analysis.fleet.migrations_accepted"] = migrations;
  out.layers["analysis.fleet.migration_accept_ratio"] = ruled > 0.0 ? migrations / ruled : 0.0;
  out.layers["analysis.fleet.churn_swaps"] = swaps;
  out.layers["analysis.fleet.barrier_idle_share"] = idle / static_cast<double>(first.runs.size());

  // The first stream of each initial tenant, on its domain-local core
  // with the seed run_fleet gives it (as attach_mix does per shard).
  // Churn replacements are left out: run_fleet derives their seeds
  // internally.
  std::vector<StreamSpec> streams;
  for (const auto& in : inputs) {
    for (const auto& shard : in.shards) {
      for (CoreId c = 0; c < shard.benchmarks.size(); ++c)
        add_stream(streams, {shard.benchmarks[c], c, in.cfg.params.seed + 0x1000ULL * c});
    }
  }
  run_component_replays(inputs[0].cfg.params.machine.domain_config(0), streams, out);
  return out;
}

}  // namespace perfbench
