#include "trace.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/run_harness.hpp"
#include "core/epoch_driver.hpp"
#include "obs/jsonl_sink.hpp"
#include "workloads.hpp"
#include "workloads/benchmark_specs.hpp"

namespace perfbench {

using namespace cmm;

void SimStats::merge(const SimStats& o) {
  l1_accesses += o.l1_accesses;
  l1_hits += o.l1_hits;
  l2_accesses += o.l2_accesses;
  l2_hits += o.l2_hits;
  llc_accesses += o.llc_accesses;
  llc_hits += o.llc_hits;
  llc_evictions += o.llc_evictions;
  l2_pf_used += o.l2_pf_used;
  l2_pf_unused += o.l2_pf_unused;
  pf_issued += o.pf_issued;
  mem_requests += o.mem_requests;
  instructions += o.instructions;
  cycles += o.cycles;
  stalls += o.stalls;
}

void SimStats::collect(const sim::MulticoreSystem& system) {
  for (CoreId c = 0; c < system.num_cores(); ++c) {
    const auto& core = system.core(c);
    const auto& l1 = core.l1().stats();
    const auto& l2 = core.l2().stats();
    l1_accesses += l1.demand_accesses;
    l1_hits += l1.demand_hits;
    l2_accesses += l2.demand_accesses;
    l2_hits += l2.demand_hits;
    l2_pf_used += l2.prefetched_lines_used;
    l2_pf_unused += l2.prefetched_lines_evicted_unused;
    for (const auto& engine : core.prefetchers()) pf_issued += engine->issued();
    const auto& traffic = system.memory(system.domain_of(c)).core_traffic(c);
    mem_requests += traffic.demand_requests + traffic.prefetch_requests;
    const auto& pmu = system.pmu().core(c);
    instructions += pmu.instructions;
    cycles += pmu.cycles;
    stalls += pmu.stalls_l2_pending;
  }
  for (unsigned d = 0; d < system.num_domains(); ++d) {
    const auto& llc = system.llc(d).stats();
    llc_accesses += llc.demand_accesses;
    llc_hits += llc.demand_hits;
    llc_evictions += llc.evictions;
  }
}

void LayerTimes::merge(const LayerTimes& o) {
  opgen.merge(o.opgen);
  policy.merge(o.policy);
  hw.merge(o.hw);
  obs.merge(o.obs);
  driver.merge(o.driver);
  epochs += o.epochs;
  obs_bytes += o.obs_bytes;
  pmu_reads += o.pmu_reads;
  pmu_monotone_violations += o.pmu_monotone_violations;
  epoch_log_entries += o.epoch_log_entries;
  retries += o.retries;
  watchdog_restores += o.watchdog_restores;
  sim.merge(o.sim);
}

// ------------------------------------------------------------ op source

sim::Op TimedOpSource::next() {
  Timed t(span_);
  ++span_.items;
  return inner_->next();
}

std::size_t TimedOpSource::next_batch(std::span<sim::Op> out) {
  Timed t(span_);
  const std::size_t n = inner_->next_batch(out);
  span_.items += n;
  return n;
}

// ---------------------------------------------------------------- policy

core::ResourceConfig TimedPolicy::initial_config(unsigned cores, unsigned ways) {
  Timed t(lt_.policy);
  return inner_->initial_config(cores, ways);
}

void TimedPolicy::begin_profiling(const std::vector<sim::PmuCounters>& epoch_delta) {
  Timed t(lt_.policy);
  ++lt_.epochs;
  inner_->begin_profiling(epoch_delta);
}

std::optional<core::ResourceConfig> TimedPolicy::next_sample() {
  Timed t(lt_.policy);
  auto sample = inner_->next_sample();
  if (sample.has_value()) ++lt_.policy.items;
  return sample;
}

void TimedPolicy::report_sample(const core::SampleStats& stats) {
  Timed t(lt_.policy);
  inner_->report_sample(stats);
}

core::ResourceConfig TimedPolicy::final_config() {
  Timed t(lt_.policy);
  return inner_->final_config();
}

void TimedPolicy::notify_degraded(bool prefetch_available, bool cat_available) {
  Timed t(lt_.policy);
  inner_->notify_degraded(prefetch_available, cat_available);
}

void TimedPolicy::notify_degraded(bool prefetch_available, bool cat_available,
                                  bool mba_available) {
  Timed t(lt_.policy);
  inner_->notify_degraded(prefetch_available, cat_available, mba_available);
}

void TimedPolicy::notify_membership_change(const std::vector<CoreId>& cores) {
  Timed t(lt_.policy);
  inner_->notify_membership_change(cores);
}

// ------------------------------------------------------------------- HAL

std::uint64_t TimedMsr::read(CoreId core, std::uint32_t msr) const {
  Timed t(lt_.hw);
  return inner_.read(core, msr);
}

void TimedMsr::write(CoreId core, std::uint32_t msr, std::uint64_t value) {
  Timed t(lt_.hw);
  inner_.write(core, msr, value);
}

std::vector<sim::PmuCounters> TimedPmu::read_all() const {
  std::vector<sim::PmuCounters> snapshot;
  {
    Timed t(lt_.hw);
    snapshot = inner_.read_all();
  }
  ++lt_.pmu_reads;
  if (!last_.empty() && !monotone(snapshot, last_)) ++lt_.pmu_monotone_violations;
  last_ = snapshot;
  return snapshot;
}

void TimedCat::apply(const std::vector<WayMask>& per_core_masks) {
  Timed t(lt_.hw);
  inner_.apply(per_core_masks);
}

std::vector<WayMask> TimedCat::current() const {
  Timed t(lt_.hw);
  return inner_.current();
}

void TimedCat::reset() {
  Timed t(lt_.hw);
  inner_.reset();
}

void TimedMba::apply(const std::vector<std::uint8_t>& per_core_levels) {
  Timed t(lt_.hw);
  inner_.apply(per_core_levels);
}

std::vector<std::uint8_t> TimedMba::current() const {
  Timed t(lt_.hw);
  return inner_.current();
}

void TimedMba::reset() {
  Timed t(lt_.hw);
  inner_.reset();
}

// ------------------------------------------------------- traced run_mix

analysis::RunResult traced_run_mix(const workloads::WorkloadMix& mix, const std::string& policy,
                                   const analysis::RunParams& params, LayerTimes& lt) {
  sim::MulticoreSystem system(params.machine);
  if (mix.benchmarks.size() != system.num_cores())
    throw std::invalid_argument("mix size does not match core count");
  // Same op sources, seeds and attach order as workloads::attach_mix.
  for (CoreId c = 0; c < system.num_cores(); ++c) {
    system.set_op_source(
        c, std::make_shared<TimedOpSource>(
               workloads::make_op_source(mix.benchmarks[c], system.config(), c,
                                         params.seed + 0x1000ULL * c),
               lt.opgen));
  }

  TimedPolicy timed_policy(analysis::make_policy(policy, params.detector()), lt);
  hw::SimMsrDevice sim_msr(system);
  hw::SimPmuReader sim_pmu(system);
  hw::SimCatController sim_cat(system);
  hw::SimMbaController sim_mba(system);
  TimedMsr msr(sim_msr, lt);
  TimedPmu pmu(sim_pmu, lt);
  TimedCat cat(sim_cat, lt);
  TimedMba mba(sim_mba, lt);

  std::ostringstream trace_bytes;
  obs::JsonlTraceSink jsonl(trace_bytes);
  TimedSink sink(jsonl, lt.obs);
  core::EpochConfig epochs = params.epochs;
  epochs.sink = &sink;

  core::EpochDriver driver(system, timed_policy, msr, pmu, cat, mba, epochs);
  // Policy::set_trace is not virtual: hand the wrapped policy the
  // driver's trace handle so its detector events reach the sink too.
  timed_policy.inner().set_trace(driver.trace());
  {
    Timed t(lt.driver);
    driver.run(params.run_cycles);
  }
  jsonl.flush();
  lt.obs_bytes += trace_bytes.str().size();
  lt.epoch_log_entries += driver.log().size();
  lt.retries += driver.health().count(core::HealthEventKind::HwRetry);
  lt.watchdog_restores += driver.health().count(core::HealthEventKind::WatchdogRestore);
  lt.sim.collect(system);

  // Result assembly exactly as analysis::run_mix does it.
  analysis::RunResult result;
  const auto& exec = driver.execution_counters();
  for (CoreId c = 0; c < exec.size(); ++c) {
    result.cores.push_back(
        analysis::make_core_stats(mix.benchmarks[c], exec[c], params.machine.freq_ghz));
    result.measured_cycles = std::max<Cycle>(result.measured_cycles, exec[c].cycles);
  }
  return result;
}

// ------------------------------------------------------ layer metrics

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void add_layer_metrics(const LayerTimes& lt, Outcome& out) {
  auto& m = out.layers;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double driver_ns = d(lt.driver.ns);
  const double children_ns = d(lt.opgen.ns + lt.policy.ns + lt.hw.ns + lt.obs.ns);
  const double sim_self_ns = driver_ns - children_ns;
  const double epochs = d(lt.epochs);
  const double kinstr = d(lt.sim.instructions) / 1e3;

  m["workloads.opgen_ns_per_op"] = ratio(d(lt.opgen.ns), d(lt.opgen.items));
  m["workloads.opgen_share"] = ratio(d(lt.opgen.ns), driver_ns);
  m["sim.self_ns_per_instr"] = ratio(sim_self_ns, d(lt.sim.instructions));
  m["sim.self_share"] = ratio(sim_self_ns, driver_ns);
  m["core.policy_us_per_epoch"] = ratio(d(lt.policy.ns) / 1e3, epochs);
  m["core.policy_share"] = ratio(d(lt.policy.ns), driver_ns);
  m["core.samples_per_epoch"] = ratio(d(lt.policy.items), epochs);
  m["core.epoch_log_entries"] = d(lt.epoch_log_entries);
  m["core.watchdog_restores"] = d(lt.watchdog_restores);
  m["hw.retries"] = d(lt.retries);
  m["obs.events"] = d(lt.obs.items);
  m["obs.ns_per_event"] = ratio(d(lt.obs.ns), d(lt.obs.items));
  m["obs.bytes_per_epoch"] = ratio(d(lt.obs_bytes), epochs);
  m["obs.share"] = ratio(d(lt.obs.ns), driver_ns);
  // The child spans sit inside the driver span; their shares plus
  // sim.self_share add up to 1 when the accounting is complete.
  m["trace.child_share"] = ratio(children_ns, driver_ns);
  m["trace.driver_s"] = driver_ns / 1e9;

  if (lt.hw.calls > 0) {
    m["hw.calls_per_epoch"] = ratio(d(lt.hw.calls), epochs);
    m["hw.us_per_epoch"] = ratio(d(lt.hw.ns) / 1e3, epochs);
    m["hw.share"] = ratio(d(lt.hw.ns), driver_ns);
  }

  const SimStats& s = lt.sim;
  m["sim.l1.hit_ratio"] = ratio(d(s.l1_hits), d(s.l1_accesses));
  m["sim.l2.hit_ratio"] = ratio(d(s.l2_hits), d(s.l2_accesses));
  m["sim.llc.hit_ratio"] = ratio(d(s.llc_hits), d(s.llc_accesses));
  m["sim.llc.evictions_per_kinstr"] = ratio(d(s.llc_evictions), kinstr);
  m["sim.l2.prefetch_accuracy"] = ratio(d(s.l2_pf_used), d(s.l2_pf_used + s.l2_pf_unused));
  m["sim.pf.issued_per_kinstr"] = ratio(d(s.pf_issued), kinstr);
  m["sim.mem.requests_per_kinstr"] = ratio(d(s.mem_requests), kinstr);
  m["sim.stall_share"] = ratio(d(s.stalls), d(s.cycles));
}

}  // namespace perfbench
