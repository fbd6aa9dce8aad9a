// Component replays: each simulator component is driven alone with
// memory-reference streams recorded from the workload's own op sources
// (same benchmarks, cores and seeds as the workload installed), so the
// per-call costs describe the traffic the workload actually makes.
// Units: ns per call, except invalidate_owner (a full-cache sweep) in
// us per call.
#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "common/bitmask.hpp"
#include "sim/cache.hpp"
#include "sim/memory_controller.hpp"
#include "sim/prefetcher_registry.hpp"
#include "workloads.hpp"
#include "workloads/address_stream.hpp"
#include "workloads/benchmark_specs.hpp"

namespace perfbench {

using namespace cmm;

namespace {

constexpr std::size_t kOpsPerStream = std::size_t{1} << 16;
constexpr std::size_t kRefsPerPattern = std::size_t{1} << 15;

using PatternKind = workloads::PatternSpec::Kind;

const char* kind_name(PatternKind k) {
  switch (k) {
    case PatternKind::Stream: return "stream";
    case PatternKind::Strided: return "strided";
    case PatternKind::Random: return "random";
    case PatternKind::BurstRandom: return "burst_random";
    case PatternKind::Chase: return "chase";
  }
  return "unknown";
}

/// Host cost of one steady_clock pair, subtracted from per-call timings.
double clock_pair_ns() {
  std::array<double, 64> samples{};
  for (auto& s : samples) {
    for (int i = 0; i < 64; ++i) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      s += static_cast<double>(nanos_between(a, b));
    }
    s /= 64.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct Ref {
  Addr line;
  CoreId core;
  bool store;
};

struct Recorded {
  std::vector<std::vector<sim::Op>> ops;  // per stream
  std::vector<CoreId> cores;              // per stream
  double opgen_ns = 0.0;
  std::uint64_t opgen_ops = 0;
};

Recorded record_streams(const sim::MachineConfig& machine,
                        const std::vector<StreamSpec>& streams) {
  Recorded rec;
  for (const auto& s : streams) {
    auto source = workloads::make_op_source(s.benchmark, machine, s.core, s.seed);
    std::vector<sim::Op> ops(kOpsPerStream);
    const auto t0 = Clock::now();
    for (std::size_t pos = 0; pos < ops.size();) {
      const std::size_t want = std::min(sim::kOpBatch, ops.size() - pos);
      pos += source->next_batch(std::span<sim::Op>(ops.data() + pos, want));
    }
    rec.opgen_ns += static_cast<double>(nanos_between(t0, Clock::now()));
    rec.opgen_ops += ops.size();
    rec.ops.push_back(std::move(ops));
    rec.cores.push_back(s.core);
  }
  return rec;
}

/// Per-kind address-generation cost: every pattern of the workload's
/// benchmarks built alone, plus whole multi-pattern mixtures. A kind
/// the workload never uses is measured on the suite's benchmarks that
/// use it, and counted in workloads.pattern_fallbacks.
void replay_patterns(const sim::MachineConfig& machine, const std::vector<StreamSpec>& streams,
                     Outcome& out) {
  std::map<std::string, std::pair<double, std::uint64_t>> cost;  // kind -> (ns, calls)
  auto time_stream = [&](const workloads::BenchmarkSpec& spec, const std::string& kind,
                         const StreamSpec& at) {
    auto stream = workloads::make_address_stream(spec, machine, at.core, at.seed);
    Addr sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kRefsPerPattern; ++i) sink ^= stream->next().addr;
    auto& c = cost[kind];
    c.first += static_cast<double>(nanos_between(t0, Clock::now()));
    c.second += kRefsPerPattern;
    out.info["replay.pattern_sink"] = static_cast<double>(sink & 0xFF);
  };
  // `at` gives each spec's core and seed.
  auto replay_specs = [&](const std::vector<const workloads::BenchmarkSpec*>& specs,
                          const std::vector<StreamSpec>& at,
                          const std::vector<PatternKind>& only_kinds, bool mixtures) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& spec = *specs[i];
      for (const auto& p : spec.patterns) {
        if (!only_kinds.empty() &&
            std::find(only_kinds.begin(), only_kinds.end(), p.kind) == only_kinds.end())
          continue;
        workloads::BenchmarkSpec single = spec;
        single.patterns = {p};
        time_stream(single, kind_name(p.kind), at[i]);
      }
      if (mixtures && spec.patterns.size() > 1) time_stream(spec, "mixture", at[i]);
    }
  };

  std::vector<const workloads::BenchmarkSpec*> own;
  for (const auto& s : streams) own.push_back(&workloads::spec_by_name(s.benchmark));
  replay_specs(own, streams, {}, /*mixtures=*/true);

  std::vector<PatternKind> missing;
  for (const auto k : {PatternKind::Stream, PatternKind::Strided, PatternKind::Random,
                       PatternKind::BurstRandom, PatternKind::Chase}) {
    if (!cost.contains(kind_name(k))) missing.push_back(k);
  }
  // Fallbacks run on the suite's benchmarks with the first stream's seed.
  std::vector<const workloads::BenchmarkSpec*> suite;
  std::vector<StreamSpec> suite_at;
  for (const auto& spec : workloads::benchmark_suite()) {
    suite.push_back(&spec);
    suite_at.push_back({spec.name, static_cast<CoreId>(suite_at.size() % machine.num_cores),
                        streams.front().seed});
  }
  if (!missing.empty()) replay_specs(suite, suite_at, missing, /*mixtures=*/false);
  const bool need_mixture = !cost.contains("mixture");
  if (need_mixture) replay_specs(suite, suite_at, {PatternKind::Stream}, /*mixtures=*/true);
  out.layers["workloads.pattern_fallbacks"] =
      static_cast<double>(missing.size() + (need_mixture ? 1 : 0));

  for (const char* kind : {"stream", "strided", "random", "burst_random", "chase", "mixture"}) {
    const auto& c = cost[kind];
    out.layers[std::string("workloads.pattern_ns.") + kind] =
        c.second > 0 ? c.first / static_cast<double>(c.second) : 0.0;
  }
}

/// Runs every recorded stream through private L1/L2 models to find the
/// observations each prefetch level sees, then times observe() of every
/// registered engine over them.
std::vector<Ref> replay_prefetchers(const sim::MachineConfig& machine, const Recorded& rec,
                                    Outcome& out) {
  std::vector<Ref> l2_misses;
  std::vector<std::vector<sim::PrefetchObservation>> l1_obs(rec.ops.size());
  std::vector<std::vector<sim::PrefetchObservation>> l2_obs(rec.ops.size());
  const Addr shift = kLineShiftDefault;
  for (std::size_t s = 0; s < rec.ops.size(); ++s) {
    sim::SetAssocCache l1(machine.l1d);
    sim::SetAssocCache l2(machine.l2);
    const CoreId core = rec.cores[s];
    Cycle now = 0;
    for (const auto& op : rec.ops[s]) {
      now += op.instructions;
      if (!op.has_mem) continue;
      const Addr line = op.mem.addr >> shift;
      const auto type = op.mem.is_store ? AccessType::DemandStore : AccessType::DemandLoad;
      const bool l1_hit = l1.access(line, type, now).hit;
      l1_obs[s].push_back({line, op.mem.ip, !l1_hit});
      if (l1_hit) continue;
      l1.fill(line, type, now, now, full_mask(machine.l1d.ways));
      const bool l2_hit = l2.access(line, type, now).hit;
      l2_obs[s].push_back({line, op.mem.ip, !l2_hit});
      if (l2_hit) continue;
      l2.fill(line, type, now, now, full_mask(machine.l2.ways));
      l2_misses.push_back({line, core, op.mem.is_store});
    }
  }

  std::vector<Addr> candidates;
  for (const auto& info : sim::prefetcher_registry()) {
    const auto& obs = info.level == sim::PrefetchLevel::L1 ? l1_obs : l2_obs;
    double ns = 0.0;
    std::uint64_t calls = 0;
    for (const auto& stream : obs) {
      auto engine = info.make();
      const auto t0 = Clock::now();
      for (const auto& o : stream) {
        candidates.clear();
        engine->observe(o, candidates);
      }
      ns += static_cast<double>(nanos_between(t0, Clock::now()));
      calls += stream.size();
    }
    out.layers["sim.pf.observe_ns." + std::string(info.name)] =
        calls > 0 ? ns / static_cast<double>(calls) : 0.0;
  }
  return l2_misses;
}

/// The LLC sees the streams' L2 misses interleaved in fixed chunks, as
/// cores sharing it would; access() and fill() are timed per call.
void replay_llc_and_memory(const sim::MachineConfig& machine, const std::vector<Ref>& refs,
                           unsigned owners, Outcome& out) {
  const double overhead = clock_pair_ns();
  sim::SetAssocCache llc(machine.llc);
  const WayMask mask = full_mask(machine.llc.ways);
  double access_ns = 0.0, fill_ns = 0.0;
  std::uint64_t accesses = 0, fills = 0;
  std::vector<Ref> misses;
  Cycle now = 0;
  for (const auto& r : refs) {
    now += 4;
    const auto type = r.store ? AccessType::DemandStore : AccessType::DemandLoad;
    auto t0 = Clock::now();
    const bool hit = llc.access(r.line, type, now).hit;
    access_ns += static_cast<double>(nanos_between(t0, Clock::now())) - overhead;
    ++accesses;
    if (hit) continue;
    misses.push_back(r);
    t0 = Clock::now();
    llc.fill(r.line, type, now, now, mask, r.core);
    fill_ns += static_cast<double>(nanos_between(t0, Clock::now())) - overhead;
    ++fills;
  }
  out.layers["sim.cache.access_ns"] = accesses > 0 ? access_ns / static_cast<double>(accesses) : 0.0;
  out.layers["sim.cache.fill_ns"] = fills > 0 ? fill_ns / static_cast<double>(fills) : 0.0;

  // Hotplug sweep: drop each owner's footprint from the filled LLC.
  const auto t_inv = Clock::now();
  std::size_t dropped = 0;
  for (CoreId c = 0; c < owners; ++c) dropped += llc.invalidate_owner(c);
  out.layers["sim.cache.invalidate_owner_us"] =
      static_cast<double>(nanos_between(t_inv, Clock::now())) / 1e3 / owners;
  out.info["replay.invalidated_lines"] = static_cast<double>(dropped);

  sim::MemoryController mem(machine, owners);
  Cycle t = 0;
  Cycle latency_sum = 0;
  const auto t_mem = Clock::now();
  for (const auto& r : misses) {
    t += 8;
    latency_sum += mem.request(r.core, AccessType::DemandLoad, t);
  }
  const double mem_ns = static_cast<double>(nanos_between(t_mem, Clock::now()));
  out.layers["sim.mem.request_ns"] =
      misses.empty() ? 0.0 : mem_ns / static_cast<double>(misses.size());
  out.info["replay.mem_mean_latency_cycles"] =
      misses.empty() ? 0.0 : static_cast<double>(latency_sum) / static_cast<double>(misses.size());
}

}  // namespace

void add_stream(std::vector<StreamSpec>& streams, StreamSpec s) {
  for (const auto& have : streams) {
    if (have.benchmark == s.benchmark) return;
  }
  streams.push_back(std::move(s));
}

void run_component_replays(const sim::MachineConfig& machine,
                           const std::vector<StreamSpec>& streams, Outcome& out) {
  if (streams.empty()) throw std::invalid_argument("component replays need a stream");
  const Recorded rec = record_streams(machine, streams);
  out.layers["workloads.opgen_replay_ns_per_op"] =
      rec.opgen_ops > 0 ? rec.opgen_ns / static_cast<double>(rec.opgen_ops) : 0.0;
  replay_patterns(machine, streams, out);

  const auto l2_misses = replay_prefetchers(machine, rec, out);
  // Interleave the per-core miss sequences in 64-reference chunks.
  std::vector<std::vector<Ref>> per_core(machine.num_cores);
  for (const auto& r : l2_misses) per_core[r.core].push_back(r);
  std::vector<Ref> interleaved;
  interleaved.reserve(l2_misses.size());
  for (std::size_t pos = 0;; pos += 64) {
    bool any = false;
    for (const auto& s : per_core) {
      for (std::size_t i = pos; i < std::min(pos + 64, s.size()); ++i) {
        interleaved.push_back(s[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  replay_llc_and_memory(machine, interleaved, machine.num_cores, out);
}

}  // namespace perfbench
