// service_soak: one closed-loop caller drives a long-running
// ServiceDriver through attach/detach/tick, each call issued only after
// the previous one returned. The arrival/departure schedule and the MSR
// fault plan (sticky faults with a repair window, plus one core whose
// prefetch MSR is permanently offline) are generated here from the
// seed. This is the workload where per-call latency and memory matter
// more than throughput: admission and queueing, solo memo-cache misses
// on attach, the retry -> degrade -> recover ladder, idle cores that
// generate no ops, and the driver's epoch log growing with run length.
#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>

#include "analysis/run_harness.hpp"
#include "analysis/solo_cache.hpp"
#include "common/rng.hpp"
#include "obs/jsonl_sink.hpp"
#include "service/service_driver.hpp"
#include "workloads.hpp"
#include "workloads/benchmark_specs.hpp"

namespace perfbench {

using namespace cmm;

namespace {

constexpr unsigned kSessions = 8;  // distinct schedules per pass
constexpr unsigned kTicks = 150;   // service ticks per session
constexpr std::size_t kArrivalStride = 5;  // coprime with the suite size
constexpr double kArrivalP = 0.45;
constexpr double kDepartureP = 0.20;
constexpr double kSlo = 0.20;

struct TickPlan {
  bool arrive = false;
  service::TenantSpec spec;
  bool depart = false;
};

struct Session {
  service::ServiceConfig cfg;
  hw::FaultPlan faults;
  std::vector<TickPlan> plan;
};

Session make_session(std::uint64_t seed, unsigned s) {
  Session ses;
  auto& p = ses.cfg.params;
  p.machine = sim::MachineConfig::scaled(32);
  p.warmup_cycles = 200'000;
  p.run_cycles = 600'000;
  p.epochs.execution_epoch = 60'000;
  p.epochs.sampling_interval = 4'000;
  p.epochs.probe_period_epochs = 3;
  p.seed = derive_seed(seed, 300 + s);
  ses.cfg.health_capacity = 256;

  ses.faults.seed = derive_seed(seed, 400 + s);
  ses.faults.msr_write_fail_p = 0.02;
  ses.faults.transient_fraction = 0.0;  // every hit is sticky -> ladder
  ses.faults.repair_after_calls = 300;  // ...until the repair window
  ses.faults.offline_cores = {p.machine.num_cores - 1};

  // Arrivals walk the suite in a fixed interleaved order (heavy and
  // light classes alternate), so every seed serves the same tenant mix;
  // the seed decides when tenants arrive and leave.
  const auto& suite = workloads::benchmark_suite();
  std::size_t arrivals = 0;
  Rng rng(derive_seed(seed, 500 + s));
  for (unsigned t = 0; t < kTicks; ++t) {
    TickPlan tp;
    tp.arrive = rng.next_bool(kArrivalP);
    tp.depart = rng.next_bool(kDepartureP);
    if (tp.arrive) tp.spec.benchmark = suite[(kArrivalStride * arrivals++) % suite.size()].name;
    tp.spec.slo = kSlo;
    tp.spec.seed = rng.next();
    ses.plan.push_back(std::move(tp));
  }
  return ses;
}

std::unique_ptr<service::ServiceDriver> make_driver(const Session& ses,
                                                    std::unique_ptr<core::Policy> policy,
                                                    obs::TraceSink* sink) {
  if (!policy) policy = analysis::make_policy("cmm_c", ses.cfg.params.detector());
  return std::make_unique<service::ServiceDriver>(ses.cfg, std::move(policy), ses.faults, sink);
}

/// The schedules, then one freshly constructed service per session.
std::vector<Session> set_up(std::uint64_t seed) {
  std::vector<Session> sessions;
  for (unsigned s = 0; s < kSessions; ++s) {
    sessions.push_back(make_session(seed, s));
    make_driver(sessions.back(), nullptr, nullptr);
  }
  return sessions;
}

/// Tracing hooks of one session (null members = untraced).
struct Tracing {
  LayerTimes* lt = nullptr;
  obs::TraceSink* sink = nullptr;
  std::vector<StreamSpec>* streams = nullptr;  // op streams the service installed
};

struct SessionOut {
  std::string digest;
  std::uint64_t served = 0, met = 0;
  std::uint64_t instructions = 0;
  std::uint64_t queue_depth_max = 0;
  std::uint64_t epoch_log_max = 0;
  std::uint64_t admitted = 0, queued = 0, rejected = 0, breaches = 0, health_dropped = 0;
  std::uint64_t faults_injected = 0, retries = 0, watchdog = 0;
  std::uint64_t solo_hits = 0, solo_misses = 0;
};

/// Wraps the op source of every tenant installed since `before` in a
/// timing decorator and records its stream for the component replays.
/// Done right after the installing call returns, when the fresh source
/// has produced nothing yet, with the same benchmark, machine and seed
/// ServiceDriver used, so the stream is unchanged.
void wrap_new_tenants(service::ServiceDriver& svc,
                      const std::vector<std::optional<service::TenantState>>& before,
                      const service::ServiceConfig& cfg, const Tracing& tr) {
  const auto& now = svc.tenants();
  for (CoreId c = 0; c < now.size(); ++c) {
    if (!now[c].has_value()) continue;
    const bool fresh = !before[c].has_value() || before[c]->attach_tick != now[c]->attach_tick ||
                       before[c]->spec.seed != now[c]->spec.seed;
    if (!fresh) continue;
    const StreamSpec stream{now[c]->spec.benchmark, c, now[c]->spec.seed + 0x1000ULL * c};
    svc.system().set_op_source(
        c, std::make_shared<TimedOpSource>(
               workloads::make_op_source(stream.benchmark, cfg.params.machine, c, stream.seed),
               tr.lt->opgen));
    add_stream(*tr.streams, stream);
  }
}

SessionOut run_session(const Session& ses, Outcome& out, const Tracing& tr) {
  SessionOut so;
  auto& cache = analysis::SoloRunCache::global();
  const std::size_t hits0 = cache.hits(), misses0 = cache.misses();
  std::unique_ptr<core::Policy> policy;
  if (tr.lt != nullptr) {
    policy = std::make_unique<TimedPolicy>(
        analysis::make_policy("cmm_c", ses.cfg.params.detector()), *tr.lt);
  }
  auto svc = make_driver(ses, std::move(policy), tr.sink);
  Digest d;
  std::vector<sim::PmuCounters> last = svc->system().pmu().snapshot();

  auto timed_call = [&](const char* kind, auto&& call) {
    std::vector<std::optional<service::TenantState>> before;
    if (tr.lt != nullptr) before = svc->tenants();
    ++out.attempted;
    const auto t0 = Clock::now();
    call();
    out.latency_ms[kind].push_back(seconds_between(t0, Clock::now()) * 1e3);
    if (tr.lt != nullptr) wrap_new_tenants(*svc, before, ses.cfg, tr);
  };

  try {
    for (const auto& tp : ses.plan) {
      if (tp.arrive) {
        service::AdmissionResult r;
        timed_call("attach", [&] { r = svc->attach(tp.spec); });
        d.add(static_cast<std::uint64_t>(r.decision));
        d.add(static_cast<std::uint64_t>(r.core));
      }
      if (tp.depart && svc->active_tenants() > 0) {
        // The longest-resident tenant leaves, so residency times, and
        // with them the served tenant mix, vary little with the seed.
        CoreId victim = kInvalidCore;
        for (CoreId c = 0; c < svc->tenants().size(); ++c) {
          const auto& t = svc->tenants()[c];
          if (t && (victim == kInvalidCore ||
                    t->attach_tick < svc->tenants()[victim]->attach_tick))
            victim = c;
        }
        timed_call("detach", [&] { svc->detach(victim); });
        d.add(static_cast<std::uint64_t>(victim));
      }

      const std::vector<sim::PmuCounters> exec_before = svc->driver().execution_counters();
      std::vector<std::uint64_t> served_before(svc->num_cores(), 0);
      for (CoreId c = 0; c < svc->num_cores(); ++c) {
        if (const auto& t = svc->tenants()[c]) served_before[c] = t->ticks_served;
      }
      timed_call("tick", [&] {
        if (tr.lt == nullptr) return svc->tick();
        Timed span(tr.lt->driver);
        svc->tick();
      });

      // Per-tick checks: PMU monotone, L2 invariants, bounded residency.
      const auto snap = svc->system().pmu().snapshot();
      std::string err;
      if (!monotone(snap, last)) err = "PMU counters went backwards";
      for (const auto& c : snap) {
        if (err.empty()) err = counter_violation(c);
      }
      if (err.empty() && svc->active_tenants() > svc->num_cores()) err = "over-admitted";
      if (!err.empty()) {
        out.fail("tick " + std::to_string(svc->ticks()) + ": " + err);
        break;
      }
      last = snap;

      for (CoreId c = 0; c < svc->num_cores(); ++c) {
        const auto& t = svc->tenants()[c];
        if (!t.has_value() || t->ticks_served == served_before[c]) continue;
        ++so.served;
        if (t->last_ipc >= t->spec.slo * t->solo_ipc) ++so.met;
        // Tenant instructions only: an idle core's loop simulates nothing.
        so.instructions +=
            svc->driver().execution_counters()[c].instructions - exec_before[c].instructions;
        d.add(static_cast<std::uint64_t>(c));
        d.add(t->spec.benchmark);
        d.add(t->last_ipc);
      }
      so.queue_depth_max = std::max<std::uint64_t>(so.queue_depth_max, svc->queue_depth());
      so.epoch_log_max = std::max<std::uint64_t>(so.epoch_log_max, svc->driver().log().size());
    }
  } catch (const std::exception& e) {
    out.fail(std::string("service call threw: ") + e.what());
  }

  for (const auto& c : svc->system().pmu().snapshot()) d.add(c);
  const auto& health = svc->health();
  d.add(health.summary_json());
  so.admitted = svc->attaches();
  so.queued = svc->queued_total();
  so.rejected = svc->rejections();
  so.breaches = svc->slo_breaches();
  so.health_dropped = health.dropped();
  so.retries = health.count(core::HealthEventKind::HwRetry);
  so.watchdog = health.count(core::HealthEventKind::WatchdogRestore);
  if (svc->injector() != nullptr) so.faults_injected = svc->injector()->injected_faults();
  d.add(so.admitted);
  d.add(so.queued);
  d.add(so.rejected);
  d.add(so.breaches);
  d.add(so.faults_injected);
  so.solo_hits = cache.hits() - hits0;
  so.solo_misses = cache.misses() - misses0;
  if (tr.lt != nullptr) {
    tr.lt->sim.collect(svc->system());
    tr.lt->epoch_log_entries += svc->driver().log().size();
    tr.lt->retries += so.retries;
    tr.lt->watchdog_restores += so.watchdog;
  }
  so.digest = d.hex();
  return so;
}

struct Pass {
  std::vector<SessionOut> sessions;
  std::string digest;
};

Pass run_pass(const std::vector<Session>& sessions, Outcome& out, const Tracing& tr) {
  Pass p;
  Digest d;
  for (const auto& ses : sessions) {
    // Every pass starts with an empty solo memo cache, as every process does.
    analysis::SoloRunCache::global().clear();
    p.sessions.push_back(run_session(ses, out, tr));
    d.add(p.sessions.back().digest);
  }
  p.digest = d.hex();
  return p;
}

}  // namespace

Outcome run_service_soak(const Options& opt) {
  Outcome out;
  out.primary_op = "tick";
  out.threads = 1;  // one closed-loop caller

  std::vector<Session> sessions;
  for (int k = 0; k < kSetupRepetitions; ++k) {
    const auto t0 = k == 0 ? process_start() : Clock::now();
    sessions = set_up(opt.seed);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Pass first;
  const auto t_start = Clock::now();
  double elapsed = 0.0;
  while (true) {
    Pass pass = run_pass(sessions, out, {});
    for (const auto& s : pass.sessions) out.sim_instructions += s.instructions;
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

  SessionOut total;
  for (const auto& s : first.sessions) {
    total.served += s.served;
    total.met += s.met;
    total.admitted += s.admitted;
    total.queued += s.queued;
    total.rejected += s.rejected;
    total.breaches += s.breaches;
    total.health_dropped += s.health_dropped;
    total.faults_injected += s.faults_injected;
    total.retries += s.retries;
    total.watchdog += s.watchdog;
    total.solo_hits += s.solo_hits;
    total.solo_misses += s.solo_misses;
    total.queue_depth_max = std::max(total.queue_depth_max, s.queue_depth_max);
    total.epoch_log_max = std::max(total.epoch_log_max, s.epoch_log_max);
  }
  out.model["slo_met_ratio"] =
      total.served > 0 ? static_cast<double>(total.met) / static_cast<double>(total.served) : 0.0;
  out.model_score = "slo_met_ratio";
  out.check("model_finite", total.served > 0);
  out.check("faults_injected", total.faults_injected > 0);
  out.info["tenant_ticks_served"] = static_cast<double>(total.served);

  // A pass usually fills the budget alone, so the repeat check is a
  // rerun of one session outside the timed phase (the traced run below
  // reruns them all). Its latencies stay out of the headline samples.
  Outcome rerun_out;
  analysis::SoloRunCache::global().clear();
  const SessionOut again = run_session(sessions[0], rerun_out, {});
  out.check("rerun_equals_first_pass", again.digest == first.sessions[0].digest);
  out.attempted += rerun_out.attempted;
  out.failed += rerun_out.failed;
  for (const auto& f : rerun_out.failures) out.failures.push_back(f);
  if (!opt.trace) return out;

  // Traced pass: timed policy, op sources and trace sink, with spans
  // around every service call. Its digest must equal the untraced one.
  std::ostringstream trace_bytes;
  obs::JsonlTraceSink jsonl(trace_bytes);
  LayerTimes lt;
  TimedSink sink(jsonl, lt.obs);
  std::vector<StreamSpec> streams;
  Outcome traced_out;  // keeps the traced latencies out of the headline samples
  const auto t_traced = Clock::now();
  const Pass traced = run_pass(sessions, traced_out, {&lt, &sink, &streams});
  const double traced_s = seconds_between(t_traced, Clock::now());
  jsonl.flush();
  lt.obs_bytes = trace_bytes.str().size();
  out.check("traced_digest_equals_untraced", traced.digest == first.digest);
  out.attempted += traced_out.attempted;
  out.failed += traced_out.failed;
  for (const auto& f : traced_out.failures) out.failures.push_back(f);

  add_layer_metrics(lt, out);
  const double untraced_s = elapsed / static_cast<double>(out.reps);
  auto& m = out.layers;
  m["obs.trace_overhead"] = traced_s / untraced_s - 1.0;
  m["hw.faults_injected"] = static_cast<double>(total.faults_injected);
  m["core.epoch_log_entries_max"] = static_cast<double>(total.epoch_log_max);
  m["analysis.solo_runs"] = static_cast<double>(total.solo_misses);
  m["analysis.solo_hit_ratio"] =
      total.solo_hits + total.solo_misses > 0
          ? static_cast<double>(total.solo_hits) /
                static_cast<double>(total.solo_hits + total.solo_misses)
          : 0.0;
  m["service.admitted"] = static_cast<double>(total.admitted);
  m["service.queued"] = static_cast<double>(total.queued);
  m["service.rejected"] = static_cast<double>(total.rejected);
  m["service.queue_depth_max"] = static_cast<double>(total.queue_depth_max);
  m["service.slo_breaches"] = static_cast<double>(total.breaches);
  m["service.health_dropped"] = static_cast<double>(total.health_dropped);
  // run.py reports service.detach_p50_us from these samples.
  out.latency_ms["traced_detach"] = traced_out.latency_ms["detach"];
  double attach_ms = 0.0;
  for (const double v : traced_out.latency_ms["attach"]) attach_ms += v;
  m["service.attach_share"] = attach_ms / (traced_s * 1e3);
  run_component_replays(sessions[0].cfg.params.machine, streams, out);
  return out;
}

}  // namespace perfbench
