// Observability layer, part 1: structured epoch traces.
//
// The CMM control loop makes one opaque decision per epoch (which cores
// are Agg, which candidate configurations were sampled, which hm_ipc
// won); the paper's evaluation (Figs. 4-6, 13) is an explanation of
// those decisions. This header defines the typed event vocabulary the
// loop emits so that a trace, not a debugger, can tell the story:
//
//   EpochStart       an execution epoch began (length + config in force)
//   DetectorVerdict  per-core Table-I metrics (PGA/PMR/PTR) + Agg flag
//   SampleResult     one sampling interval's candidate config + hm_ipc
//   ConfigApplied    a configuration landed on hardware (and why)
//   DegradationStep  a rung of the fault ladder fired
//   FaultRetry       a transient HAL fault was re-attempted
//
// Service-mode events (runtime tenant churn, PR-6):
//
//   TenantAttach     a tenant was admitted and installed on a core
//   TenantDetach     a tenant departed; its core was hotplugged out
//   SloBreach        a tenant's epoch IPC fell under its SLO floor
//   RecoveryProbe    a probation re-probe of a degraded axis ran
//
// Hierarchical-coordinator events (cross-domain live migration, PR-10):
//
//   TenantMigrated     the coordinator moved a tenant between domains
//   MigrationRejected  the round's best candidate failed the cost model
//
// All timestamps are monotonic *simulated* time, so traces are
// bit-deterministic at any CMM_THREADS (every EpochDriver is driven by
// exactly one thread; parallel batches give each run its own sink).
//
// Cost model: instrumented code holds a `Trace` handle and guards every
// emission with `if (trace.on())`. With no sink (or a NullSink) that is
// a single pointer test — no event is built, nothing is formatted, the
// hot path is untouched. Sinks receive *views* (string_view, ConfigView
// pointers) and must serialize before returning.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace cmm::obs {

/// Non-owning view of a ResourceConfig (mirrors core::ResourceConfig
/// without depending on cmm_core; obs sits below core in the link
/// graph so policies can hold Trace handles).
struct ConfigView {
  const std::vector<bool>* prefetch_on = nullptr;
  const std::vector<WayMask>* way_masks = nullptr;
  // BP axis (MBA throttle levels). Null or all-zero means unregulated;
  // sinks only serialize the field when some level is nonzero, so
  // pre-BP traces stay byte-identical.
  const std::vector<std::uint8_t>* throttle_levels = nullptr;
};

struct EpochStart {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  Cycle length = 0;
  std::string_view policy;
  ConfigView config;
};

struct DetectorVerdict {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  CoreId core = kInvalidCore;
  double pga = 0.0;  // M-4: prefetch generation ability
  double pmr = 0.0;  // M-5: L2 prefetch miss ratio
  double ptr = 0.0;  // M-3: L2 prefetch traffic rate (per second)
  bool agg = false;  // survived all three detection steps
};

struct SampleResult {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  std::uint64_t sample = 0;  // index within the profiling epoch
  double hm_ipc = 0.0;       // objective value of this interval
  ConfigView config;         // candidate configuration measured
};

struct ConfigApplied {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  std::string_view source;  // "initial" | "sample" | "final" | "watchdog"
  ConfigView config;        // effective config (post degradation ladder)
};

struct DegradationStep {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  std::string_view step;  // health-event name, e.g. "pt_only_fallback"
  CoreId core = kInvalidCore;
  std::uint64_t detail = 0;
  std::string_view note;
};

struct FaultRetry {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  std::uint32_t attempt = 0;
  std::uint64_t backoff_units = 0;
  std::string_view what;
};

struct TenantAttach {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  CoreId core = kInvalidCore;
  std::string_view tenant;   // benchmark name of the admitted workload
  double slo = 0.0;          // min-IPC-vs-solo floor (fraction of solo)
  double solo_ipc = 0.0;     // memoized solo IPC the floor is scaled by
};

struct TenantDetach {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  CoreId core = kInvalidCore;
  std::string_view tenant;
  std::uint64_t epochs_served = 0;
  double mean_ipc = 0.0;  // over the tenant's service epochs
};

struct SloBreach {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  CoreId core = kInvalidCore;
  std::string_view tenant;
  double ipc = 0.0;    // measured epoch IPC
  double floor = 0.0;  // slo * solo_ipc
};

struct RecoveryProbe {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  std::string_view axis;  // "prefetch" | "cat" | "mba"
  CoreId core = kInvalidCore;
  bool ok = false;
};

/// One accepted cross-domain migration (emitted once per moved tenant,
/// so a swap produces two events). Core ids are GLOBAL fleet ids; the
/// domain fields are redundant with domain_of(core) but keep the trace
/// self-describing for offline tooling.
struct TenantMigrated {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  CoreId from_core = kInvalidCore;
  CoreId to_core = kInvalidCore;
  std::uint32_t from_domain = 0;
  std::uint32_t to_domain = 0;
  std::string_view tenant;
  double predicted_gain = 0.0;  // relative fleet-hm_ipc gain the move was accepted on
};

/// The coordinator round's best migration candidate failed a gate of
/// the cost model (strict-improvement threshold, bandwidth feasibility,
/// hysteresis cooldown).
struct MigrationRejected {
  Cycle time = 0;
  std::uint64_t epoch = 0;
  CoreId from_core = kInvalidCore;
  CoreId to_core = kInvalidCore;
  std::string_view tenant;
  std::string_view reason;  // "no_gain" | "bandwidth" | "cooldown"
  double predicted_gain = 0.0;
};

/// Event consumer. Default implementations drop everything, so a sink
/// overrides only the events it cares about. `enabled()` lets the
/// Trace handle strip a disabled sink at wiring time (NullSink).
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual bool enabled() const noexcept { return true; }

  virtual void emit(const EpochStart&) {}
  virtual void emit(const DetectorVerdict&) {}
  virtual void emit(const SampleResult&) {}
  virtual void emit(const ConfigApplied&) {}
  virtual void emit(const DegradationStep&) {}
  virtual void emit(const FaultRetry&) {}
  virtual void emit(const TenantAttach&) {}
  virtual void emit(const TenantDetach&) {}
  virtual void emit(const SloBreach&) {}
  virtual void emit(const RecoveryProbe&) {}
  virtual void emit(const TenantMigrated&) {}
  virtual void emit(const MigrationRejected&) {}

  virtual void flush() {}
};

/// The default sink: tracing compiled in, permanently off. Kept as a
/// distinct type so "tracing disabled" is an explicit, testable state
/// (the determinism suite pins NullSink bit-identity against no sink).
class NullSink final : public TraceSink {
 public:
  bool enabled() const noexcept override { return false; }
};

/// Shared stamp the event producer (EpochDriver) keeps current so that
/// consumers wired deeper in (policies, detector) emit events carrying
/// the same simulated time / epoch index without owning a clock.
struct TraceContext {
  Cycle now = 0;
  std::uint64_t epoch = 0;
};

/// Nullable, copyable handle instrumented code holds. Default
/// constructed it is off; `on()` is one pointer compare, so call sites
/// guard event construction with it and pay nothing when disabled.
class Trace {
 public:
  Trace() = default;
  explicit Trace(TraceSink* sink, const TraceContext* ctx = nullptr) noexcept
      : sink_(sink != nullptr && sink->enabled() ? sink : nullptr), ctx_(ctx) {}

  bool on() const noexcept { return sink_ != nullptr; }
  Cycle now() const noexcept { return ctx_ != nullptr ? ctx_->now : 0; }
  std::uint64_t epoch() const noexcept { return ctx_ != nullptr ? ctx_->epoch : 0; }

  template <typename Event>
  void emit(const Event& event) const {
    if (sink_ != nullptr) sink_->emit(event);
  }

 private:
  TraceSink* sink_ = nullptr;
  const TraceContext* ctx_ = nullptr;
};

}  // namespace cmm::obs
