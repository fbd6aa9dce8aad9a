// Benchmark-side tracing: timing decorators around the public layer
// interfaces (OpSource, Policy, the four HAL devices, TraceSink) and a
// rebuilt run_mix that wires them in. Nothing here reaches inside the
// program; every span is taken at a public boundary. Spans accumulate
// into a per-job LayerTimes, so parallel jobs never share a counter.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/policy.hpp"
#include "hw/cat_controller.hpp"
#include "hw/mba_controller.hpp"
#include "hw/msr_device.hpp"
#include "hw/pmu_reader.hpp"
#include "obs/trace.hpp"
#include "sim/core_model.hpp"
#include "sim/multicore_system.hpp"
#include "workloads/workload_mix.hpp"

namespace perfbench {

/// Accumulated time of one span kind: total host time, number of
/// calls, and the work items those calls produced (ops, samples,
/// events — whatever the span counts).
struct Span {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;

  void merge(const Span& o) {
    ns += o.ns;
    calls += o.calls;
    items += o.items;
  }
};

/// Times a scope into a Span.
class Timed {
 public:
  explicit Timed(Span& span) : span_(span), t0_(Clock::now()) {}
  ~Timed() {
    span_.ns += nanos_between(t0_, Clock::now());
    ++span_.calls;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span& span_;
  Clock::time_point t0_;
};

/// Simulated-hierarchy statistics read from a system's public stats()
/// after a run (all cores, whole run including sampling intervals).
struct SimStats {
  std::uint64_t l1_accesses = 0, l1_hits = 0;
  std::uint64_t l2_accesses = 0, l2_hits = 0;
  std::uint64_t llc_accesses = 0, llc_hits = 0, llc_evictions = 0;
  std::uint64_t l2_pf_used = 0, l2_pf_unused = 0;
  std::uint64_t pf_issued = 0;
  std::uint64_t mem_requests = 0;
  std::uint64_t instructions = 0, cycles = 0, stalls = 0;

  void merge(const SimStats& o);
  void collect(const cmm::sim::MulticoreSystem& system);
};

/// Spans and counts of one traced job.
struct LayerTimes {
  Span opgen;   // OpSource::next/next_batch; items = ops produced
  Span policy;  // every Policy call; items = samples requested
  Span hw;      // every HAL device call
  Span obs;     // every TraceSink::emit; items = events
  Span driver;  // EpochDriver::run, or ServiceDriver::tick
  std::uint64_t epochs = 0;     // profiling epochs begun
  std::uint64_t obs_bytes = 0;  // JSONL bytes the sink produced
  std::uint64_t pmu_reads = 0;
  std::uint64_t pmu_monotone_violations = 0;
  std::uint64_t epoch_log_entries = 0;
  std::uint64_t retries = 0;
  std::uint64_t watchdog_restores = 0;
  SimStats sim;

  void merge(const LayerTimes& o);
};

/// OpSource decorator: times every refill of the core's op buffer.
class TimedOpSource final : public cmm::sim::OpSource {
 public:
  TimedOpSource(std::shared_ptr<cmm::sim::OpSource> inner, Span& span)
      : inner_(std::move(inner)), span_(span) {}

  cmm::sim::Op next() override;
  std::size_t next_batch(std::span<cmm::sim::Op> out) override;
  cmm::sim::CoreTraits traits() const override { return inner_->traits(); }
  void reset() override { inner_->reset(); }

 private:
  std::shared_ptr<cmm::sim::OpSource> inner_;
  Span& span_;
};

/// Policy decorator: times every call the driver makes into the policy.
class TimedPolicy final : public cmm::core::Policy {
 public:
  TimedPolicy(std::unique_ptr<cmm::core::Policy> inner, LayerTimes& lt)
      : inner_(std::move(inner)), lt_(lt) {}

  cmm::core::Policy& inner() noexcept { return *inner_; }

  std::string_view name() const noexcept override { return inner_->name(); }
  cmm::core::ResourceConfig initial_config(unsigned cores, unsigned ways) override;
  void begin_profiling(const std::vector<cmm::sim::PmuCounters>& epoch_delta) override;
  std::optional<cmm::core::ResourceConfig> next_sample() override;
  void report_sample(const cmm::core::SampleStats& stats) override;
  cmm::core::ResourceConfig final_config() override;
  void notify_degraded(bool prefetch_available, bool cat_available) override;
  void notify_degraded(bool prefetch_available, bool cat_available, bool mba_available) override;
  void notify_membership_change(const std::vector<cmm::CoreId>& cores) override;

 private:
  std::unique_ptr<cmm::core::Policy> inner_;
  LayerTimes& lt_;
};

/// The four HAL devices, each timed into LayerTimes::hw. The PMU reader
/// also checks that successive snapshots are monotone.
class TimedMsr final : public cmm::hw::MsrDevice {
 public:
  TimedMsr(cmm::hw::MsrDevice& inner, LayerTimes& lt) : inner_(inner), lt_(lt) {}
  std::uint64_t read(cmm::CoreId core, std::uint32_t msr) const override;
  void write(cmm::CoreId core, std::uint32_t msr, std::uint64_t value) override;
  unsigned num_cores() const override { return inner_.num_cores(); }

 private:
  cmm::hw::MsrDevice& inner_;
  LayerTimes& lt_;
};

class TimedPmu final : public cmm::hw::PmuReader {
 public:
  TimedPmu(cmm::hw::PmuReader& inner, LayerTimes& lt) : inner_(inner), lt_(lt) {}
  std::vector<cmm::sim::PmuCounters> read_all() const override;
  unsigned num_cores() const override { return inner_.num_cores(); }

 private:
  cmm::hw::PmuReader& inner_;
  LayerTimes& lt_;
  mutable std::vector<cmm::sim::PmuCounters> last_;
};

class TimedCat final : public cmm::hw::CatController {
 public:
  TimedCat(cmm::hw::CatController& inner, LayerTimes& lt) : inner_(inner), lt_(lt) {}
  void apply(const std::vector<cmm::WayMask>& per_core_masks) override;
  std::vector<cmm::WayMask> current() const override;
  void reset() override;
  unsigned llc_ways() const override { return inner_.llc_ways(); }
  unsigned num_cores() const override { return inner_.num_cores(); }

 private:
  cmm::hw::CatController& inner_;
  LayerTimes& lt_;
};

class TimedMba final : public cmm::hw::MbaController {
 public:
  TimedMba(cmm::hw::MbaController& inner, LayerTimes& lt) : inner_(inner), lt_(lt) {}
  void apply(const std::vector<std::uint8_t>& per_core_levels) override;
  std::vector<std::uint8_t> current() const override;
  void reset() override;
  unsigned num_levels() const override { return inner_.num_levels(); }
  unsigned num_cores() const override { return inner_.num_cores(); }

 private:
  cmm::hw::MbaController& inner_;
  LayerTimes& lt_;
};

/// TraceSink decorator: times every event the program emits.
class TimedSink final : public cmm::obs::TraceSink {
 public:
  TimedSink(cmm::obs::TraceSink& inner, Span& span) : inner_(inner), span_(span) {}

  bool enabled() const noexcept override { return inner_.enabled(); }
  void emit(const cmm::obs::EpochStart& e) override { forward(e); }
  void emit(const cmm::obs::DetectorVerdict& e) override { forward(e); }
  void emit(const cmm::obs::SampleResult& e) override { forward(e); }
  void emit(const cmm::obs::ConfigApplied& e) override { forward(e); }
  void emit(const cmm::obs::DegradationStep& e) override { forward(e); }
  void emit(const cmm::obs::FaultRetry& e) override { forward(e); }
  void emit(const cmm::obs::TenantAttach& e) override { forward(e); }
  void emit(const cmm::obs::TenantDetach& e) override { forward(e); }
  void emit(const cmm::obs::SloBreach& e) override { forward(e); }
  void emit(const cmm::obs::RecoveryProbe& e) override { forward(e); }
  void emit(const cmm::obs::TenantMigrated& e) override { forward(e); }
  void emit(const cmm::obs::MigrationRejected& e) override { forward(e); }
  void flush() override { inner_.flush(); }

 private:
  template <typename Event>
  void forward(const Event& e) {
    Timed t(span_);
    ++span_.items;
    inner_.emit(e);
  }

  cmm::obs::TraceSink& inner_;
  Span& span_;
};

/// run_mix rebuilt from public calls with every decorator above wired
/// in and a JSONL trace kept in memory. Its RunResult is byte-identical
/// to analysis::run_mix (the benchmark checks this on every run).
cmm::analysis::RunResult traced_run_mix(const cmm::workloads::WorkloadMix& mix,
                                        const std::string& policy,
                                        const cmm::analysis::RunParams& params, LayerTimes& lt);

}  // namespace perfbench
