// Shared plumbing of the benchmark driver: options, the raw outcome a
// workload hands back to main(), the simulated-output digest and the
// correctness checks every workload applies to the simulator's counters.
//
// The driver prints raw samples only. Statistics (medians, tails,
// ratios) are computed by perfbench/run.py, where they are unit-tested.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/run_harness.hpp"
#include "sim/pmu.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t nanos_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Steady-clock reading taken during static initialisation, the
/// closest portable stand-in for "process start".
Clock::time_point process_start();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Number of set-up repetitions whose median becomes setup_s.
inline constexpr int kSetupRepetitions = 11;

/// FNV-1a over every simulated statistic a workload produces. Two runs
/// with equal digests produced byte-identical simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  void add(const cmm::sim::PmuCounters& c);
  void add(const cmm::analysis::RunResult& r);
  std::uint64_t value() const noexcept { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Everything one benchmark run measured. Latencies are in
/// milliseconds, keyed by operation kind; `primary_op` names the kind
/// whose latency is the headline op_mean_ms.
struct Outcome {
  unsigned threads = 1;  // worker threads of the timed phase
  std::vector<double> setup_s;
  double timed_s = 0.0;
  std::uint64_t reps = 0;
  std::uint64_t sim_instructions = 0;
  std::map<std::string, std::vector<double>> latency_ms;
  std::string primary_op;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages

  std::map<std::string, double> model;  // modelled (simulated) results
  std::string model_score;              // key of `model` reported as model_score
  std::string digest;
  std::map<std::string, bool> checks;   // named whole-run checks
  std::map<std::string, double> layers; // per-layer metrics (traced run)
  std::map<std::string, double> info;   // extra context for the report

  /// Count one failed operation (or whole-run check) with its reason.
  void fail(const std::string& why);
  /// Record a named whole-run check; a false check counts as a failure.
  void check(const std::string& name, bool ok);
};

/// Counter invariants the simulator must keep: L2 prefetch and demand
/// misses never exceed their requests. Returns an empty string when
/// they hold, else a description of the first violation.
std::string counter_violation(const cmm::sim::PmuCounters& c);

/// True when every field of every core in `later` is >= `earlier`.
bool monotone(const std::vector<cmm::sim::PmuCounters>& later,
              const std::vector<cmm::sim::PmuCounters>& earlier);

/// Sum of retired instructions over a result's cores.
std::uint64_t instructions_of(const cmm::analysis::RunResult& r);

/// Mixes a seed with a stream index (splitmix64), so each derived input
/// of a workload has its own independent seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set size of this process in KiB (0 if unavailable).
std::uint64_t peak_rss_kib();

}  // namespace perfbench
