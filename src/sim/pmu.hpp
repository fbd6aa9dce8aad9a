// Per-core performance-monitoring counters. Mirrors the Intel PMU
// events the paper's framework samples (Sec. III-A, Table I):
//
//   L2 pref req    - prefetch requests generated by the L2 prefetchers
//   L2 pref miss   - L2 prefetch requests missing L2 (reach LLC)
//   L2 dm req      - demand requests arriving at L2
//   L2 dm miss     - demand requests missing L2
//   L3 load miss   - demand loads missing LLC (go to memory)
//   stalls_l2_pending - cycles stalled on outstanding L2 demand misses
//                       (CYCLE_ACTIVITY.STALLS_L2_PENDING)
//   cycles, instructions - for IPC
//   dram demand/prefetch bytes - for bandwidth metrics (M-7 proxy)
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace cmm::sim {

struct PmuCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;

  std::uint64_t l2_pref_req = 0;
  std::uint64_t l2_pref_miss = 0;
  std::uint64_t l2_dm_req = 0;
  std::uint64_t l2_dm_miss = 0;
  std::uint64_t l3_load_miss = 0;
  std::uint64_t stalls_l2_pending = 0;

  std::uint64_t dram_demand_bytes = 0;
  std::uint64_t dram_prefetch_bytes = 0;
  std::uint64_t dram_writeback_bytes = 0;

  double ipc() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / static_cast<double>(cycles);
  }

  /// Element-wise delta (this - earlier). Counters are monotonic.
  PmuCounters delta_since(const PmuCounters& earlier) const noexcept;

  /// Element-wise sum (accumulating span deltas).
  PmuCounters& operator+=(const PmuCounters& d) noexcept;

  /// Bit-exact comparison — the determinism tests' currency.
  bool operator==(const PmuCounters&) const = default;

  void reset() { *this = PmuCounters{}; }
};

// A new counter must be added to operator+=, delta_since, hw::pmu_delta
// and the fault injector's field list; this trips until they are revisited.
static_assert(sizeof(PmuCounters) == 11 * sizeof(std::uint64_t),
              "PmuCounters changed: update every per-field site listed above");

class Pmu {
 public:
  explicit Pmu(unsigned num_cores) : counters_(num_cores) {}

  PmuCounters& core(CoreId id) { return counters_.at(id); }
  const PmuCounters& core(CoreId id) const { return counters_.at(id); }

  unsigned num_cores() const noexcept { return static_cast<unsigned>(counters_.size()); }

  /// Snapshot of all cores (for epoch-delta computation).
  std::vector<PmuCounters> snapshot() const { return counters_; }

  void reset();

 private:
  std::vector<PmuCounters> counters_;
};

}  // namespace cmm::sim
