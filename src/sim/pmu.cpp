#include "sim/pmu.hpp"

namespace cmm::sim {

namespace {
std::uint64_t sub_sat(std::uint64_t a, std::uint64_t b) noexcept { return a >= b ? a - b : 0; }
}  // namespace

PmuCounters PmuCounters::delta_since(const PmuCounters& earlier) const noexcept {
  PmuCounters d;
  d.cycles = sub_sat(cycles, earlier.cycles);
  d.instructions = sub_sat(instructions, earlier.instructions);
  d.l2_pref_req = sub_sat(l2_pref_req, earlier.l2_pref_req);
  d.l2_pref_miss = sub_sat(l2_pref_miss, earlier.l2_pref_miss);
  d.l2_dm_req = sub_sat(l2_dm_req, earlier.l2_dm_req);
  d.l2_dm_miss = sub_sat(l2_dm_miss, earlier.l2_dm_miss);
  d.l3_load_miss = sub_sat(l3_load_miss, earlier.l3_load_miss);
  d.stalls_l2_pending = sub_sat(stalls_l2_pending, earlier.stalls_l2_pending);
  d.dram_demand_bytes = sub_sat(dram_demand_bytes, earlier.dram_demand_bytes);
  d.dram_prefetch_bytes = sub_sat(dram_prefetch_bytes, earlier.dram_prefetch_bytes);
  d.dram_writeback_bytes = sub_sat(dram_writeback_bytes, earlier.dram_writeback_bytes);
  return d;
}

PmuCounters& PmuCounters::operator+=(const PmuCounters& d) noexcept {
  cycles += d.cycles;
  instructions += d.instructions;
  l2_pref_req += d.l2_pref_req;
  l2_pref_miss += d.l2_pref_miss;
  l2_dm_req += d.l2_dm_req;
  l2_dm_miss += d.l2_dm_miss;
  l3_load_miss += d.l3_load_miss;
  stalls_l2_pending += d.stalls_l2_pending;
  dram_demand_bytes += d.dram_demand_bytes;
  dram_prefetch_bytes += d.dram_prefetch_bytes;
  dram_writeback_bytes += d.dram_writeback_bytes;
  return *this;
}

void Pmu::reset() {
  for (auto& c : counters_) c.reset();
}

}  // namespace cmm::sim
