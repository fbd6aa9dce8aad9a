#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/rng.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
constexpr std::size_t kMaxFailureMessages = 8;
}  // namespace

Clock::time_point process_start() { return g_process_start; }

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char ch : s) {
    h_ ^= static_cast<unsigned char>(ch);
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const cmm::sim::PmuCounters& c) {
  for (const std::uint64_t v :
       {c.cycles, c.instructions, c.l2_pref_req, c.l2_pref_miss, c.l2_dm_req, c.l2_dm_miss,
        c.l3_load_miss, c.stalls_l2_pending, c.dram_demand_bytes, c.dram_prefetch_bytes,
        c.dram_writeback_bytes}) {
    add(v);
  }
}

void Digest::add(const cmm::analysis::RunResult& r) {
  add(static_cast<std::uint64_t>(r.measured_cycles));
  add(static_cast<std::uint64_t>(r.cores.size()));
  for (const auto& core : r.cores) {
    add(core.benchmark);
    add(core.ipc);
    add(core.demand_gbs);
    add(core.prefetch_gbs);
    add(core.stalls_l2_pending);
    add(core.counters);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < kMaxFailureMessages) failures.push_back(why);
}

void Outcome::check(const std::string& name, bool ok) {
  checks[name] = ok;
  ++attempted;
  if (!ok) fail("check failed: " + name);
}

std::string counter_violation(const cmm::sim::PmuCounters& c) {
  if (c.l2_pref_miss > c.l2_pref_req) {
    return "l2_pref_miss " + std::to_string(c.l2_pref_miss) + " > l2_pref_req " +
           std::to_string(c.l2_pref_req);
  }
  if (c.l2_dm_miss > c.l2_dm_req) {
    return "l2_dm_miss " + std::to_string(c.l2_dm_miss) + " > l2_dm_req " +
           std::to_string(c.l2_dm_req);
  }
  return {};
}

bool monotone(const std::vector<cmm::sim::PmuCounters>& later,
              const std::vector<cmm::sim::PmuCounters>& earlier) {
  if (later.size() != earlier.size()) return false;
  for (std::size_t i = 0; i < later.size(); ++i) {
    const auto& a = later[i];
    const auto& b = earlier[i];
    if (a.cycles < b.cycles || a.instructions < b.instructions ||
        a.l2_pref_req < b.l2_pref_req || a.l2_pref_miss < b.l2_pref_miss ||
        a.l2_dm_req < b.l2_dm_req || a.l2_dm_miss < b.l2_dm_miss ||
        a.l3_load_miss < b.l3_load_miss || a.stalls_l2_pending < b.stalls_l2_pending ||
        a.dram_demand_bytes < b.dram_demand_bytes ||
        a.dram_prefetch_bytes < b.dram_prefetch_bytes ||
        a.dram_writeback_bytes < b.dram_writeback_bytes) {
      return false;
    }
  }
  return true;
}

std::uint64_t instructions_of(const cmm::analysis::RunResult& r) {
  std::uint64_t n = 0;
  for (const auto& core : r.cores) n += core.counters.instructions;
  return n;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0xD1B54A32D192ED03ULL * (stream + 1));
  return cmm::splitmix64(state);
}

std::uint64_t peak_rss_kib() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so a
  // child of a large parent would report the parent's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

}  // namespace perfbench
