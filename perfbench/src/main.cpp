// Benchmark driver: runs one workload and prints its raw measurements
// as a single JSON line. perfbench/run.py builds this binary, runs it
// and turns the raw samples into the reported metrics.
//
//   cmm_perfbench --workload <paper_grid|fleet_coord|service_soak>
//                 --seed <n> --seconds <s> --trace <0|1>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/simd.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string object(const Map& m, Fmt fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += quoted(k) + ":" + fmt(v);
  }
  return out + "}";
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + number(v[i]);
  return out + "]";
}

std::string to_json(const Options& opt, const Outcome& o) {
  std::ostringstream js;
  js << "{\"workload\":" << quoted(opt.workload) << ",\"seed\":" << opt.seed
     << ",\"trace\":" << (opt.trace ? 1 : 0);
  // Environment record: results from different builds or hosts must
  // never be compared silently.
  js << ",\"env\":{\"build_type\":" << quoted(CMM_PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << quoted(CMM_PERFBENCH_COMPILER)
     << ",\"simd\":" << quoted(cmm::simd::backend_name(cmm::simd::active_backend()))
     << ",\"nproc\":" << std::thread::hardware_concurrency() << ",\"threads\":" << o.threads
     << ",\"seed\":" << opt.seed << "}";
  js << ",\"setup_s\":" << array(o.setup_s) << ",\"timed_s\":" << number(o.timed_s)
     << ",\"reps\":" << o.reps << ",\"sim_instructions\":" << o.sim_instructions
     << ",\"primary_op\":" << quoted(o.primary_op) << ",\"latency_ms\":" << object(o.latency_ms, array) << ",\"attempted\":" << o.attempted
     << ",\"failed\":" << o.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < o.failures.size(); ++i) js << (i ? "," : "") << quoted(o.failures[i]);
  js << "],\"model\":" << object(o.model, number) << ",\"model_score\":" << quoted(o.model_score)
     << ",\"digest\":" << quoted(o.digest)
     << ",\"checks\":" << object(o.checks, [](bool b) { return std::string(b ? "true" : "false"); })
     << ",\"layers\":" << object(o.layers, number) << ",\"info\":" << object(o.info, number)
     << ",\"peak_rss_kib\":" << perfbench::peak_rss_kib() << "}";
  return js.str();
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: cmm_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  try {
    Outcome (*workload)(const Options&) = nullptr;
    if (opt.workload == "paper_grid") workload = perfbench::run_paper_grid;
    if (opt.workload == "fleet_coord") workload = perfbench::run_fleet_coord;
    if (opt.workload == "service_soak") workload = perfbench::run_service_soak;
    if (workload == nullptr) {
      std::cerr << "unknown workload: " << opt.workload << "\n";
      return 2;
    }
    const Outcome out = workload(opt);
    std::cout << to_json(opt, out) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "cmm_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
