// The benchmark's three workloads and the traced-run helpers they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/machine_config.hpp"
#include "trace.hpp"

namespace perfbench {

/// Figs 7-15 grid: four mix categories x (baseline + 7 mechanisms) plus
/// the alone-IPC solos, through analysis::run_batch.
Outcome run_paper_grid(const Options& opt);

/// 8-domain fleet from a pathological placement, coordinator every
/// slice, seeded churn, through analysis::run_fleet.
Outcome run_fleet_coord(const Options& opt);

/// One closed-loop caller driving a ServiceDriver through a seeded
/// arrival/departure schedule and a repairing MSR fault plan.
Outcome run_service_soak(const Options& opt);

/// Per-layer metrics derived from a traced run's spans and counts,
/// written into out.layers under the shared metric names.
void add_layer_metrics(const LayerTimes& lt, Outcome& out);

/// One op stream as a workload installs it: the benchmark, the core it
/// runs on and the seed handed to make_op_source for that core.
struct StreamSpec {
  std::string benchmark;
  cmm::CoreId core = 0;
  std::uint64_t seed = 0;
};

/// Appends `s` unless a stream of the same benchmark is already listed,
/// so the replays record the first stream of each benchmark.
void add_stream(std::vector<StreamSpec>& streams, StreamSpec s);

/// Component replays: op generation per pattern kind, observe() per
/// prefetcher engine, SetAssocCache access/fill/invalidate_owner and
/// MemoryController::request, each fed memory-reference streams
/// recorded from the workload's own op sources (`streams`).
void run_component_replays(const cmm::sim::MachineConfig& machine,
                           const std::vector<StreamSpec>& streams, Outcome& out);

}  // namespace perfbench
