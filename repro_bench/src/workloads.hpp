// The benchmark's workloads: fixed lists of figure cells (ExperimentConfigs)
// drawn from the paper's Figs. 3-5, 7, 8 and Table 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "g2g/core/experiment.hpp"

namespace repro {

/// One cell of a workload: a stable name that includes the experiment seed
/// (the key of the reference digest table) and the config run_experiment
/// receives.
struct Cell {
  std::string name;
  g2g::core::ExperimentConfig config;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  /// Worker threads for the end-to-end pass; 1 means a plain loop on the
  /// calling thread, more means core::sharded_for.
  std::size_t threads = 1;
};

/// Experiment seeds of the cells. The two heavy workloads give each figure
/// cell one of them, alternating; the light ones run every cell under both.
/// Every cell's outcome digest is stored in the reference table. `--seed`
/// does not pick experiment seeds: it shuffles the order in which each pass
/// runs the cells. A seed that changed the experiment inputs would move the
/// CPU totals by up to a tenth between runs, since a cell's cost varies by
/// 10-30% across traces and a run has time for only about two dozen
/// experiments.
inline constexpr std::uint64_t kExperimentSeeds[] = {1, 2};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload's cell list. Throws std::invalid_argument on an unknown
/// name.
[[nodiscard]] Workload make_workload(const std::string& name, std::size_t hardware_threads);

}  // namespace repro
