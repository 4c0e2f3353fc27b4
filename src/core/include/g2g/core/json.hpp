// JSON export of experiment results, for external plotting/analysis.
//
// Deliberately dependency-free: a tiny writer that covers exactly what the
// result structures need (objects, arrays, strings, numbers, booleans).
// Output is deterministic (fixed key order, fixed float formatting).
#pragma once

#include <string>

#include "g2g/core/experiment.hpp"

namespace g2g::core {

/// Serialize a full experiment result: headline metrics, per-message
/// records, per-node costs, detection events, and the deviant set.
[[nodiscard]] std::string to_json(const ExperimentResult& result);

/// Serialize an aggregate (the mean/min/max rollup used by the benches).
[[nodiscard]] std::string to_json(const AggregateResult& aggregate);

/// Serialize a counter-registry snapshot: {"counters":{...},"histograms":{...}}.
/// Deterministic (name-sorted maps, integer counts).
[[nodiscard]] std::string to_json(const obs::Registry& registry);

/// Registry serialization with control over the fastpath.* and g2g.*
/// mechanism counters.
/// to_json(ExperimentResult) excludes them (they describe how a run was
/// computed, not what it computed — the bit-identity guards depend on
/// that); to_json(Registry) includes them for obs reports.
[[nodiscard]] std::string registry_json(const obs::Registry& registry, bool include_fastpath);

/// Serialize a wall-clock stage profile: [{"name":...,"seconds":...},...].
/// NOT deterministic across runs — it measures the host, not the simulation —
/// so it is kept out of to_json(ExperimentResult).
[[nodiscard]] std::string to_json(const obs::StageProfile& stages);

/// Escape a string for embedding in JSON (quotes not included).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace g2g::core
