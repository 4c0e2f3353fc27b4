// Micro-probes for the traced pass: the unit cost of one operation of a
// layer, measured at the sizes the workload ran. A layer's estimated share
// of run CPU is then (work count from the run) x (probe cost) / run CPU.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace repro {

/// Nanoseconds per 64-byte SHA-256 block (one-shot hash of a 64 KiB buffer).
[[nodiscard]] double sha256_block_ns();

struct ChainCost {
  double full_lanes_us = 0.0;  ///< per chain, kSha256MaxLanes chains per batch
  double one_lane_us = 0.0;    ///< per chain, one chain per batch
};
/// heavy_hmac_batch at `iterations` per chain.
[[nodiscard]] ChainCost heavy_hmac_chain_cost(std::uint32_t iterations);

/// Encode + decode of one relay frame, averaged over frame kinds weighted by
/// `msgs_by_kind` (wire kind name -> frames sent). 0 if no frame was sent.
[[nodiscard]] double frame_ns(const std::map<std::string, std::uint64_t>& msgs_by_kind);

/// The wire kinds frame_ns covers: one per relay::*Frame type.
inline constexpr const char* kFrameKinds[] = {"relay_rqst",  "relay_ok",   "relay_data",
                                              "key_reveal",  "por_rqst",   "stored_resp",
                                              "fq_rqst"};

/// Schedule and fire `events` sim::Simulator events at random times:
/// nanoseconds per event.
[[nodiscard]] double event_ns(std::size_t events);

/// metrics::Collector::costs lookups over `nodes` nodes: nanoseconds each.
[[nodiscard]] double costs_ns(std::size_t nodes);

}  // namespace repro
