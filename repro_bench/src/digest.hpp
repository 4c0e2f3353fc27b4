// Outcome digest: a 64-bit fingerprint of a run's scientific result.
//
// Covered: generated and delivered counts, every delay sample, replicas,
// the deviant set, every detection event (culprit, detector, time, method,
// minutes after Delta1), false positives, and every registry counter and
// histogram. Left out, as core::to_json(ExperimentResult) leaves them out:
// stage times (they measure the host) and the `fastpath.*` and `g2g.*`
// telemetry counters (they describe how a result was computed, e.g. cache
// hits and frames encoded, not what it is).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "g2g/core/experiment.hpp"

namespace repro {

/// FNV-1a over a canonical little-endian byte stream.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void f64(double v);  ///< exact bit pattern
  void str(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::uint64_t outcome_digest(const g2g::core::ExperimentResult& r);

/// 16 lower-case hex digits.
[[nodiscard]] std::string digest_hex(std::uint64_t d);

}  // namespace repro
