// Order statistics and the result-line writer shared by the benchmark and
// its self-checks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace repro {

/// Median of `v` (mean of the two middle values for an even count).
/// Throws on empty input: a metric with no samples is a benchmark bug.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

/// One metric of the result line. Counts print as exact integers.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool integer = false;
};

inline Metric count_metric(std::string name, std::uint64_t v) {
  return {std::move(name), static_cast<double>(v), "count", true};
}

/// Format a number for JSON: integers exactly, other values with all 17
/// significant digits. Non-finite values are a benchmark bug.
[[nodiscard]] inline std::string json_number(double v, bool integer) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric value");
  char buf[40];
  if (integer) {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

/// The benchmark's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
[[nodiscard]] inline std::string result_line(bool correct, std::uint64_t attempted,
                                             std::uint64_t failed,
                                             const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value, m.integer) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace repro
