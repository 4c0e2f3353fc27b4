#include "digest.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

namespace repro {

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(b, sizeof b);
}

void Fnv1a::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Fnv1a::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

namespace {

bool is_telemetry(const std::string& name) {
  return name.rfind("fastpath.", 0) == 0 || name.rfind("g2g.", 0) == 0;
}

// Samples keep their values in insertion order until a quantile sorts them
// in place, so hash a sorted copy: the digest must not depend on whether a
// caller asked for a median first.
void sorted_samples(Fnv1a& h, const g2g::Samples& s) {
  std::vector<double> v = s.values();
  std::sort(v.begin(), v.end());
  h.u64(v.size());
  for (const double x : v) h.f64(x);
}

}  // namespace

std::uint64_t outcome_digest(const g2g::core::ExperimentResult& r) {
  Fnv1a h;
  h.u64(r.generated);
  h.u64(r.delivered);
  sorted_samples(h, r.delay_seconds);
  h.f64(r.avg_replicas);

  h.u64(r.deviants.size());
  for (const g2g::NodeId n : r.deviants) h.u64(n.value());
  h.u64(r.deviant_count);
  h.u64(r.detected_count);
  sorted_samples(h, r.detection_minutes_after_delta1);
  const auto& detections = r.collector.detections();
  h.u64(detections.size());
  for (const auto& d : detections) {
    h.u64(d.culprit.value());
    h.u64(d.detector.value());
    h.u64(static_cast<std::uint64_t>(d.at.micros()));
    h.u64(static_cast<std::uint64_t>(d.method));
    h.u64(static_cast<std::uint64_t>(d.after_delta1.count()));
  }
  h.u64(r.false_positives);
  h.u64(r.community_count);

  for (const auto& [name, counter] : r.counters.counters()) {
    if (is_telemetry(name)) continue;
    h.str(name);
    h.u64(counter.value());
  }
  for (const auto& [name, hist] : r.counters.histograms()) {
    if (is_telemetry(name)) continue;
    h.str(name);
    h.u64(hist.count());
    h.f64(hist.sum());
    for (const std::uint64_t b : hist.buckets()) h.u64(b);
  }
  return h.value();
}

std::string digest_hex(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d));
  return buf;
}

}  // namespace repro
