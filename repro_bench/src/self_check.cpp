// Self-checks of the benchmark's own code: the outcome digest, the median
// helper and the result-line writer. run.py runs them before every
// measurement and parses the sample line printed last.
#include <cstdlib>
#include <iostream>
#include <string>

#include "digest.hpp"
#include "stats.hpp"

namespace repro {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "self-check FAILED: " << what << "\n";
  }
}

g2g::core::ExperimentResult sample_result() {
  g2g::core::ExperimentResult r;
  r.generated = 10;
  r.delivered = 4;
  for (const double d : {30.5, 12.25, 99.0, 12.25}) r.delay_seconds.add(d);
  r.avg_replicas = 3.5;
  r.deviants = {g2g::NodeId(2), g2g::NodeId(7)};
  r.deviant_count = 2;
  r.detected_count = 1;
  r.detection_minutes_after_delta1.add(8.75);
  r.counters.counter("msg.delivered").add(4);
  r.counters.counter("hs.started").add(120);
  r.counters.counter("fastpath.verify_cache.hits").add(9);
  r.counters.counter("g2g.frame.encoded").add(300);
  r.stages.add("simulation", 0.125);
  return r;
}

void check_digest() {
  Fnv1a empty;
  expect(empty.value() == 0xcbf29ce484222325ULL, "FNV-1a offset basis");
  Fnv1a a;
  a.bytes("a", 1);
  expect(a.value() == 0xaf63dc4c8601ec8cULL, "FNV-1a of \"a\"");

  g2g::core::ExperimentResult r = sample_result();
  const std::uint64_t base = outcome_digest(r);
  expect(outcome_digest(r) == base, "digest is stable across calls");
  const g2g::core::ExperimentResult copy = r;
  expect(outcome_digest(copy) == base, "digest is stable across copies");
  (void)r.delay_seconds.median();  // sorts the samples in place
  expect(outcome_digest(r) == base, "digest ignores sample order");

  r.stages.add("extraction", 0.5);
  expect(outcome_digest(r) == base, "digest ignores stage times");
  r.counters.counter("fastpath.verify_cache.hits").add(1);
  r.counters.counter("g2g.frame.encoded").add(1);
  expect(outcome_digest(r) == base, "digest ignores telemetry counters");

  r.counters.counter("hs.started").add(1);
  expect(outcome_digest(r) != base, "digest changes when one counter changes");
  g2g::core::ExperimentResult other = sample_result();
  other.delay_seconds.add(0.0);
  expect(outcome_digest(other) != base, "digest changes when a delay sample is added");
  other = sample_result();
  other.deviants.back() = g2g::NodeId(8);
  expect(outcome_digest(other) != base, "digest changes when a deviant changes");
  expect(digest_hex(0x0123456789abcdefULL) == "0123456789abcdef", "digest_hex");
}

void check_median() {
  expect(median({5.0}) == 5.0, "median of one");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  expect(median({2.0, 2.0, 9.0, 1.0, 2.0}) == 2.0, "median with ties");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of no samples throws");
}

void check_json_numbers() {
  for (const double v : {0.1, 1e-9, 123456.789, 2.0 / 3.0}) {
    expect(std::strtod(json_number(v, false).c_str(), nullptr) == v,
           "json_number round-trips " + json_number(v, false));
  }
  expect(json_number(243117.0, true) == "243117", "integer metrics print exactly");
}

}  // namespace

int self_check_main() {
  check_digest();
  check_median();
  check_json_numbers();
  // run.py parses this line with a JSON parser and checks its shape.
  std::cout << result_line(g_failures == 0, 3, 0,
                           {{"total_cpu_s", 2.0 / 3.0, "s"},
                            count_metric("proto.codec.frames_encoded", 243117),
                            {"sweep_efficiency", 0.97125, "ratio"}})
            << std::endl;
  return g_failures == 0 ? 0 : 1;
}

}  // namespace repro
