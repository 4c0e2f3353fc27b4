// Reproduction benchmark: measurement, reference digests and self-checks.
//
//   g2g_repro_bench --workload NAME --seed N --seconds S --trace 0|1
//                   --reference FILE [--rev TEXT]
//   g2g_repro_bench --write-reference FILE
//   g2g_repro_bench --self-check
//
// --trace 0 sets up every cell's inputs several times, then runs the cell
// list pass after pass while another pass fits in S seconds, timing each run
// with the thread CPU clock between two calibration kernels, and prints the
// end-to-end metrics. --trace 1 runs one untraced and one traced pass and
// prints the per-layer metrics. `--seed` shuffles the order of each pass.
// Every run's outcome digest is checked against the reference table; a
// mismatch makes the result incorrect and the exit code 1. The last stdout
// line is the result object; the line before it is the provenance object.
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "digest.hpp"
#include "g2g/community/graph.hpp"
#include "g2g/community/kclique.hpp"
#include "g2g/core/parallel.hpp"
#include "g2g/crypto/fastpath.hpp"
#include "g2g/proto/node.hpp"
#include "g2g/sim/traffic.hpp"
#include "g2g/trace/synthetic.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "timing_suite.hpp"
#include "workloads.hpp"

#ifdef REPRO_ALLOC_PROBE
#include "g2g/util/alloc_probe.hpp"
#endif

namespace repro {
namespace {

using g2g::core::ExperimentConfig;
using g2g::core::ExperimentResult;
using WallClock = std::chrono::steady_clock;

constexpr int kSetupReps = 5;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

std::uint64_t allocations() {
#ifdef REPRO_ALLOC_PROBE
  return g2g::heap_alloc_count();
#else
  return 0;
#endif
}

// ---------------------------------------------------------------------------
// Host speed. On a shared host the CPU time of the same run moves by up to a
// quarter within seconds (neighbours, frequency), and the thread CPU clock
// counts it all. A fixed calibration kernel of the benchmark's own (sort and
// hash-map inserts, no simulator code) is timed right before and right after
// each timed region; end-to-end times are reported in reference-host
// seconds: time x kReferenceKernelS / mean(kernel before, kernel after).

constexpr double kReferenceKernelS = 0.013;  // kernel CPU on an Intel Xeon 4-vCPU VM

double calibration_kernel_s() {
  g2g::Rng rng(12345);
  std::vector<std::uint64_t> v(1 << 17);
  for (auto& x : v) x = rng.next();
  const double c0 = thread_cpu_s();
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  for (std::size_t i = 0; i < v.size(); i += 4) m[v[i]] += i;
  const double elapsed = thread_cpu_s() - c0;
  if (m.empty()) throw std::logic_error("calibration kernel did no work");
  return elapsed;
}

/// Runs `region` between two kernel timings; returns the factor that turns
/// the region's measured times into reference-host seconds. Adds the wall
/// time the two kernels took to `*overhead_s` when given.
template <typename Region>
double calibrated(Region&& region, double* overhead_s = nullptr) {
  auto t0 = WallClock::now();
  const double before = calibration_kernel_s();
  double overhead = since(t0);
  region();
  t0 = WallClock::now();
  const double after = calibration_kernel_s();
  overhead += since(t0);
  if (overhead_s != nullptr) *overhead_s += overhead;
  return 2.0 * kReferenceKernelS / (before + after);
}

// ---------------------------------------------------------------------------
// Set-up: the inputs run_experiment derives from a config, built the same way.

struct SetupTimes {
  double trace_gen = 0.0;
  double kclique = 0.0;
  double traffic = 0.0;
  [[nodiscard]] double total() const { return trace_gen + kclique + traffic; }
};

SetupTimes build_inputs(const ExperimentConfig& cfg) {
  SetupTimes t;
  double t0 = thread_cpu_s();
  g2g::trace::SyntheticConfig trace_config = cfg.scenario.trace_config;
  trace_config.seed = trace_config.seed * 1000003ULL + cfg.seed;
  const g2g::trace::SyntheticTrace synthetic = g2g::trace::generate_trace(trace_config);
  const g2g::TimePoint w0 = cfg.scenario.window_start;
  const g2g::trace::ContactTrace window = synthetic.trace.slice(w0, w0 + cfg.sim_window);
  double t1 = thread_cpu_s();
  t.trace_gen = t1 - t0;

  t0 = t1;
  const g2g::community::ContactGraph graph(
      synthetic.trace, g2g::community::ContactGraphConfig::for_span(
                           synthetic.trace.end_time() - synthetic.trace.start_time()));
  const g2g::community::CommunityMap communities =
      g2g::community::k_clique_communities(graph, cfg.scenario.kclique_k);
  t1 = thread_cpu_s();
  t.kclique = t1 - t0;

  t0 = t1;
  g2g::sim::TrafficConfig traffic;
  traffic.mean_interarrival = cfg.mean_interarrival;
  traffic.start = g2g::TimePoint::zero();
  traffic.end = g2g::TimePoint::zero() + cfg.traffic_window;
  traffic.body_size = cfg.message_body_size;
  traffic.seed = cfg.seed * 104729 + 3;
  const auto demands = g2g::sim::generate_traffic(traffic, window.node_count());
  t.traffic = thread_cpu_s() - t0;
  if (demands.empty() || communities.group_count() == 0) {
    throw std::runtime_error("degenerate inputs for a benchmark cell");
  }
  return t;
}

/// Median over kSetupReps of building every cell's inputs once, in
/// reference-host seconds.
SetupTimes measure_setup(const Workload& w) {
  std::vector<double> total, trace_gen, kclique, traffic;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupTimes sum;
    const double scale = calibrated([&] {
      for (const Cell& c : w.cells) {
        const SetupTimes t = build_inputs(c.config);
        sum.trace_gen += t.trace_gen;
        sum.kclique += t.kclique;
        sum.traffic += t.traffic;
      }
    });
    total.push_back(sum.total() * scale);
    trace_gen.push_back(sum.trace_gen * scale);
    kclique.push_back(sum.kclique * scale);
    traffic.push_back(sum.traffic * scale);
  }
  SetupTimes out{median(trace_gen), median(kclique), median(traffic)};
  // Report the median total, not the sum of per-phase medians.
  const double scale = out.total() > 0.0 ? median(total) / out.total() : 1.0;
  out.trace_gen *= scale;
  out.kclique *= scale;
  out.traffic *= scale;
  return out;
}

// ---------------------------------------------------------------------------
// Peak resident memory. Linux lets a process reset its high-water mark, so
// the peak of one run (or one parallel pass) is measured on its own.

void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back so the reset starts from live data
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---------------------------------------------------------------------------
// Reference digests: "cell<TAB>digest" lines.

using ReferenceTable = std::map<std::string, std::string>;

ReferenceTable load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests " + path);
  ReferenceTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string cell, digest;
    if (!(fields >> cell >> digest)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    table[cell] = digest;
  }
  return table;
}

// ---------------------------------------------------------------------------
// One run of one cell, and passes over a workload's cell list.

struct RunRecord {
  double cpu_s = 0.0;
  double host_scale = 1.0;  ///< reference-host seconds per measured second
  double calibration_wall_s = 0.0;
  double wall_start = 0.0;  ///< seconds since the pass started
  double wall_end = 0.0;
  std::size_t worker = 0;
  std::uint64_t digest = 0;
  std::uint64_t allocs = 0;
  std::uint64_t heavy_hmacs = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> stages;
  SuiteStats suite;
};

struct Pass {
  std::vector<RunRecord> runs;  ///< positionally aligned with the cells
  double wall_s = 0.0;
  std::size_t threads = 1;
  /// Median per-run peak for a sequential pass, the pass's peak otherwise.
  double peak_rss_mb = 0.0;

  [[nodiscard]] double cpu_s() const {
    double s = 0.0;
    for (const RunRecord& r : runs) s += r.cpu_s;
    return s;
  }
  [[nodiscard]] double host_scale() const {
    std::vector<double> v;
    for (const RunRecord& r : runs) v.push_back(r.host_scale);
    return median(v);
  }
};

std::atomic<std::size_t> g_next_worker{0};
thread_local std::size_t t_worker = g_next_worker.fetch_add(1);

RunRecord run_cell(const Cell& cell, bool traced, WallClock::time_point pass_start) {
  ExperimentConfig cfg = cell.config;
  std::shared_ptr<TimingSuite> suite;
  if (traced) {
    suite = std::make_shared<TimingSuite>(g2g::crypto::make_fast_suite());
    cfg.suite = suite;
  }
  RunRecord rec;
  rec.worker = t_worker;
  ExperimentResult r;
  const auto run = [&] {
    rec.wall_start = since(pass_start);
    const std::uint64_t a0 = allocations();
    const double c0 = thread_cpu_s();
    r = g2g::core::run_experiment(cfg);
    rec.cpu_s = thread_cpu_s() - c0;
    rec.allocs = allocations() - a0;
    rec.wall_end = since(pass_start);
  };
  // Traced runs report raw times, so they skip the calibration kernels and
  // their wall spans stay contiguous for the busy-share figures.
  if (traced) {
    run();
  } else {
    rec.host_scale = calibrated(run, &rec.calibration_wall_s);
  }

  rec.digest = outcome_digest(r);
  for (const auto& [name, counter] : r.counters.counters()) rec.counters[name] = counter.value();
  for (const auto& stage : r.stages.stages()) rec.stages[stage.name] += stage.seconds;
  for (std::size_t n = 0; n < cfg.scenario.trace_config.nodes; ++n) {
    rec.heavy_hmacs += r.collector.costs(g2g::NodeId(static_cast<std::uint32_t>(n))).heavy_hmacs;
  }
  if (suite) rec.suite = suite->stats();
  return rec;
}

/// Runs every cell once, in the order `order` gives (a permutation of the
/// cell indices); records stay aligned with the cells.
Pass run_pass(const Workload& w, const std::vector<std::size_t>& order, bool traced) {
  Pass pass;
  pass.threads = w.threads;
  pass.runs.resize(w.cells.size());
  const auto t0 = WallClock::now();
  if (w.threads == 1) {
    std::vector<double> peaks;
    for (const std::size_t i : order) {
      reset_peak_rss();
      pass.runs[i] = run_cell(w.cells[i], traced, t0);
      peaks.push_back(peak_rss_mb());
    }
    pass.peak_rss_mb = median(peaks);
  } else {
    reset_peak_rss();
    g2g::core::sharded_for(order.size(), w.threads, [&](std::size_t k) {
      pass.runs[order[k]] = run_cell(w.cells[order[k]], traced, t0);
    });
    pass.peak_rss_mb = peak_rss_mb();
  }
  // The pass's wall time without the calibration kernels (spread over the
  // workers when they ran in parallel).
  double calibration = 0.0;
  for (const RunRecord& r : pass.runs) calibration += r.calibration_wall_s;
  pass.wall_s = since(t0) - calibration / static_cast<double>(w.threads);
  return pass;
}

// ---------------------------------------------------------------------------
// Checks.

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

void check_pass(const Workload& w, const Pass& pass, const ReferenceTable& reference,
                Verdict& v) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    ++v.attempted;
    const auto it = reference.find(w.cells[i].name);
    const std::string got = digest_hex(pass.runs[i].digest);
    if (it == reference.end()) {
      ++v.failed;
      v.problems.push_back("no reference digest for " + w.cells[i].name);
    } else if (it->second != got) {
      ++v.failed;
      v.problems.push_back("outcome digest mismatch for " + w.cells[i].name + ": " + got +
                           " != " + it->second);
    }
  }
}

// Work counters that must not move between the untraced and traced pass.
const char* const kWorkCounters[] = {"g2g.frame.encoded", "g2g.frame.decoded",
                                     "g2g.sim.events_fired", "g2g.pom.batch_verified",
                                     "fastpath.verify_cache.hits",
                                     "fastpath.verify_cache.misses"};

void check_neutral(const Workload& w, const Pass& untraced, const Pass& traced, Verdict& v) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const RunRecord& a = untraced.runs[i];
    const RunRecord& b = traced.runs[i];
    if (a.digest != b.digest) {
      v.problems.push_back("traced digest differs from untraced for " + w.cells[i].name);
    }
    if (a.heavy_hmacs != b.heavy_hmacs) {
      v.problems.push_back("traced heavy-HMAC count differs for " + w.cells[i].name);
    }
    for (const char* name : kWorkCounters) {
      const auto get = [&](const RunRecord& r) {
        const auto it = r.counters.find(name);
        return it == r.counters.end() ? std::uint64_t{0} : it->second;
      };
      if (get(a) != get(b)) {
        v.problems.push_back(std::string("traced ") + name + " differs for " + w.cells[i].name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Provenance.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string provenance_line(const Workload& w, const std::string& rev, std::uint64_t bench_seed,
                            std::size_t passes, bool traced, double host_scale) {
  std::string out = "{\"provenance\": {";
  const auto field = [&](const std::string& k, std::string v, bool quote = true) {
    if (quote) {
      std::erase_if(v, [](char c) { return c == '"' || c == '\\' || c < ' '; });
      v = "\"" + v + "\"";
    }
    if (out.back() != '{') out += ", ";
    out += "\"" + k + "\": " + v;
  };
  field("rev", rev);
  field("build_type", REPRO_BUILD_TYPE);
  field("optimised", optimised_build() ? "true" : "false", false);
  field("compiler", REPRO_COMPILER);
  field("cpu_model", cpu_model());
  field("nproc", std::to_string(std::thread::hardware_concurrency()), false);
  field("threads", std::to_string(w.threads), false);
  field("sha_ni", g2g::crypto::sha_ni_available() ? "true" : "false", false);
  field("avx2", g2g::crypto::avx2_available() ? "true" : "false", false);
  field("workload", w.name);
  field("bench_seed", std::to_string(bench_seed), false);
  field("cells", std::to_string(w.cells.size()), false);
  field("passes", std::to_string(passes), false);
  field("host_scale", json_number(host_scale, false), false);
  field("traced", traced ? "true" : "false", false);
  field("alloc_probe", allocations() > 0 ? "true" : "false", false);
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Metrics.

/// Times are in reference-host seconds (see calibrated()).
std::vector<Metric> end_to_end_metrics(const Workload& w, const std::vector<Pass>& passes,
                                       const SetupTimes& setup) {
  std::vector<double> cell_medians;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    std::vector<double> cpu;
    for (const Pass& p : passes) cpu.push_back(p.runs[i].cpu_s * p.runs[i].host_scale);
    cell_medians.push_back(median(cpu));
  }
  double total = 0.0;
  for (const double m : cell_medians) total += m;
  std::vector<double> wall, efficiency, rss;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s * p.host_scale());
    efficiency.push_back(p.cpu_s() / (static_cast<double>(p.threads) * p.wall_s));
    rss.push_back(p.peak_rss_mb);
  }
  return {
      {"total_cpu_s", total, "s"},
      {"run_cpu_s.p50", median(cell_medians), "s"},
      {"run_cpu_s.max", *std::max_element(cell_medians.begin(), cell_medians.end()), "s"},
      {"setup_s", setup.total(), "s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"sweep_wall_s", median(wall), "s"},
      {"sweep_efficiency", median(efficiency), "ratio"},
  };
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<Metric> per_layer_metrics(const Workload& w, const Pass& untraced, const Pass& traced,
                                      const SetupTimes& setup, const Verdict& v) {
  std::map<std::string, std::uint64_t> c;  // counters summed over the traced pass
  std::map<std::string, double> stage;
  SuiteStats suite;
  std::uint64_t chains = 0;
  for (const RunRecord& r : traced.runs) {
    for (const auto& [name, value] : r.counters) c[name] += value;
    for (const auto& [name, seconds] : r.stages) stage[name] += seconds;
    suite += r.suite;
    chains += r.heavy_hmacs;
  }
  std::uint64_t allocs = 0;
  for (const RunRecord& r : untraced.runs) allocs += r.allocs;
  const auto n = [&](const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };
  const double runs = static_cast<double>(w.cells.size());
  const double untraced_cpu = untraced.cpu_s();
  const double traced_cpu = traced.cpu_s();

  std::map<std::string, std::uint64_t> frame_msgs;
  std::uint64_t frame_bytes = 0;
  for (const char* kind : kFrameKinds) {
    frame_msgs[kind] = n(std::string("wire.") + kind + ".msgs");
    frame_bytes += n(std::string("wire.") + kind + ".bytes");
  }
  const ChainCost chain = heavy_hmac_chain_cost(g2g::proto::NodeConfig{}.heavy_hmac_iterations);
  const double per_frame_ns = frame_ns(frame_msgs);
  std::size_t nodes = 0;
  for (const Cell& cell : w.cells) nodes += cell.config.scenario.trace_config.nodes;

  // Busy share and tail idle of the traced pass, from the per-run wall spans.
  double busy = 0.0;
  std::map<std::size_t, double> last_end;
  for (const RunRecord& r : traced.runs) {
    busy += r.wall_end - r.wall_start;
    last_end[r.worker] = std::max(last_end[r.worker], r.wall_end);
  }
  double earliest_idle = traced.wall_s;
  for (const auto& [worker, end] : last_end) earliest_idle = std::min(earliest_idle, end);
  if (last_end.size() < traced.threads) earliest_idle = 0.0;  // a worker never ran

  const std::uint64_t verify_hits = n("fastpath.verify_cache.hits");
  const std::uint64_t verify_misses = n("fastpath.verify_cache.misses");
  return {
      {"setup.trace_gen_s", setup.trace_gen, "s"},
      {"setup.kclique_s", setup.kclique, "s"},
      {"setup.traffic_s", setup.traffic, "s"},
      {"stage.simulation_s", stage["simulation"], "s"},
      {"stage.warm_up_s", stage["warm_up"], "s"},
      {"stage.pom_batch_verify_s", stage["pom_batch_verify"], "s"},
      {"stage.extraction_s", stage["extraction"], "s"},
      count_metric("crypto.sig.sign_calls", suite.sign_calls),
      count_metric("crypto.sig.verify_calls", suite.verify_calls),
      count_metric("crypto.sig.batch_calls", suite.batch_calls),
      {"crypto.sig.batch_size_mean",
       ratio(static_cast<double>(suite.batch_items), static_cast<double>(suite.batch_calls)),
       "count"},
      count_metric("crypto.sig.dh_calls", suite.dh_calls),
      {"crypto.sig.cpu_s", suite.seconds, "s"},
      {"crypto.sig.share", ratio(suite.seconds, traced_cpu), "ratio"},
      count_metric("crypto.cache.verify_hits", verify_hits),
      count_metric("crypto.cache.verify_misses", verify_misses),
      {"crypto.cache.verify_hit_ratio",
       ratio(static_cast<double>(verify_hits), static_cast<double>(verify_hits + verify_misses)),
       "ratio"},
      count_metric("crypto.cache.secret_hits", n("fastpath.secret_cache.hits")),
      count_metric("crypto.heavy_hmac.chains", chains),
      {"crypto.heavy_hmac.chain_us", chain.full_lanes_us, "us"},
      {"crypto.heavy_hmac.chain_us_1lane", chain.one_lane_us, "us"},
      {"crypto.heavy_hmac.est_share",
       ratio(static_cast<double>(chains) * chain.full_lanes_us * 1e-6, untraced_cpu), "ratio"},
      {"crypto.sha256.block_ns", sha256_block_ns(), "ns"},
      count_metric("proto.codec.frames_encoded", n("g2g.frame.encoded")),
      count_metric("proto.codec.frames_decoded", n("g2g.frame.decoded")),
      {"proto.codec.wire_bytes", static_cast<double>(frame_bytes), "bytes", true},
      {"proto.codec.frame_ns", per_frame_ns, "ns"},
      {"proto.codec.est_share",
       ratio(static_cast<double>(n("g2g.frame.encoded")) * per_frame_ns * 1e-9, untraced_cpu),
       "ratio"},
      count_metric("proto.relay.hs_started", n("hs.started")),
      count_metric("proto.relay.hs_completed", n("hs.completed")),
      {"proto.relay.hs_yield",
       ratio(static_cast<double>(n("hs.completed")), static_cast<double>(n("hs.started"))),
       "ratio"},
      count_metric("proto.relay.por_verified", n("hs.por_verified")),
      count_metric("proto.audit.tests", n("detect.tests_by_sender")),
      count_metric("proto.audit.storage_challenges", n("detect.storage_challenges")),
      count_metric("proto.pom.gossiped", n("pom.gossiped")),
      count_metric("proto.pom.batch_verified", n("g2g.pom.batch_verified")),
      count_metric("sim.events_fired", n("g2g.sim.events_fired")),
      count_metric("sim.contacts", n("session.contacts")),
      count_metric("sim.sessions_opened", n("session.opened")),
      {"sim.event_ns",
       event_ns(static_cast<std::size_t>(static_cast<double>(n("g2g.sim.events_fired")) / runs)),
       "ns"},
      count_metric("metrics.messages", n("msg.generated")),
      count_metric("metrics.buffer_adds", n("buffer.adds")),
      count_metric("metrics.buffer_drops", n("buffer.drops")),
      {"metrics.costs_ns", costs_ns(static_cast<std::size_t>(static_cast<double>(nodes) / runs)),
       "ns"},
      count_metric("alloc.total", allocs),
      {"alloc.per_run", static_cast<double>(allocs) / runs, "count"},
      {"alloc.per_handshake", ratio(static_cast<double>(allocs), static_cast<double>(n("hs.started"))),
       "count"},
      {"sweep.busy_share", ratio(busy, static_cast<double>(traced.threads) * traced.wall_s),
       "ratio"},
      {"sweep.tail_idle_s", traced.wall_s - earliest_idle, "s"},
      {"trace.overhead", ratio(traced_cpu, untraced_cpu), "ratio"},
      {"failed_runs", ratio(static_cast<double>(v.failed), static_cast<double>(v.attempted)),
       "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Modes.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string rev = "unknown";
  std::string write_reference;
  bool self_check = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = t == "1";
    } else if (arg == "--reference") {
      a.reference = value();
    } else if (arg == "--rev") {
      a.rev = value();
    } else if (arg == "--write-reference") {
      a.write_reference = value();
    } else if (arg == "--self-check") {
      a.self_check = true;
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  if (a.self_check || !a.write_reference.empty()) return a;
  if (!have_workload || !have_seed || a.reference.empty()) {
    throw std::invalid_argument("--workload, --seed and --reference are required");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int write_reference(const std::string& path) {
  // Every distinct cell of every workload.
  std::map<std::string, ExperimentConfig> cells;
  for (const std::string& name : workload_names()) {
    for (const Cell& c : make_workload(name, 1).cells) cells.emplace(c.name, c.config);
  }
  std::vector<const std::pair<const std::string, ExperimentConfig>*> entries;
  for (const auto& entry : cells) entries.push_back(&entry);
  std::vector<std::uint64_t> digests(entries.size());
  g2g::core::sharded_for(entries.size(), 0, [&](std::size_t i) {
    digests[i] = outcome_digest(g2g::core::run_experiment(entries[i]->second));
  });
  std::ofstream out(path);
  out << "# Outcome digests (repro_bench/src/digest.hpp) of every benchmark cell.\n"
         "# Regenerate with: g2g_repro_bench --write-reference FILE\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << entries[i]->first << '\t' << digest_hex(digests[i]) << '\n';
  }
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return 1;
  }
  std::cerr << "wrote " << entries.size() << " reference digests to " << path << "\n";
  return 0;
}

int run(const Args& a) {
  if (!optimised_build()) {
    std::cerr << "error: benchmark binary is not an optimised build (" << REPRO_BUILD_TYPE
              << "); its timings would be meaningless\n";
    return 2;
  }
  const Workload w =
      make_workload(a.workload, std::max(1u, std::thread::hardware_concurrency()));
  const ReferenceTable reference = load_reference(a.reference);
  for (const Cell& c : w.cells) {
    if (!reference.contains(c.name)) throw std::runtime_error("no reference digest for " + c.name);
  }
  // `--seed` fixes the order each pass runs the cells in.
  g2g::Rng order_rng(a.seed);
  const auto next_order = [&] {
    std::vector<std::size_t> order(w.cells.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    order_rng.shuffle(order);
    return order;
  };

  Verdict v;
  std::vector<Metric> metrics;
  std::size_t pass_count = 0;
  double host_scale = 1.0;
  const SetupTimes setup = measure_setup(w);
  if (!a.trace) {
    // Whole passes only: stop before a pass that would overrun the budget.
    std::vector<Pass> passes;
    const auto t0 = WallClock::now();
    double last_pass_s = 0.0;
    do {
      const auto pass_t0 = WallClock::now();
      passes.push_back(run_pass(w, next_order(), /*traced=*/false));
      check_pass(w, passes.back(), reference, v);
          last_pass_s = since(pass_t0);
    } while (since(t0) + last_pass_s <= a.seconds);
    pass_count = passes.size();
    std::vector<double> scales;
    for (const Pass& p : passes) scales.push_back(p.host_scale());
    host_scale = median(scales);
    metrics = end_to_end_metrics(w, passes, setup);
  } else {
    const std::vector<std::size_t> order = next_order();
    const Pass untraced = run_pass(w, order, /*traced=*/false);
    check_pass(w, untraced, reference, v);
    const Pass traced = run_pass(w, order, /*traced=*/true);
    check_pass(w, traced, reference, v);
    check_neutral(w, untraced, traced, v);
    pass_count = 2;
    host_scale = untraced.host_scale();
    metrics = per_layer_metrics(w, untraced, traced, setup, v);
  }

  for (const std::string& p : v.problems) std::cerr << "FAIL: " << p << "\n";
  const bool correct = v.problems.empty();
  std::cout << provenance_line(w, a.rev, a.seed, pass_count, a.trace, host_scale) << "\n";
  std::cout << result_line(correct, v.attempted, v.failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int self_check_main();  // self_check.cpp

}  // namespace repro

int main(int argc, char** argv) {
  try {
    const repro::Args args = repro::parse(argc, argv);
    if (args.self_check) return repro::self_check_main();
    if (!args.write_reference.empty()) return repro::write_reference(args.write_reference);
    return repro::run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
