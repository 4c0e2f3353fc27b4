// End-to-end experiment runner: trace generation, community detection,
// network construction, traffic injection, simulation, result extraction.
// Every bench binary and most integration tests drive this API.
#pragma once

#include <optional>
#include <vector>

#include "g2g/community/kclique.hpp"
#include "g2g/core/presets.hpp"
#include "g2g/crypto/suite.hpp"
#include "g2g/metrics/collector.hpp"
#include "g2g/obs/context.hpp"
#include "g2g/obs/stage.hpp"
#include "g2g/obs/tracer.hpp"
#include "g2g/proto/node.hpp"
#include "g2g/util/stats.hpp"

namespace g2g::core {

/// The six protocols of Fig. 8.
enum class Protocol {
  Epidemic,
  G2GEpidemic,
  DelegationFrequency,
  DelegationLastContact,
  G2GDelegationFrequency,
  G2GDelegationLastContact,
};

[[nodiscard]] const char* to_string(Protocol p);
[[nodiscard]] bool is_g2g(Protocol p);
[[nodiscard]] bool is_delegation(Protocol p);

struct ExperimentConfig {
  Protocol protocol = Protocol::Epidemic;
  Scenario scenario;

  /// Deviation model: `deviant_count` nodes (chosen uniformly by `seed`)
  /// run `deviation`, possibly only against outsiders.
  proto::Behavior deviation = proto::Behavior::Faithful;
  std::size_t deviant_count = 0;
  bool with_outsiders = false;

  /// Paper workload: 3-hour simulation, traffic only in the first 2 hours,
  /// Poisson with one message per 4 seconds, uniform src/dst.
  Duration sim_window = Duration::hours(3);
  Duration traffic_window = Duration::hours(2);
  Duration mean_interarrival = Duration::seconds(4);
  std::size_t message_body_size = 64;

  std::uint64_t seed = 1;
  /// Feed the pre-window trace history into the encounter tables (the
  /// Delegation qualities need more than 3 hours of history to be useful).
  bool warm_up_tables = true;
  /// nullptr => fast symmetric suite (default for sweeps), one per run. A
  /// make_fast_suite() passed here keeps per-key state and must not be
  /// shared by runs on different threads; a Schnorr suite may be.
  crypto::SuitePtr suite;
  /// Override Delta1 (otherwise taken from the scenario per protocol family).
  std::optional<Duration> delta1_override;
  /// Delta2 as a multiple of Delta1 (paper: 2).
  double delta2_factor = 2.0;
  /// Relays each holder must find (paper: 2).
  std::size_t relay_fanout = 2;
  /// Ablations (see bench/ablation_mechanisms.cpp).
  bool per_holder_ttl = false;        ///< count Delta1 from receipt, not creation
  bool instant_pom_broadcast = false; ///< oracle PoM dissemination
  /// Finite-buffer extension for the vanilla protocols (0 = unlimited).
  std::size_t max_buffer_messages = 0;
  /// Radio bandwidth in bytes/second (0 = unlimited, the paper's assumption).
  double bandwidth_bytes_per_s = 0.0;

  /// Observability. Tracing never perturbs the simulation: a traced run is
  /// bit-identical to an untraced one (tests/obs_test.cpp).
  /// Stream every simulation event to this sink (e.g. an obs::JsonlSink);
  /// non-owning, must outlive the run. nullptr = no streaming.
  obs::EventSink* trace_sink = nullptr;
  /// Keep the last N events in memory and snapshot them into
  /// ExperimentResult::events. 0 = off.
  std::size_t trace_ring = 0;
};

struct ExperimentResult {
  // Forwarding performance.
  std::size_t generated = 0;
  std::size_t delivered = 0;
  double success_rate = 0.0;
  Samples delay_seconds;
  double avg_replicas = 0.0;

  // Misbehaviour detection.
  std::size_t deviant_count = 0;
  std::size_t detected_count = 0;
  double detection_rate = 0.0;
  Samples detection_minutes_after_delta1;  // first detection per culprit
  std::size_t false_positives = 0;         // detections of faithful nodes

  // Raw data for deeper analysis.
  metrics::Collector collector;
  std::vector<NodeId> deviants;
  std::size_t community_count = 0;

  // Observability snapshots.
  obs::Registry counters;         ///< protocol counters + histograms of the run
  obs::StageProfile stages;       ///< wall-clock pipeline stage times
  std::vector<obs::Event> events; ///< ring contents (only if trace_ring > 0)
};

/// Run one experiment. Deterministic in config.seed.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Average key outcome metrics over `runs` seeds (seed, seed+1, ...).
struct AggregateResult {
  RunningStats success_rate;
  RunningStats avg_delay_s;
  RunningStats avg_replicas;
  RunningStats detection_rate;
  RunningStats detection_minutes;
  std::size_t false_positives = 0;
};
/// `last` (optional) receives the final run's full result — counters and
/// stage profile included — for observability reports over a sweep.
[[nodiscard]] AggregateResult run_repeated(ExperimentConfig config, std::size_t runs,
                                           ExperimentResult* last = nullptr);

/// Per-node payoff in the paper's sense: strictly positive for participants,
/// decreasing in energy and memory cost, zero if the node was evicted or its
/// service collapsed. Used by the Nash-equilibrium property tests.
struct PayoffWeights {
  // Calibrated so that a faithful participant's payoff is strictly positive
  // (service value dominates its protocol costs) while an evicted node's
  // payoff is 0 — the paper's shape: f_i > 0, decreasing in energy/memory,
  // collapsing on loss of service.
  double per_delivery = 2000.0;    // value of a delivered own message
  double per_reception = 2000.0;   // value of a received message
  double per_byte = 0.0001;        // energy per transferred byte
  double per_signature = 0.05;     // energy per sign/verify
  double per_heavy_hmac = 500.0;   // energy per storage-proof HMAC (>> signature)
  double per_mbyte_second = 0.01;  // memory cost
  double baseline = 20000.0;       // value of simply being part of the system
};
[[nodiscard]] double node_payoff(const ExperimentResult& r, NodeId n,
                                 const PayoffWeights& w = {});

}  // namespace g2g::core
