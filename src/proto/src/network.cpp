#include "g2g/proto/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "g2g/proto/relay/pom.hpp"
#include "g2g/util/log.hpp"

namespace g2g::proto {

namespace {
/// Adapts the discrete-event clock to the logger so lines emitted during a
/// run carry the sim-time.
class SimLogClock final : public LogClock {
 public:
  explicit SimLogClock(const sim::Simulator& sim) : sim_(sim) {}
  [[nodiscard]] std::int64_t now_micros() const override {
    return sim_.now().micros();
  }

 private:
  const sim::Simulator& sim_;
};
}  // namespace

NetworkBase::NetworkBase(const trace::ContactTrace& trace, NetworkConfig config,
                         metrics::Collector& collector)
    : config_(std::move(config)),
      node_count_(trace.node_count()),
      rng_(config_.seed),
      sim_(config_.horizon == TimePoint::zero() ? trace.end_time() : config_.horizon),
      collector_(&collector),
      trace_(&trace) {
  if (!trace.finalized()) throw std::invalid_argument("trace must be finalized");
  if (node_count_ < 2) throw std::invalid_argument("need at least 2 nodes");
  // A FastSuite keeps per-key HMAC state, so every run builds its own.
  if (!config_.suite) config_.suite = crypto::make_fast_suite();
  if (config_.obs != nullptr) {
    obs_ = config_.obs;
  } else {
    owned_obs_ = std::make_unique<obs::ObsContext>();
    obs_ = owned_obs_.get();
  }
  collector_->attach_obs(obs_);

  Rng auth_rng = rng_.fork(0xA117);
  authority_ = std::make_unique<crypto::Authority>(config_.suite, auth_rng);
  // Schedule contacts directly (rather than via sim::schedule_trace) so the
  // contact duration reaches the session for bandwidth budgeting.
  for (const auto& e : trace.events()) {
    sim_.at(e.start, [this, e] { contact(e.start, e.a, e.b, e.duration()); });
  }
}

std::size_t NetworkBase::contact_budget(Duration contact_duration) const {
  if (config_.bandwidth_bytes_per_s <= 0.0 || contact_duration == Duration::max()) {
    return static_cast<std::size_t>(-1);
  }
  const double budget = config_.bandwidth_bytes_per_s * contact_duration.to_seconds();
  return budget >= 1e18 ? static_cast<std::size_t>(-1)
                        : static_cast<std::size_t>(budget);
}

crypto::NodeIdentity NetworkBase::make_identity(NodeId n) {
  Rng key_rng = rng_.fork(0x1D000000ULL + n.value());
  crypto::NodeIdentity identity(config_.suite, n, *authority_, key_rng);
  roster_.add(identity.certificate());
  return identity;
}

void NetworkBase::register_node(ProtocolNode* node) { generic_nodes_.push_back(node); }

MessageId NetworkBase::message_id(const MessageHash& h) const {
  const auto it = hash_to_id_.find(h);
  return it != hash_to_id_.end() ? it->second : MessageId::invalid();
}

void NetworkBase::record_contact_up(NodeId a, NodeId b, Duration contact_duration) {
  obs_->counters.contacts->add();
  const bool bounded = contact_duration != Duration::max();
  if (bounded) obs_->counters.contact_duration_s->observe(contact_duration.to_seconds());
  if (obs_->tracer.enabled()) {
    obs_->tracer.emit({now(), obs::EventKind::ContactUp, a, b, 0,
                       bounded ? contact_duration.count() : -1});
  }
}

void NetworkBase::record_session(NodeId a, NodeId b, bool opened) {
  (opened ? obs_->counters.sessions_opened : obs_->counters.sessions_refused)->add();
  if (obs_->tracer.enabled()) {
    obs_->tracer.emit({now(),
                       opened ? obs::EventKind::SessionOpen : obs::EventKind::SessionRefused,
                       a, b, 0, 0});
  }
}

void NetworkBase::record_contact_down(NodeId a, NodeId b, std::size_t bytes_used) {
  if (obs_->tracer.enabled()) {
    obs_->tracer.emit({now(), obs::EventKind::ContactDown, a, b, 0,
                       static_cast<std::int64_t>(bytes_used)});
  }
}

void NetworkBase::notify_delivered(MessageId id, NodeId /*dst*/) {
  collector_->message_delivered(id, now());
}

void NetworkBase::notify_relayed(MessageId id, NodeId from, NodeId to) {
  collector_->message_relayed(id, from, to, now());
}

void NetworkBase::notify_detection(NodeId culprit, NodeId detector,
                                   metrics::DetectionMethod method, Duration after_delta1) {
  collector_->detection(
      metrics::DetectionEvent{culprit, detector, now(), method, after_delta1});
}

void NetworkBase::broadcast_pom(const ProofOfMisbehavior& pom) {
  if (!config_.instant_pom_broadcast) return;  // gossip handles dissemination
  for (ProtocolNode* node : generic_nodes_) {
    if (node->id() == pom.culprit || node->id() == pom.accuser) continue;
    (void)node->learn_pom(pom);
  }
}

void NetworkBase::warm_up(const std::vector<trace::ContactEvent>& history,
                          TimePoint window_start) {
  for (const auto& e : history) {
    if (e.start >= window_start) continue;
    const TimePoint t = TimePoint::zero() + (e.start - window_start);
    generic_nodes_.at(e.a.value())->note_encounter(e.b, t);
    generic_nodes_.at(e.b.value())->note_encounter(e.a, t);
  }
}

void NetworkBase::schedule_traffic(const std::vector<sim::TrafficDemand>& demands) {
  hash_to_id_.reserve(hash_to_id_.size() + demands.size());
  for (const auto& d : demands) {
    sim_.at(d.at, [this, d] {
      ProtocolNode& src = *generic_nodes_.at(d.src.value());
      Bytes body(d.body_size, 0);
      Rng body_rng = rng_.fork(d.id.value());
      for (auto& byte : body) byte = static_cast<std::uint8_t>(body_rng.next());
      const SealedMessage m =
          make_message(src.identity(), roster_.get(d.dst), d.id, body, rng_);
      collector_->message_generated(d.id, d.src, d.dst, now());
      // Interned once, here: every node reached by the message carries d.id
      // next to its hash from now on.
      hash_to_id_.emplace(m.hash(), d.id);
      inject(d.src, m, d.id);
    });
  }
}

void NetworkBase::run() {
  const SimLogClock clock(sim_);
  const ScopedLogClock scoped(&clock);
  const std::size_t fired = sim_.run();
  // g2g.* counters are excluded from core::to_json(ExperimentResult), so this
  // telemetry-only counter never perturbs bit-identity checks.
  obs_->registry.counter("g2g.sim.events_fired").add(fired);
  const TimePoint end =
      config_.horizon == TimePoint::zero() ? trace_->end_time() : config_.horizon;
  for (ProtocolNode* n : generic_nodes_) n->finalize(end);
  obs_->tracer.close_message_spans(end);
}

bool NetworkBase::open_session(Session& s, ProtocolNode& a, ProtocolNode& b) {
  a.note_encounter(b.id(), now());
  b.note_encounter(a.id(), now());
  // PoM gossip: accusations spread epidemically at session start, a -> b
  // then b -> a. The pom_gossip span covers the exchange when anything
  // crosses. A PoM crosses iff the receiver has not blacklisted its culprit
  // at session start: gossip only grows the receiver's blacklist, so the
  // first such PoM in either ledger is always carried.
  const auto crosses = [](const ProtocolNode& from, const ProtocolNode& to) {
    return std::ranges::any_of(from.known_poms(), [&](const ProofOfMisbehavior& pom) {
      return !to.blacklisted(pom.culprit);
    });
  };
  std::uint64_t span = 0;
  if (obs_->tracer.enabled() && (crosses(a, b) || crosses(b, a))) {
    span = obs_->tracer.open_span(now(), "pom_gossip", /*parent=*/0, a.id(), b.id());
  }
  std::size_t carried = relay::gossip_poms(s, a, b);
  carried += relay::gossip_poms(s, b, a);
  obs_->tracer.close_span(now(), span, static_cast<std::int64_t>(carried));
  // If gossip revealed the peer is a known misbehaver, cut the session.
  return a.accepts_session_with(b.id()) && b.accepts_session_with(a.id());
}

}  // namespace g2g::proto
