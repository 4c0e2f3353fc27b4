// Shared fixtures for the protocol tests: a hand-built contact trace driving
// a typed Network, with helpers for injecting messages at specific times and
// interrogating nodes afterwards.
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/suite.hpp"
#include "g2g/metrics/collector.hpp"
#include "g2g/obs/tracer.hpp"
#include "g2g/proto/network.hpp"
#include "g2g/trace/contact.hpp"

namespace g2g::proto::testutil {

struct Contact {
  std::uint32_t a;
  std::uint32_t b;
  double start_s;
  double end_s;
};

inline trace::ContactTrace make_trace(std::size_t node_count,
                                      std::initializer_list<Contact> contacts) {
  trace::ContactTrace t;
  for (const auto& c : contacts) {
    t.add(NodeId(c.a), NodeId(c.b), TimePoint::from_seconds(c.start_s),
          TimePoint::from_seconds(c.end_s));
  }
  // Pad the node universe: a contact of the last node far past any horizon.
  if (node_count >= 2) {
    t.add(NodeId(static_cast<std::uint32_t>(node_count - 2)),
          NodeId(static_cast<std::uint32_t>(node_count - 1)),
          TimePoint::from_seconds(9.0e8), TimePoint::from_seconds(9.0e8 + 1.0));
  }
  t.finalize();
  return t;
}

/// A small typed world: trace + network + collector, with message injection.
template <typename NodeT>
class World {
 public:
  World(trace::ContactTrace trace, NetworkConfig config,
        std::vector<BehaviorConfig> behaviors = {})
      : trace_(std::move(trace)),
        network_(std::make_unique<Network<NodeT>>(trace_, std::move(config),
                                                  std::move(behaviors), collector_)) {}

  explicit World(trace::ContactTrace trace, std::vector<BehaviorConfig> behaviors = {})
      : World(std::move(trace), default_config(), std::move(behaviors)) {}

  [[nodiscard]] static NetworkConfig default_config() {
    NetworkConfig cfg;
    cfg.node.delta1 = Duration::minutes(30);
    cfg.node.delta2 = Duration::minutes(60);
    cfg.node.heavy_hmac_iterations = 8;  // keep tests fast
    cfg.horizon = TimePoint::from_seconds(4.0 * 3600.0);
    return cfg;
  }

  /// Schedule one message src -> dst at time t.
  MessageId send(std::uint32_t src, std::uint32_t dst, double at_s, std::size_t body = 16) {
    const MessageId id(next_id_++);
    network_->schedule_traffic({sim::TrafficDemand{
        id, NodeId(src), NodeId(dst), TimePoint::from_seconds(at_s), body}});
    return id;
  }

  void run() { network_->run(); }

  [[nodiscard]] NodeT& node(std::uint32_t n) { return network_->node(NodeId(n)); }
  [[nodiscard]] Network<NodeT>& network() { return *network_; }
  [[nodiscard]] metrics::Collector& collector() { return collector_; }

  [[nodiscard]] bool delivered(MessageId id) const {
    return collector_.message(id).delivered.has_value();
  }
  [[nodiscard]] std::uint32_t replicas(MessageId id) const {
    return collector_.message(id).replicas;
  }

 private:
  trace::ContactTrace trace_;
  metrics::Collector collector_;
  std::unique_ptr<Network<NodeT>> network_;
  std::uint64_t next_id_ = 1;
};

/// One edit of a relay's held ciphertext between the relay contact and the
/// audit, for the tampered storage-proof tests: each must make the stored
/// copy differ from the source's, so the proof fails.
struct StoredCopyEdit {
  std::string name;
  void (*apply)(Bytes& ciphertext);
};

// gtest prints a parameter in the test list; the name keeps it stable.
inline void PrintTo(const StoredCopyEdit& e, std::ostream* os) { *os << e.name; }

inline std::vector<StoredCopyEdit> stored_copy_edits() {
  return {{"FlipFirstByte", [](Bytes& c) { c.front() ^= 0x01; }},
          {"FlipLastByte", [](Bytes& c) { c.back() ^= 0x80; }},
          {"AppendByte", [](Bytes& c) { c.push_back(0x00); }},
          {"DropByte", [](Bytes& c) { c.pop_back(); }}};
}

/// One forged-PoR audit case: the suite the run signs with, and whether the
/// relay still holds the message's payload when its source audits it.
struct ForgedPorCase {
  std::string name;
  bool schnorr;
  bool relay_keeps_msg;
};

inline void PrintTo(const ForgedPorCase& c, std::ostream* os) { *os << c.name; }

inline std::vector<ForgedPorCase> forged_por_cases() {
  return {{"FastSuiteMsgDropped", false, false},
          {"FastSuiteMsgKept", false, true},
          {"SchnorrSuiteMsgDropped", true, false},
          {"SchnorrSuiteMsgKept", true, true}};
}

/// A fresh suite per run: FastSuite keeps per-run key schedules.
inline crypto::SuitePtr forged_por_suite(const ForgedPorCase& c) {
  return c.schnorr ? crypto::make_schnorr_suite(crypto::SchnorrGroup::small_group())
                   : crypto::make_fast_suite();
}

/// Collects every trace event of the run, in order.
struct EventRecordingSink final : obs::EventSink {
  void on_event(const obs::Event& e) override { events.push_back(e); }
  std::vector<obs::Event> events;
};

/// Flip one signature byte of the first PoR `relay` holds for its only
/// message, once it holds relay_fanout of them. With `keep_msg` the relay
/// takes the payload back (and its buffer charge), as if it had never
/// dropped it after fulfilling its fan-out.
template <typename NodeT>
void forge_first_por(NodeT& relay, bool keep_msg) {
  auto& holds = relay.handshake().holds();
  ASSERT_EQ(holds.size(), 1u);
  auto& hold = holds.begin()->second;
  ASSERT_EQ(hold.pors.size(), relay.config().relay_fanout);
  hold.pors.front().taker_signature[5] ^= 0x01;
  if (keep_msg && !hold.has_msg) {
    hold.has_msg = true;
    relay.buffer_changed(static_cast<std::int64_t>(hold.msg_bytes));
  }
}

/// The audit of a relay whose first PoR was forged: the source traces
/// PorVerified for every presented PoR in order (0 for the forged one),
/// the PoR half fails, no storage proof is asked for (a full PoR set never
/// carries one) and the relay is convicted by the test by the sender.
template <typename NodeT>
void expect_forged_por_convicts(World<NodeT>& w, const EventRecordingSink& sink,
                                std::uint32_t source, std::uint32_t relay,
                                const std::vector<std::pair<NodeId, std::int64_t>>& por_verdicts) {
  std::vector<std::pair<NodeId, std::int64_t>> verified;
  std::vector<std::int64_t> tests;
  for (const obs::Event& e : sink.events) {
    if (e.a != NodeId(source)) continue;
    // The source's own relay-time check of the relay's PoR is not part of
    // the audit.
    if (e.kind == obs::EventKind::PorVerified && e.b != NodeId(relay)) {
      verified.emplace_back(e.b, e.value);
    }
    if (e.kind == obs::EventKind::TestBySender && e.b == NodeId(relay)) tests.push_back(e.value);
  }
  EXPECT_EQ(verified, por_verdicts);
  EXPECT_EQ(tests, std::vector<std::int64_t>{0});
  EXPECT_EQ(w.network().obs().counters.storage_challenges->value(), 0u);
  ASSERT_EQ(w.collector().detections().size(), 1u);
  EXPECT_EQ(w.collector().detections()[0].culprit, NodeId(relay));
  EXPECT_EQ(w.collector().detections()[0].method, metrics::DetectionMethod::TestBySender);
  EXPECT_TRUE(w.collector().evictions().contains(NodeId(relay)));
}

}  // namespace g2g::proto::testutil
