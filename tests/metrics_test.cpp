#include "g2g/metrics/collector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "g2g/core/experiment.hpp"
#include "g2g/obs/context.hpp"

namespace g2g::metrics {
namespace {

TimePoint at(double s) { return TimePoint::from_seconds(s); }

TEST(Collector, MessageLifecycle) {
  Collector c;
  c.message_generated(MessageId(1), NodeId(0), NodeId(5), at(10));
  c.message_generated(MessageId(2), NodeId(1), NodeId(6), at(20));
  c.message_relayed(MessageId(1), NodeId(0), NodeId(2), at(30));
  c.message_relayed(MessageId(1), NodeId(2), NodeId(5), at(100));
  c.message_delivered(MessageId(1), at(100));

  EXPECT_EQ(c.generated_count(), 2u);
  EXPECT_EQ(c.delivered_count(), 1u);
  EXPECT_DOUBLE_EQ(c.success_rate(), 0.5);
  EXPECT_DOUBLE_EQ(c.avg_replicas(), 1.0);  // 2 relays over 2 messages
  EXPECT_EQ(c.total_relays(), 2u);
  const Samples delays = c.delays();
  ASSERT_EQ(delays.count(), 1u);
  EXPECT_DOUBLE_EQ(delays.mean(), 90.0);
}

TEST(Collector, DuplicateDeliveryKeepsFirstTime) {
  Collector c;
  c.message_generated(MessageId(1), NodeId(0), NodeId(1), at(0));
  c.message_delivered(MessageId(1), at(50));
  c.message_delivered(MessageId(1), at(80));
  EXPECT_DOUBLE_EQ(c.delays().mean(), 50.0);
}

TEST(Collector, RejectsUnknownAndDuplicateIds) {
  Collector c;
  EXPECT_THROW(c.message_relayed(MessageId(9), NodeId(0), NodeId(1), at(0)), std::logic_error);
  EXPECT_THROW(c.message_delivered(MessageId(9), at(0)), std::logic_error);
  c.message_generated(MessageId(1), NodeId(0), NodeId(1), at(0));
  EXPECT_THROW(c.message_generated(MessageId(1), NodeId(0), NodeId(1), at(0)),
               std::logic_error);
}

TEST(Collector, CopyOwnsItsDenseStorage) {
  // Results copy the Collector: the copy must answer from its own vectors
  // once the original is gone.
  auto original = std::make_unique<Collector>();
  original->message_generated(MessageId(1), NodeId(0), NodeId(4), at(10));
  original->message_generated(MessageId(3), NodeId(2), NodeId(1), at(30));
  original->message_relayed(MessageId(3), NodeId(2), NodeId(1), at(40));
  original->message_delivered(MessageId(3), at(40));
  original->costs(NodeId(2)).bytes_sent = 77;
  const Collector copy = *original;
  original.reset();

  std::vector<std::uint64_t> ids;
  for (const auto& rec : copy.messages()) ids.push_back(rec.id.value());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));  // id order; slots 0 and 2 unused
  EXPECT_EQ(copy.generated_count(), 2u);
  EXPECT_EQ(copy.message(MessageId(3)).replicas, 1u);
  EXPECT_EQ(copy.message(MessageId(3)).delivered, at(40));
  EXPECT_EQ(copy.find_message(MessageId(2)), nullptr);
  EXPECT_THROW((void)copy.message(MessageId(2)), std::out_of_range);
  EXPECT_EQ(copy.costs(NodeId(2)).bytes_sent, 77u);
}

TEST(Collector, UnknownOrOutOfRangeIdsThrow) {
  Collector c;
  c.message_generated(MessageId(2), NodeId(0), NodeId(1), at(0));
  // Id 1 has a slot (below the largest generated id) but no message.
  EXPECT_THROW(c.message_relayed(MessageId(1), NodeId(0), NodeId(1), at(5)), std::logic_error);
  EXPECT_THROW(c.message_delivered(MessageId(1), at(5)), std::logic_error);
  // Ids past the table, up to the invalid sentinel, have none either.
  for (const MessageId id : {MessageId(3), MessageId(1u << 20), MessageId::invalid()}) {
    EXPECT_THROW(c.message_relayed(id, NodeId(0), NodeId(1), at(5)), std::logic_error);
    EXPECT_THROW(c.message_delivered(id, at(5)), std::logic_error);
  }
  EXPECT_THROW(c.message_generated(MessageId::invalid(), NodeId(0), NodeId(1), at(0)),
               std::logic_error);
  EXPECT_EQ(c.message(MessageId(2)).replicas, 0u);
}

TEST(Collector, DetectionBookkeeping) {
  Collector c;
  c.detection(DetectionEvent{NodeId(3), NodeId(0), at(100), DetectionMethod::TestBySender,
                             Duration::minutes(5)});
  c.detection(DetectionEvent{NodeId(3), NodeId(1), at(200), DetectionMethod::ChainCheck,
                             Duration::minutes(7)});
  c.detection(DetectionEvent{NodeId(4), NodeId(0), at(150),
                             DetectionMethod::TestByDestination, Duration::minutes(2)});

  EXPECT_EQ(c.detections().size(), 3u);
  EXPECT_EQ(c.detected_nodes(), (std::vector<NodeId>{NodeId(3), NodeId(4)}));
  const auto first = c.first_detection(NodeId(3));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->at, at(100));
  EXPECT_FALSE(c.first_detection(NodeId(9)).has_value());
}

TEST(Collector, EvictionKeepsFirstTime) {
  Collector c;
  c.node_evicted(NodeId(2), at(10));
  c.node_evicted(NodeId(2), at(20));
  EXPECT_EQ(c.evictions().at(NodeId(2)), at(10));
}

TEST(Collector, CostsAreZeroInitializedAndMutable) {
  Collector c;
  EXPECT_EQ(c.costs(NodeId(7)).bytes_sent, 0u);
  c.costs(NodeId(7)).bytes_sent += 100;
  c.costs(NodeId(7)).signatures += 2;
  EXPECT_EQ(c.costs(NodeId(7)).bytes_sent, 100u);
  const Collector& cc = c;
  EXPECT_EQ(cc.costs(NodeId(7)).signatures, 2u);
  EXPECT_EQ(cc.costs(NodeId(99)).signatures, 0u);  // const lookup of unknown node
}

TEST(Collector, ConstCostsOfUnchargedNodeAreZero) {
  Collector c;
  c.costs(NodeId(5)).heavy_hmacs = 3;  // grows the table past nodes 0..4
  const Collector& cc = c;
  for (const NodeId n : {NodeId(0), NodeId(4), NodeId(6), NodeId(1000)}) {
    const NodeCosts& z = cc.costs(n);
    EXPECT_EQ(z.bytes_sent + z.bytes_received + z.signatures + z.verifications +
                  z.heavy_hmacs + z.sessions,
              0u);
    EXPECT_EQ(z.memory_byte_seconds, 0.0);
  }
  EXPECT_EQ(cc.costs(NodeId(5)).heavy_hmacs, 3u);
}

TEST(Collector, InstrumentedCallsFeedTheObsContext) {
  obs::ObsContext obs;
  obs::CountingSink sink;
  obs.tracer.add_sink(&sink);
  Collector c;
  c.attach_obs(&obs);

  c.message_generated(MessageId(1), NodeId(0), NodeId(5), at(10));
  c.message_relayed(MessageId(1), NodeId(0), NodeId(2), at(30));
  c.message_relayed(MessageId(1), NodeId(2), NodeId(5), at(100));
  c.message_delivered(MessageId(1), at(100));
  c.detection(DetectionEvent{NodeId(3), NodeId(0), at(100),
                             DetectionMethod::TestBySender, Duration::minutes(5)});

  EXPECT_EQ(obs.registry.value("msg.generated"), 1u);
  EXPECT_EQ(obs.registry.value("msg.relayed"), 2u);
  EXPECT_EQ(obs.registry.value("msg.delivered"), 1u);
  EXPECT_EQ(obs.registry.value("detect.detections"), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::MessageGenerated), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::MessageRelayed), 2u);
  EXPECT_EQ(sink.count(obs::EventKind::MessageDelivered), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::Detection), 1u);
  const obs::Histogram* delay = obs.registry.find_histogram("msg.delivery_delay_s");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count(), 1u);
  EXPECT_DOUBLE_EQ(delay->sum(), 90.0);

  // Detaching stops instrumentation; the collector keeps working.
  c.attach_obs(nullptr);
  c.message_generated(MessageId(2), NodeId(1), NodeId(6), at(200));
  EXPECT_EQ(c.generated_count(), 2u);
  EXPECT_EQ(obs.registry.value("msg.generated"), 1u);
}

// The registry and the collector are updated by independent code paths (the
// protocol layer vs. the network's delivery hooks); a full seeded run proves
// they agree on the totals.
TEST(Collector, AgreesWithCounterRegistryOnSeededG2GRun) {
  core::ExperimentConfig cfg;
  cfg.protocol = core::Protocol::G2GEpidemic;
  cfg.scenario = core::infocom05_scenario();
  cfg.scenario.trace_config.nodes = 16;
  cfg.scenario.trace_config.duration = Duration::days(2);
  cfg.scenario.window_start = TimePoint::from_seconds(8.0 * 3600.0);
  cfg.sim_window = Duration::hours(2);
  cfg.traffic_window = Duration::hours(1);
  cfg.mean_interarrival = Duration::seconds(30.0);
  cfg.deviation = proto::Behavior::Dropper;
  cfg.deviant_count = 4;
  cfg.seed = 11;
  const core::ExperimentResult r = core::run_experiment(cfg);

  EXPECT_GT(r.collector.total_relays(), 0u);
  EXPECT_GT(r.collector.detections().size(), 0u);
  EXPECT_EQ(r.counters.value("msg.relayed"), r.collector.total_relays());
  EXPECT_EQ(r.counters.value("msg.generated"), r.collector.generated_count());
  EXPECT_EQ(r.counters.value("msg.delivered"), r.collector.delivered_count());
  EXPECT_EQ(r.counters.value("detect.detections"), r.collector.detections().size());
  // Every detection issues one PoM and one (possibly repeat) eviction; the
  // collector's eviction map dedups per node.
  EXPECT_EQ(r.counters.value("pom.evictions"), r.collector.detections().size());
  EXPECT_EQ(r.collector.evictions().size(), r.collector.detected_nodes().size());
}

TEST(NodeCosts, EnergyModelWeighting) {
  NodeCosts costs;
  costs.bytes_sent = 1000;
  costs.bytes_received = 1000;
  costs.signatures = 10;
  costs.verifications = 10;
  costs.heavy_hmacs = 1;
  // 2000 * 0.001 + 20 * 1 + 1 * 2000 = 2 + 20 + 2000
  EXPECT_DOUBLE_EQ(costs.energy(), 2022.0);
  // The heavy HMAC must dominate: that is the incentive design.
  NodeCosts no_hmac = costs;
  no_hmac.heavy_hmacs = 0;
  EXPECT_GT(costs.energy(), 10.0 * no_hmac.energy());
}

}  // namespace
}  // namespace g2g::metrics
