#include "g2g/proto/g2g_epidemic.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "proto_test_util.hpp"

namespace g2g::proto {
namespace {

using testutil::Contact;
using testutil::World;
using testutil::make_trace;

using G2GWorld = World<G2GEpidemicNode>;

// Default timing in the World fixture: Delta1 = 30 min, Delta2 = 60 min.
constexpr double kD1 = 1800.0;

TEST(G2GEpidemic, DirectDeliveryThroughRelayPhase) {
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  const MessageId id = w.send(0, 1, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
  EXPECT_EQ(w.replicas(id), 1u);
}

TEST(G2GEpidemic, MultiHopDelivery) {
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {1, 2, 500, 510}}));
  const MessageId id = w.send(0, 2, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
  EXPECT_EQ(w.replicas(id), 2u);
}

TEST(G2GEpidemic, RelayStopsAtFanoutTwo) {
  // Node 1 receives at 100, then meets 2, 3, 4: only the first two get it.
  G2GWorld w(make_trace(6, {{0, 1, 100, 110},
                            {1, 2, 200, 210},
                            {1, 3, 300, 310},
                            {1, 4, 400, 410}}));
  const MessageId id = w.send(0, 5, 50);  // destination never met
  w.run();
  // Source relayed once (to 1); node 1 relayed to exactly 2 of {2,3,4}.
  EXPECT_EQ(w.replicas(id), 3u);
}

TEST(G2GEpidemic, SourceFanoutIsUnbounded) {
  // The source itself spreads to everyone it meets within Delta1.
  G2GWorld w(make_trace(6, {{0, 1, 100, 110},
                            {0, 2, 200, 210},
                            {0, 3, 300, 310},
                            {0, 4, 400, 410}}));
  const MessageId id = w.send(0, 5, 50);
  w.run();
  EXPECT_EQ(w.replicas(id), 4u);
}

TEST(G2GEpidemic, HolderDiscardsPayloadAfterTwoPors) {
  G2GWorld w(make_trace(6, {{0, 1, 100, 110}, {1, 2, 200, 210}, {1, 3, 300, 310}}));
  w.send(0, 5, 50);
  w.run();
  // After two relays node 1 holds PoRs but no payload.
  EXPECT_EQ(w.node(1).buffered_bytes(), 0);
}

TEST(G2GEpidemic, GlobalTtlStopsSpread) {
  // Node 1 receives at 100; message expires at 50 + 1800 = 1850; the 2000s
  // contact must not relay.
  G2GWorld w(make_trace(5, {{0, 1, 100, 110}, {1, 2, 2000, 2010}}));
  const MessageId id = w.send(0, 2, 50);
  w.run();
  EXPECT_FALSE(w.delivered(id));
  EXPECT_EQ(w.replicas(id), 1u);
}

TEST(G2GEpidemic, PerHolderTtlAblationKeepsSpreading) {
  // Message created at 50 expires globally at 1850; the relay received it at
  // 100, so under per-holder semantics its window lasts until 1900.
  auto cfg = G2GWorld::default_config();
  cfg.node.global_ttl = false;
  G2GWorld w(make_trace(5, {{0, 1, 100, 110}, {1, 2, 1860, 1870}}), cfg);
  const MessageId id = w.send(0, 2, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));

  // The same contact schedule under global TTL does NOT deliver.
  G2GWorld g(make_trace(5, {{0, 1, 100, 110}, {1, 2, 1860, 1870}}));
  const MessageId gid = g.send(0, 2, 50);
  g.run();
  EXPECT_FALSE(g.delivered(gid));
}

TEST(G2GEpidemic, DeclinesAlreadyHandledMessages) {
  // 0 relays to 1; later 1 meets 0 again — 0 has handled its own message, so
  // no duplicate relay happens (and no extra replica is counted).
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 300, 310}}));
  const MessageId id = w.send(0, 3, 50);
  w.run();
  EXPECT_EQ(w.replicas(id), 1u);
}

TEST(G2GEpidemic, HonestRelayWithTwoPorsPassesTest) {
  G2GWorld w(make_trace(6, {{0, 1, 100, 110},
                            {1, 2, 200, 210},
                            {1, 3, 300, 310},
                            {0, 1, 100 + kD1 + 60, 100 + kD1 + 70}}));
  w.send(0, 5, 50);
  w.run();
  EXPECT_TRUE(w.collector().detections().empty());
  EXPECT_TRUE(w.collector().evictions().empty());
}

TEST(G2GEpidemic, HonestRelayWithoutRelaysPassesViaStorageProof) {
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + kD1 + 60, 100 + kD1 + 70}}));
  w.send(0, 3, 50);
  w.run();
  EXPECT_TRUE(w.collector().detections().empty());
  // Both sides are charged the heavy HMAC (prover and verifier)...
  EXPECT_EQ(w.collector().costs(NodeId(1)).heavy_hmacs, 1u);
  EXPECT_EQ(w.collector().costs(NodeId(0)).heavy_hmacs, 1u);
  // ...but a stored copy byte-equal to the source's agrees without a chain.
  EXPECT_EQ(w.network().obs().counters.heavy_hmac_computed->value(), 0u);
}

TEST(G2GEpidemic, PurgeKeepsSourceHoldWhileItsTestIsPending) {
  // Generated at t=0 and relayed at t=25 min: the source's hold expires at
  // received + Delta2 = 60 min, but its test of node 1 stays open until
  // relayed_at + Delta2 = 85 min. The re-meet at 66 min is past the first
  // and inside the second, so the purge that opens the contact must keep
  // the source's copy for the storage proof.
  constexpr double kRelayed = 1500.0;
  constexpr double kReMeet = 3960.0;
  G2GWorld w(make_trace(4, {{0, 1, kRelayed, kRelayed + 10}, {0, 1, kReMeet, kReMeet + 10}}));
  w.network().obs().tracer.enable_ring();
  w.send(0, 3, 0);
  bool stored_before = false;
  w.network().simulator().at(TimePoint::from_seconds(kReMeet - 1), [&] {
    const auto& holds = w.node(0).handshake().holds();
    stored_before = holds.size() == 1 && holds.begin()->second.has_msg;
  });
  w.run();
  EXPECT_TRUE(stored_before);
  std::vector<std::int64_t> verdicts;
  for (const obs::Event& e : w.network().obs().tracer.ring()) {
    if (e.kind == obs::EventKind::TestBySender) verdicts.push_back(e.value);
  }
  // 2: storage proof ok (3 would be "inconclusive": the source lost m).
  EXPECT_EQ(verdicts, std::vector<std::int64_t>{2});
  EXPECT_TRUE(w.collector().detections().empty());
}

class G2GEpidemicTamper : public ::testing::TestWithParam<testutil::StoredCopyEdit> {};

TEST_P(G2GEpidemicTamper, TamperedStoredCopyFailsStorageProof) {
  // Node 1's stored copy is edited between the relay contact and the
  // re-meet: it no longer equals the source's, so both chains run, the
  // digests disagree and the source convicts.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + kD1 + 60, 100 + kD1 + 70}}));
  w.send(0, 3, 50);
  w.network().simulator().at(TimePoint::from_seconds(1000.0), [&w] {
    auto& holds = w.node(1).handshake().holds();
    ASSERT_EQ(holds.size(), 1u);
    ASSERT_TRUE(holds.begin()->second.has_msg);
    GetParam().apply(holds.begin()->second.msg.box.ciphertext);
  });
  w.run();
  ASSERT_EQ(w.collector().detections().size(), 1u);
  EXPECT_EQ(w.collector().detections()[0].culprit, NodeId(1));
  EXPECT_EQ(w.collector().detections()[0].method, metrics::DetectionMethod::TestBySender);
  EXPECT_TRUE(w.collector().evictions().contains(NodeId(1)));
  EXPECT_EQ(w.collector().costs(NodeId(1)).heavy_hmacs, 1u);
  EXPECT_EQ(w.collector().costs(NodeId(0)).heavy_hmacs, 1u);
  EXPECT_EQ(w.network().obs().counters.heavy_hmac_computed->value(), 2u);
}

INSTANTIATE_TEST_SUITE_P(StoredCopyEdits, G2GEpidemicTamper,
                         ::testing::ValuesIn(testutil::stored_copy_edits()),
                         [](const auto& info) { return info.param.name; });

TEST(G2GEpidemic, DropperCaughtOnReMeet) {
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + kD1 + 60, 100 + kD1 + 70}}),
             {{}, {Behavior::Dropper, false}, {}, {}});
  w.send(0, 3, 50);
  w.run();
  ASSERT_EQ(w.collector().detections().size(), 1u);
  const auto& d = w.collector().detections()[0];
  EXPECT_EQ(d.culprit, NodeId(1));
  EXPECT_EQ(d.detector, NodeId(0));
  EXPECT_EQ(d.method, metrics::DetectionMethod::TestBySender);
  // Detection latency: the re-meet happened 60s after Delta1 expired.
  EXPECT_NEAR(d.after_delta1.to_seconds(), 60.0, 1.0);
  EXPECT_TRUE(w.collector().evictions().contains(NodeId(1)));
}

TEST(G2GEpidemic, NoTestBeforeDelta1) {
  // Re-meet at Delta1 - 60: too early to test; dropper stays undetected.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + kD1 - 60, 100 + kD1 - 50}}),
             {{}, {Behavior::Dropper, false}, {}, {}});
  w.send(0, 3, 50);
  w.run();
  EXPECT_TRUE(w.collector().detections().empty());
}

TEST(G2GEpidemic, NoTestAfterDelta2) {
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + 2 * kD1 + 60, 100 + 2 * kD1 + 70}}),
             {{}, {Behavior::Dropper, false}, {}, {}});
  w.send(0, 3, 50);
  w.run();
  EXPECT_TRUE(w.collector().detections().empty());
}

TEST(G2GEpidemic, IntermediateRelaysDoNotTest) {
  // Node 1 relays to node 2 (a dropper); node 1 is NOT the source, so when
  // they re-meet after Delta1 no test happens — only the source tests.
  G2GWorld w(make_trace(5, {{0, 1, 100, 110},
                            {1, 2, 200, 210},
                            {1, 2, 200 + kD1 + 60, 200 + kD1 + 70}}),
             {{}, {}, {Behavior::Dropper, false}, {}, {}});
  w.send(0, 4, 50);
  w.run();
  EXPECT_TRUE(w.collector().detections().empty());
}

TEST(G2GEpidemic, PomGossipEvictsAcrossNetwork) {
  // 0 detects dropper 1; later 0 meets 2 (gossip); then 2 refuses sessions
  // with 1, so the message 2 -> 3 never transits through 1.
  G2GWorld w(make_trace(5, {{0, 1, 100, 110},
                            {0, 1, 100 + kD1 + 60, 100 + kD1 + 70},  // detection
                            {0, 2, 100 + kD1 + 200, 100 + kD1 + 210},  // gossip
                            {1, 2, 100 + kD1 + 300, 100 + kD1 + 310}}),
             {{}, {Behavior::Dropper, false}, {}, {}, {}});
  w.send(0, 3, 50);
  const MessageId late = w.send(2, 3, kD1 + 350);
  w.run();
  EXPECT_EQ(w.collector().detections().size(), 1u);
  EXPECT_TRUE(w.node(2).blacklisted(NodeId(1)));
  // The 1-2 contact was refused: 1 never handled the late message.
  (void)late;
  EXPECT_FALSE(w.node(1).has_handled(MessageHash{}));
  EXPECT_EQ(w.collector().costs(NodeId(1)).sessions, 2u);  // only the first two
}

TEST(G2GEpidemic, DestinationStoresAndPassesStorageTest) {
  // Source relays directly to the destination, then tests it after Delta1:
  // the destination (indistinguishable from a relay) answers STORED.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + kD1 + 60, 100 + kD1 + 70}}));
  const MessageId id = w.send(0, 1, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
  EXPECT_TRUE(w.collector().detections().empty());
  EXPECT_GE(w.collector().costs(NodeId(1)).heavy_hmacs, 1u);
}

TEST(G2GEpidemic, DropperWithOutsidersSparesInsiders) {
  auto cfg = G2GWorld::default_config();
  cfg.communities = community::CommunityMap(4, {{NodeId(0), NodeId(1)}, {NodeId(2), NodeId(3)}});
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + kD1 + 60, 100 + kD1 + 70}}),
             cfg, {{}, {Behavior::Dropper, true}, {}, {}});
  w.send(0, 3, 50);
  w.run();
  // Giver 0 is an insider: node 1 behaved faithfully, so the test passes.
  EXPECT_TRUE(w.collector().detections().empty());
}

TEST(G2GEpidemic, DropperWithOutsidersCaughtByOutsider) {
  auto cfg = G2GWorld::default_config();
  cfg.communities = community::CommunityMap(4, {{NodeId(0)}, {NodeId(1)}, {NodeId(2), NodeId(3)}});
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + kD1 + 60, 100 + kD1 + 70}}),
             cfg, {{}, {Behavior::Dropper, true}, {}, {}});
  w.send(0, 3, 50);
  w.run();
  EXPECT_EQ(w.collector().detections().size(), 1u);
}

TEST(G2GEpidemic, SignatureAccountingPerRelayPhase) {
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  w.send(0, 3, 50);
  w.run();
  // Giver signs RELAY_RQST, RELAY, KEY (3); taker signs RELAY_OK + PoR (2).
  EXPECT_GE(w.collector().costs(NodeId(0)).signatures, 3u);
  EXPECT_GE(w.collector().costs(NodeId(1)).signatures, 2u);
  EXPECT_GE(w.collector().costs(NodeId(1)).verifications, 3u);
}

}  // namespace
}  // namespace g2g::proto
