#include "g2g/proto/g2g_delegation.hpp"

#include <gtest/gtest.h>

#include "g2g/obs/context.hpp"
#include "proto_test_util.hpp"

namespace g2g::proto {
namespace {

using testutil::Contact;
using testutil::World;
using testutil::make_trace;

using G2GDWorld = World<G2GDelegationNode>;

constexpr double kD1 = 1800.0;

// Give node `n` `count` encounters with `dst` before t=100 so its frequency
// quality is established (and lands in completed timeframes).
std::vector<Contact> warm(std::uint32_t n, std::uint32_t dst, int count, double base = 10) {
  std::vector<Contact> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({n, dst, base + i * 20.0, base + i * 20.0 + 2.0});
  }
  return out;
}

trace::ContactTrace build(std::size_t nodes, std::vector<std::vector<Contact>> groups) {
  trace::ContactTrace t;
  for (const auto& g : groups) {
    for (const auto& c : g) {
      t.add(NodeId(c.a), NodeId(c.b), TimePoint::from_seconds(c.start_s),
            TimePoint::from_seconds(c.end_s));
    }
  }
  if (nodes >= 2) {
    t.add(NodeId(static_cast<std::uint32_t>(nodes - 2)),
          NodeId(static_cast<std::uint32_t>(nodes - 1)), TimePoint::from_seconds(9.0e8),
          TimePoint::from_seconds(9.0e8 + 1.0));
  }
  t.finalize();
  return t;
}

NetworkConfig fast_frames() {
  auto cfg = G2GDWorld::default_config();
  cfg.node.quality_frame = Duration::minutes(5);  // snapshots complete quickly
  return cfg;
}

TEST(G2GDelegation, ForwardsOnlyToBetterQuality) {
  // Node 1: 3 encounters with dst 4; node 2: none. Only node 1 gets a replica.
  G2GDWorld w(build(6, {warm(1, 4, 3), {{0, 2, 2000, 2010}, {0, 1, 2100, 2110}}}),
              fast_frames());
  const MessageId id = w.send(0, 4, 1900);
  w.run();
  EXPECT_EQ(w.replicas(id), 1u);
  EXPECT_TRUE(w.node(1).stores_message(MessageHash{}) || w.node(1).buffered_bytes() > 0);
  EXPECT_EQ(w.node(2).buffered_bytes(), 0);
}

TEST(G2GDelegation, DirectDeliveryUsesDecoyAndAlwaysForwards) {
  // Destination has zero quality toward anything; delivery must still happen.
  G2GDWorld w(build(4, {{{0, 1, 2000, 2010}}}), fast_frames());
  const MessageId id = w.send(0, 1, 1900);
  w.run();
  EXPECT_TRUE(w.delivered(id));
}

TEST(G2GDelegation, HonestChainPassesSenderTest) {
  // Source 0 -> relay 1 (quality 1); relay 1 -> 2 (quality 2) and -> 3
  // (quality 3); source re-meets 1 after Delta1 and verifies the chain.
  G2GDWorld w(build(6, {warm(1, 5, 1, 10), warm(2, 5, 2, 100), warm(3, 5, 3, 200),
                        {{0, 1, 2000, 2010},
                         {1, 2, 2200, 2210},
                         {1, 3, 2400, 2410},
                         {0, 1, 2000 + kD1 + 60, 2000 + kD1 + 70}}}),
              fast_frames());
  const MessageId id = w.send(0, 5, 1900);
  w.run();
  EXPECT_EQ(w.replicas(id), 3u);
  EXPECT_TRUE(w.collector().detections().empty());
}

class G2GDelegationForgedPor : public ::testing::TestWithParam<testutil::ForgedPorCase> {};

TEST_P(G2GDelegationForgedPor, ForgedPorFailsThePorHalfAndConvicts) {
  // The honest chain above, with relay 1's PoR from node 2 forged after it
  // fulfilled its fan-out. The chain check leaves the malformed PoR to the
  // PoR half, which verifies and traces both PoRs and fails the test.
  obs::ObsContext obs;
  testutil::EventRecordingSink sink;
  obs.tracer.add_sink(&sink);
  NetworkConfig cfg = fast_frames();
  cfg.obs = &obs;
  cfg.suite = testutil::forged_por_suite(GetParam());
  G2GDWorld w(build(6, {warm(1, 5, 1, 10), warm(2, 5, 2, 100), warm(3, 5, 3, 200),
                        {{0, 1, 2000, 2010},
                         {1, 2, 2200, 2210},
                         {1, 3, 2400, 2410},
                         {0, 1, 2000 + kD1 + 60, 2000 + kD1 + 70}}}),
              cfg);
  w.send(0, 5, 1900);
  w.network().simulator().at(TimePoint::from_seconds(3000.0), [&w] {
    testutil::forge_first_por(w.node(1), GetParam().relay_keeps_msg);
  });
  w.run();
  testutil::expect_forged_por_convicts(w, sink, 0, 1, {{NodeId(2), 0}, {NodeId(3), 1}});
}

INSTANTIATE_TEST_SUITE_P(Suites, G2GDelegationForgedPor,
                         ::testing::ValuesIn(testutil::forged_por_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(G2GDelegation, CheaterCaughtByChainCheck) {
  // Node 1 is a cheater: it zeroes f_m when relaying, so node 2 — whose
  // quality (1) is below the honest threshold (2) but above zero — accepts.
  // The source's chain check exposes the mismatch f1_m != f_AD.
  G2GDWorld w(build(6, {warm(1, 5, 2, 10), warm(2, 5, 1, 100),
                        {{0, 1, 2000, 2010},
                         {1, 2, 2200, 2210},
                         {0, 1, 2000 + kD1 + 60, 2000 + kD1 + 70}}}),
              fast_frames(), {{}, {Behavior::Cheater, false}, {}, {}, {}, {}});
  w.send(0, 5, 1900);
  w.run();
  ASSERT_GE(w.collector().detections().size(), 1u);
  const auto& d = w.collector().detections()[0];
  EXPECT_EQ(d.culprit, NodeId(1));
  EXPECT_EQ(d.method, metrics::DetectionMethod::ChainCheck);
  EXPECT_TRUE(w.collector().evictions().contains(NodeId(1)));
}

TEST(G2GDelegation, CheaterWithNoRelaysEscapesViaStorageProof) {
  // A cheater that never found takers responds STORED like an honest node.
  G2GDWorld w(build(5, {warm(1, 4, 2, 10),
                        {{0, 1, 2000, 2010}, {0, 1, 2000 + kD1 + 60, 2000 + kD1 + 70}}}),
              fast_frames(), {{}, {Behavior::Cheater, false}, {}, {}, {}});
  w.send(0, 4, 1900);
  w.run();
  EXPECT_TRUE(w.collector().detections().empty());
}

class G2GDelegationTamper : public ::testing::TestWithParam<testutil::StoredCopyEdit> {};

TEST_P(G2GDelegationTamper, TamperedStoredCopyFailsStorageProof) {
  // An honest relay with no takers answers with a storage proof; its stored
  // copy is edited before the re-meet, so it no longer equals the source's
  // and the two chains it runs disagree.
  G2GDWorld w(build(5, {warm(1, 4, 2, 10),
                        {{0, 1, 2000, 2010}, {0, 1, 2000 + kD1 + 60, 2000 + kD1 + 70}}}),
              fast_frames());
  w.send(0, 4, 1900);
  w.network().simulator().at(TimePoint::from_seconds(3000.0), [&w] {
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

INSTANTIATE_TEST_SUITE_P(StoredCopyEdits, G2GDelegationTamper,
                         ::testing::ValuesIn(testutil::stored_copy_edits()),
                         [](const auto& info) { return info.param.name; });

TEST(G2GDelegation, DropperCaughtBySenderTest) {
  G2GDWorld w(build(5, {warm(1, 4, 2, 10),
                        {{0, 1, 2000, 2010}, {0, 1, 2000 + kD1 + 60, 2000 + kD1 + 70}}}),
              fast_frames(), {{}, {Behavior::Dropper, false}, {}, {}, {}});
  w.send(0, 4, 1900);
  w.run();
  ASSERT_EQ(w.collector().detections().size(), 1u);
  EXPECT_EQ(w.collector().detections()[0].method, metrics::DetectionMethod::TestBySender);
}

TEST(G2GDelegation, LiarCaughtByDestination) {
  // Node 1 lies (declares 0) when the source asks; the source archives the
  // signed declaration and embeds it when relaying to the good relay 2; the
  // destination 4 — which met node 1 — catches the contradiction.
  G2GDWorld w(build(6, {warm(1, 4, 3, 10),  // node 1 genuinely knows dst 4
                        warm(2, 4, 2, 300),
                        {{0, 1, 2000, 2010},     // liar declares 0: failed candidate
                         {0, 2, 2100, 2110},     // good relay, declaration embedded
                         {2, 4, 2300, 2310}}}),  // delivery + test by destination
              fast_frames(), {{}, {Behavior::Liar, false}, {}, {}, {}, {}});
  const MessageId id = w.send(0, 4, 1900);
  w.run();
  EXPECT_TRUE(w.delivered(id));
  ASSERT_EQ(w.collector().detections().size(), 1u);
  const auto& d = w.collector().detections()[0];
  EXPECT_EQ(d.culprit, NodeId(1));
  EXPECT_EQ(d.detector, NodeId(4));
  EXPECT_EQ(d.method, metrics::DetectionMethod::TestByDestination);
}

TEST(G2GDelegation, HonestDeclarationsNeverTriggerDestinationTest) {
  // Same topology, but node 1 is honest (and genuinely worse than the
  // message quality, so it is archived as a failed candidate): no detection.
  G2GDWorld w(build(6, {warm(0, 4, 4, 10),  // source itself has quality 4
                        warm(1, 4, 1, 200),
                        warm(2, 4, 5, 300),
                        {{0, 1, 2000, 2010}, {0, 2, 2100, 2110}, {2, 4, 2300, 2310}}}),
              fast_frames());
  const MessageId id = w.send(0, 4, 1900);
  w.run();
  EXPECT_TRUE(w.delivered(id));
  EXPECT_TRUE(w.collector().detections().empty());
}

TEST(G2GDelegation, LiarUndetectableWhenDestinationNeverMetIt) {
  // The liar never met the destination, so "0" matches the destination's own
  // records: no PoM (and rightly so — the lie was vacuous).
  G2GDWorld w(build(6, {warm(2, 4, 2, 300),
                        {{0, 1, 2000, 2010}, {0, 2, 2100, 2110}, {2, 4, 2300, 2310}}}),
              fast_frames(), {{}, {Behavior::Liar, false}, {}, {}, {}, {}});
  w.send(0, 4, 1900);
  w.run();
  EXPECT_TRUE(w.collector().detections().empty());
}

TEST(G2GDelegation, StaleFrameDeclarationIsUnverifiable) {
  // Declaration made early; delivery happens > 2 timeframes later: the
  // destination no longer retains the snapshot and cannot verify the lie.
  auto cfg = fast_frames();  // 5-minute frames: retention = 10 minutes
  G2GDWorld w(build(6, {warm(1, 4, 3, 10), warm(2, 4, 2, 300),
                        {{0, 1, 2000, 2010},
                         {0, 2, 2100, 2110},
                         {2, 4, 2100 + 1500, 2100 + 1510}}}),  // 25 min later
              cfg, {{}, {Behavior::Liar, false}, {}, {}, {}, {}});
  w.send(0, 4, 1900);
  w.run();
  EXPECT_TRUE(w.collector().detections().empty());
}

TEST(G2GDelegation, SourceEmbedsOnlyLastTwoFailedCandidates) {
  // Three liars fail in sequence; only the last two declarations are
  // embedded, so only those two can be caught by the destination.
  G2GDWorld w(build(8, {warm(1, 6, 2, 10), warm(2, 6, 2, 100), warm(3, 6, 2, 200),
                        warm(5, 6, 3, 300),
                        {{0, 1, 2000, 2010},
                         {0, 2, 2100, 2110},
                         {0, 3, 2200, 2210},
                         {0, 5, 2300, 2310},     // good relay
                         {5, 6, 2500, 2510}}}),  // delivery
              fast_frames(),
              {{},
               {Behavior::Liar, false},
               {Behavior::Liar, false},
               {Behavior::Liar, false},
               {},
               {},
               {},
               {}});
  w.send(0, 6, 1900);
  w.run();
  std::set<std::uint32_t> culprits;
  for (const auto& d : w.collector().detections()) culprits.insert(d.culprit.value());
  EXPECT_EQ(culprits, (std::set<std::uint32_t>{2, 3}));
}

TEST(G2GDelegation, FanoutCapAppliesToRelays) {
  // Relay 1 must stop after two onward relays even with more candidates.
  G2GDWorld w(build(8, {warm(1, 6, 1, 10), warm(2, 6, 2, 100), warm(3, 6, 3, 200),
                        warm(4, 6, 4, 300), warm(5, 6, 5, 400),
                        {{0, 1, 2000, 2010},
                         {1, 2, 2100, 2110},
                         {1, 3, 2200, 2210},
                         {1, 4, 2300, 2310},
                         {1, 5, 2400, 2410}}}),
              fast_frames());
  const MessageId id = w.send(0, 6, 1900);
  w.run();
  // 1 replica to node 1, then exactly 2 onward (nodes 2 and 3).
  EXPECT_EQ(w.replicas(id), 3u);
}

TEST(G2GDelegation, QualityRelabelOnForward) {
  // After relaying to node 2 (quality 2), the relay's own copy carries f_m=2,
  // so the equal-quality node 3 is rejected.
  G2GDWorld w(build(7, {warm(1, 6, 1, 10), warm(2, 6, 2, 100), warm(3, 6, 2, 200),
                        warm(4, 6, 3, 300),
                        {{0, 1, 2000, 2010},
                         {1, 2, 2100, 2110},
                         {1, 3, 2200, 2210},    // equal quality: rejected
                         {1, 4, 2300, 2310}}}),  // strictly better: accepted
              fast_frames());
  const MessageId id = w.send(0, 6, 1900);
  w.run();
  EXPECT_EQ(w.replicas(id), 3u);  // nodes 1, 2, 4
  EXPECT_EQ(w.node(3).buffered_bytes(), 0);
}

TEST(G2GDelegation, LiarWithOutsidersLiesOnlyToOutsiders) {
  auto cfg = fast_frames();
  cfg.communities =
      community::CommunityMap(6, {{NodeId(0), NodeId(1)}, {NodeId(2)}, {NodeId(3)},
                                  {NodeId(4)}, {NodeId(5)}});
  // Insider source 0 asks liar 1: honest answer (quality 3) -> replica.
  G2GDWorld w(build(6, {warm(1, 4, 3, 10), {{0, 1, 2000, 2010}}}), cfg,
              {{}, {Behavior::Liar, true}, {}, {}, {}, {}});
  const MessageId id = w.send(0, 4, 1900);
  w.run();
  EXPECT_EQ(w.replicas(id), 1u);
}

}  // namespace
}  // namespace g2g::proto
