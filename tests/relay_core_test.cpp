// The relay core's accusation layer: PomLedger, the session's PoM gossip
// loop (relay::gossip_poms) and the verify-then-blacklist step it drives
// (ProtocolNode::learn_pom); and the session's endpoint check
// (Session::peer_of), which keeps every charge on the session's two nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "g2g/obs/context.hpp"
#include "g2g/obs/tracer.hpp"
#include "g2g/proto/g2g_epidemic.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/relay/pom.hpp"
#include "proto_test_util.hpp"

namespace g2g::proto {
namespace {

using testutil::make_trace;
using G2GWorld = testutil::World<G2GEpidemicNode>;

constexpr double kD1 = 30.0 * 60.0;  // matches World::default_config delta1

/// A RelayFailure PoM that passes the structural checks (signature junk).
ProofOfMisbehavior relay_failure_pom(std::uint32_t culprit, std::uint32_t accuser) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::RelayFailure;
  pom.culprit = NodeId(culprit);
  pom.accuser = NodeId(accuser);
  ProofOfRelay por;
  por.h.fill(0x5A);
  por.giver = NodeId(accuser);
  por.taker = NodeId(culprit);
  por.taker_signature = Bytes(32, 0x42);  // junk: fails verification
  pom.evidence_accepted = por;
  return pom;
}

/// The same accusation with the PoR validly signed by the culprit.
ProofOfMisbehavior signed_relay_failure_pom(G2GWorld& w, std::uint32_t culprit,
                                            std::uint32_t accuser) {
  ProofOfMisbehavior pom = relay_failure_pom(culprit, accuser);
  ProofOfRelay& por = *pom.evidence_accepted;
  por.taker_signature = w.node(culprit).identity().sign(por.signed_payload());
  return pom;
}

/// Collects every span record of the run, in order.
struct SpanRecordingSink final : obs::EventSink {
  void on_event(const obs::Event&) override {}
  void on_span(const obs::SpanRecord& s) override { spans.push_back(s); }
  std::vector<obs::SpanRecord> spans;
};

TEST(PomGossip, DropperRunGossipsAndEvictsAcrossTheNetwork) {
  // Node 1 drops; the source detects it on re-meet and then gossips the PoM
  // to node 2, which learns it and evicts the dropper. The one session that
  // carries a PoM gets the only pom_gossip span, closed with the count.
  obs::ObsContext obs;
  SpanRecordingSink sink;
  obs.tracer.add_sink(&sink);
  NetworkConfig cfg = G2GWorld::default_config();
  cfg.obs = &obs;
  G2GWorld w(make_trace(4, {{0, 1, 100, 110},
                            {0, 1, 100 + kD1 + 60, 100 + kD1 + 70},
                            {0, 2, 100 + kD1 + 200, 100 + kD1 + 210}}),
             cfg, {{}, {Behavior::Dropper, false}, {}, {}});
  w.send(0, 3, 50);
  w.run();

  ASSERT_EQ(w.collector().detections().size(), 1u);
  EXPECT_EQ(obs.counters.poms_gossiped->value(), 1u);
  EXPECT_EQ(obs.counters.poms_learned->value(), 1u);
  EXPECT_TRUE(w.node(2).blacklisted(NodeId(1)));

  std::vector<obs::SpanRecord> gossip;
  for (const obs::SpanRecord& s : sink.spans) {
    if (s.name != nullptr && std::strcmp(s.name, "pom_gossip") == 0) gossip.push_back(s);
  }
  ASSERT_EQ(gossip.size(), 1u);
  EXPECT_EQ(gossip[0].a, NodeId(0));
  EXPECT_EQ(gossip[0].b, NodeId(2));
  const auto close = std::find_if(sink.spans.begin(), sink.spans.end(), [&](const auto& s) {
    return s.close && s.id == gossip[0].id;
  });
  ASSERT_NE(close, sink.spans.end());
  EXPECT_EQ(close->value, 1);
}

TEST(PomGossip, TwoPomsAboutOneCulpritTransferOnce) {
  // The first PoM is learned, so the receiver blacklists the third-party
  // culprit and the second PoM about it never crosses.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  Network<G2GEpidemicNode>& net = w.network();
  w.node(0).pom_ledger().record(signed_relay_failure_pom(w, /*culprit=*/2, /*accuser=*/0));
  w.node(0).pom_ledger().record(signed_relay_failure_pom(w, /*culprit=*/2, /*accuser=*/0));

  Session s(net, w.node(0), w.node(1));
  EXPECT_EQ(relay::gossip_poms(s, w.node(0), w.node(1)), 1u);
  EXPECT_EQ(net.obs().counters.poms_gossiped->value(), 1u);
  EXPECT_EQ(net.obs().counters.poms_learned->value(), 1u);
  EXPECT_TRUE(w.node(1).blacklisted(NodeId(2)));
  EXPECT_EQ(w.node(1).known_poms().size(), 1u);
}

TEST(PomGossip, JunkEvidenceIsChargedAndAValidPomAboutTheSameCulpritStillCrosses) {
  // A PoM whose evidence fails verification is carried and paid for, but the
  // receiver does not blacklist its culprit, so a validly signed PoM about
  // the same culprit later in the ledger still crosses and is learned.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  Network<G2GEpidemicNode>& net = w.network();
  const ProofOfMisbehavior junk = relay_failure_pom(/*culprit=*/2, /*accuser=*/0);
  const ProofOfMisbehavior valid = signed_relay_failure_pom(w, /*culprit=*/2, /*accuser=*/0);
  w.node(0).pom_ledger().record(junk);
  w.node(0).pom_ledger().record(valid);

  obs::ProtocolCounters& c = net.obs().counters;
  const auto pom_kind = static_cast<std::size_t>(obs::WireKind::Pom);
  Session s(net, w.node(0), w.node(1));
  EXPECT_EQ(relay::gossip_poms(s, w.node(0), w.node(1)), 2u);
  EXPECT_EQ(c.poms_gossiped->value(), 2u);
  EXPECT_EQ(c.wire_msgs[pom_kind]->value(), 2u);
  EXPECT_EQ(c.wire_bytes[pom_kind]->value(), junk.wire_size() + valid.wire_size());
  EXPECT_EQ(c.poms_learned->value(), 1u);
  EXPECT_TRUE(w.node(1).blacklisted(NodeId(2)));
  ASSERT_EQ(w.node(1).known_poms().size(), 1u);
  EXPECT_EQ(w.node(1).known_poms()[0].encode(), valid.encode());
}

TEST(PomGossip, PomNamingTheReceiverIsChargedButNeverLearned) {
  // A receiver never blacklists itself, so the PoM is not even verified,
  // and it crosses again at every contact.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  Network<G2GEpidemicNode>& net = w.network();
  const ProofOfMisbehavior pom = signed_relay_failure_pom(w, /*culprit=*/1, /*accuser=*/0);
  w.node(0).pom_ledger().record(pom);

  obs::ProtocolCounters& c = net.obs().counters;
  const auto pom_kind = static_cast<std::size_t>(obs::WireKind::Pom);
  for (std::uint64_t contact = 1; contact <= 2; ++contact) {
    Session s(net, w.node(0), w.node(1));
    const std::uint64_t checks = w.collector().costs(NodeId(1)).verifications;
    EXPECT_EQ(relay::gossip_poms(s, w.node(0), w.node(1)), 1u);
    EXPECT_EQ(w.collector().costs(NodeId(1)).verifications, checks);
    EXPECT_EQ(c.poms_gossiped->value(), contact);
    EXPECT_EQ(c.wire_bytes[pom_kind]->value(), contact * pom.wire_size());
  }
  EXPECT_EQ(c.poms_learned->value(), 0u);
  EXPECT_FALSE(w.node(1).blacklisted(NodeId(1)));
  EXPECT_TRUE(w.node(1).known_poms().empty());
}

TEST(ProtocolNode, LearnPomGatesTheBlacklistOnTheEvidence) {
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  // Junk evidence is judged but never learned.
  EXPECT_FALSE(w.node(0).learn_pom(relay_failure_pom(/*culprit=*/2, /*accuser=*/1)));
  EXPECT_FALSE(w.node(0).blacklisted(NodeId(2)));
  // Valid evidence: the culprit is blacklisted and the PoM kept for gossip.
  const ProofOfMisbehavior valid = signed_relay_failure_pom(w, /*culprit=*/2, /*accuser=*/1);
  EXPECT_TRUE(w.node(0).learn_pom(valid));
  EXPECT_TRUE(w.node(0).blacklisted(NodeId(2)));
  EXPECT_EQ(w.node(0).known_poms().size(), 1u);
  // Already blacklisted: nothing new to learn.
  EXPECT_FALSE(w.node(0).learn_pom(valid));
  EXPECT_EQ(w.node(0).known_poms().size(), 1u);
  // A node never learns accusations against itself.
  EXPECT_FALSE(w.node(0).learn_pom(signed_relay_failure_pom(w, /*culprit=*/0, /*accuser=*/1)));
  EXPECT_FALSE(w.node(0).blacklisted(NodeId(0)));
}

TEST(Session, SendFromANodeOutsideTheSessionThrowsAndChargesNobody) {
  // Node 2 is not an endpoint of the 0-1 session: a frame or transfer from
  // it must not land on either endpoint's bill.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  Network<G2GEpidemicNode>& net = w.network();
  Session s(net, w.node(0), w.node(1));
  const auto bill = [&](std::uint32_t n) {
    const metrics::NodeCosts& c = w.collector().costs(NodeId(n));
    return std::vector<std::uint64_t>{c.bytes_sent, c.bytes_received, c.signatures,
                                      c.verifications};
  };
  const std::vector<std::vector<std::uint64_t>> before = {bill(0), bill(1), bill(2)};
  const std::uint64_t encoded = net.obs().counters.frames_encoded->value();
  const std::size_t used = s.bytes_used();

  EXPECT_THROW((void)s.send(w.node(2), relay::PorRqstFrame{}), std::logic_error);
  EXPECT_THROW(s.transfer(w.node(2), 100), std::logic_error);
  EXPECT_THROW((void)s.peer_of(w.node(2)), std::logic_error);

  EXPECT_EQ((std::vector<std::vector<std::uint64_t>>{bill(0), bill(1), bill(2)}), before);
  EXPECT_EQ(net.obs().counters.frames_encoded->value(), encoded);
  EXPECT_EQ(s.bytes_used(), used);
  // The endpoints still map to each other.
  EXPECT_EQ(&s.peer_of(w.node(0)), &w.node(1));
  EXPECT_EQ(&s.peer_of(w.node(1)), &w.node(0));
}

TEST(PomLedger, RecordAndBlacklistAreIndependent) {
  relay::PomLedger ledger;
  EXPECT_FALSE(ledger.blacklisted(NodeId(3)));
  ledger.blacklist(NodeId(3));
  EXPECT_TRUE(ledger.blacklisted(NodeId(3)));
  EXPECT_TRUE(ledger.known().empty());
  const ProofOfMisbehavior& stored = ledger.record(relay_failure_pom(3, 1));
  EXPECT_EQ(stored.culprit, NodeId(3));
  EXPECT_EQ(ledger.known().size(), 1u);
}

}  // namespace
}  // namespace g2g::proto
