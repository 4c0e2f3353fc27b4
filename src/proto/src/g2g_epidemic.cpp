#include "g2g/proto/g2g_epidemic.hpp"

#include <utility>

#include "g2g/proto/relay/frames.hpp"

namespace g2g::proto {

std::optional<relay::HandshakeOutcome> G2GEpidemicNode::relay_attempt(
    Session& s, relay::RelayNode& taker, const MessageHash& h, relay::Hold& hold) {
  const std::uint64_t ref = hold.id.value();

  // Step 1: RELAY_RQST; step 2: the taker answers RELAY_OK or declines.
  counters().handshakes_started->add();
  trace_event(obs::EventKind::HsRelayRqst, taker.id(), ref);
  const BytesView ok =
      taker.handshake().answer_relay_rqst(s, *this, s.send(*this, relay::RelayRqstFrame{h}));
  if (!s.recv<relay::RelayOkFrame>(*this, ok).accept) {
    counters().handshakes_declined->add();
    return std::nullopt;  // taker declined (already handled)
  }
  // Step 4: the taker countersigns the PoR. (The encrypted message of step 3
  // is on its way; its bytes are charged below.)
  ProofOfRelay proto_por;
  proto_por.h = h;
  proto_por.giver = id();
  proto_por.taker = taker.id();
  proto_por.at = s.now();
  const ProofOfRelayView por = s.recv<ProofOfRelayView>(
      *this, taker.handshake().countersign(s, *this, std::move(proto_por)));

  // Step 3 accounting: E_k(m). Encoded straight from the hold into the arena.
  const BytesView data = s.send(*this, relay::RelayDataParts{h, hold.msg, {}});
  trace_event(obs::EventKind::HsRelayData, taker.id(), ref,
              static_cast<std::int64_t>(hold.msg_bytes));

  // Verify the PoR before revealing the key (signed payload built in the
  // arena; the signature is checked against the view in place).
  count_verification();
  const auto* taker_cert = env_.roster().find(taker.id());
  bool por_ok =
      taker_cert != nullptr && por.h == h && por.giver == id() && por.taker == taker.id();
  if (por_ok) {
    por_ok = identity().suite().verify(taker_cert->public_key,
                                       arena_signed_payload(s.arena(), por),
                                       por.taker_signature);
  }
  trace_event(obs::EventKind::PorVerified, taker.id(), ref, por_ok ? 1 : 0);
  if (!por_ok) {
    counters().handshakes_aborted->add();
    return std::nullopt;  // never happens with conforming takers
  }
  counters().pors_verified->add();
  return relay::HandshakeOutcome{por.to_owned(), data, false, 0.0};
}

}  // namespace g2g::proto
