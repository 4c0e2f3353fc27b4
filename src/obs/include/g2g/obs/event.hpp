// Structured simulation events: the typed vocabulary of the tracer.
//
// One Event is one protocol-level occurrence (a contact firing, a handshake
// step, a test outcome, a PoM broadcast, ...) stamped with sim-time and the
// node ids involved. Events are plain value types — cheap to copy into the
// tracer's ring buffer and cheap to drop when tracing is disabled.
//
// The JSONL schema and the full taxonomy are documented in
// docs/OBSERVABILITY.md; event kind names here and there must stay in sync.
#pragma once

#include <cstdint>

#include "g2g/util/ids.hpp"
#include "g2g/util/time.hpp"

namespace g2g::obs {

enum class EventKind : std::uint8_t {
  // Radio / session layer.
  ContactUp = 0,    ///< a,b in range; value = contact duration (us, -1 unbounded)
  ContactDown,      ///< session closed; value = bytes the contact carried
  SessionOpen,      ///< mutual authentication succeeded
  SessionRefused,   ///< a or b blacklists the other (the eviction in action)

  // G2G relay handshake, Fig. 1 steps 1-5 (Delegation reuses 3-5).
  HsRelayRqst,      ///< step 1, RELAY_RQST: a=giver, b=taker, ref=msg
  HsRelayOk,        ///< step 2, RELAY_OK: a=taker; value 1=accept, 0=decline
  HsRelayData,      ///< step 3, RELAY E_k(m): value = encrypted bytes
  HsPorSigned,      ///< step 4, PoR signed: a=taker, b=giver
  HsKeyReveal,      ///< step 5, KEY: a=giver; the taker now learns if it is D

  // Delegation quality negotiation (Fig. 6 steps 8-9).
  FqRqst,           ///< FQ_RQST: a=giver, b=candidate, ref=msg
  FqResp,           ///< FQ_RESP: a=declarer; value = quality scaled by 1e6

  // Proofs of relay.
  PorIssued,        ///< a=taker signed a PoR for b=giver
  PorVerified,      ///< a=verifier checked b's PoR; value 1=ok, 0=bad

  // Test phases (Sections IV-B, VI-VII).
  StorageChallenge, ///< a computed the heavy HMAC; value = iterations
  TestBySender,     ///< a=source tested b=relay; value: 0=fail, 1=PoRs ok,
                    ///< 2=storage proof ok, 3=inconclusive
  TestByDestination,///< a=destination checked b's declaration; value: 0=lie,
                    ///< 1=consistent, 2=unverifiable frame
  ChainCheck,       ///< a=source ran the f_m chain over b's PoRs; value 1=ok, 0=cheat

  // Accusations and eviction.
  PomIssued,        ///< a=accuser issued a PoM against b=culprit; value = PoM kind
  PomGossip,        ///< a pushed a PoM (about ref culprit) to b at session start
  PomLearned,       ///< a verified a gossiped PoM against b; value 1=accepted
  Eviction,         ///< b=culprit blacklisted network-wide by a=accuser

  // Buffers.
  BufferAdd,        ///< a's buffer grew; value = +bytes
  BufferEvict,      ///< a's buffer shrank (payload dropped/evicted); value = -bytes

  // Message lifecycle (mirrors metrics::Collector).
  MessageGenerated, ///< a=src sealed ref toward b=dst
  MessageRelayed,   ///< one replica moved a -> b; value = hop delay (us)
  MessageDelivered, ///< b=dst opened ref; value = end-to-end delay (us)
  Detection,        ///< a=detector caught b=culprit; value = DetectionMethod
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::Detection) + 1;

/// Stable machine-readable name ("hs_relay_rqst", ...) used by the JSONL sink.
[[nodiscard]] const char* to_string(EventKind kind);

struct Event {
  TimePoint at;                       ///< sim-time stamp
  EventKind kind = EventKind::ContactUp;
  NodeId a;                           ///< primary actor
  NodeId b;                           ///< counterparty (may be invalid())
  std::uint64_t ref = 0;              ///< message reference (per-run MessageId)
  std::int64_t value = 0;             ///< kind-specific payload (see above)
};

}  // namespace g2g::obs
