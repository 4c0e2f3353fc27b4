#include "g2g/proto/relay/audit.hpp"

#include <algorithm>

#include "g2g/crypto/hmac.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/relay/relay_node.hpp"

namespace g2g::proto::relay {

void AuditEngine::run(Session& s, RelayNode& peer) {
  const TimePoint now = s.now();

  // Two phases: the challenge loop decides every storage proof of this
  // contact as it arrives (heavy_hmac_agree: a stored copy and seed
  // byte-equal to the source's agree without running the chain, any
  // differing byte runs both chains), and the outcomes (pass / PoM) resolve
  // after the loop. Both sides are still charged a heavy HMAC
  // (count_heavy_hmac). Deferring is invisible to the protocol: nothing
  // between the challenge and its resolution reads the blacklist or the PoM
  // log, and session byte accounting stays in challenge order.
  struct PendingStorageCheck {
    bool passed;
    NodeId relay;
    std::uint64_t ref;
    ProofOfRelay por;  // evidence if the proof fails
    TimePoint relayed_at;
    std::uint64_t span;  // audit_round span, closed when the check resolves
  };
  std::vector<PendingStorageCheck> pending;
  obs::Tracer& tracer = host_.env_.obs().tracer;

  // A failed test: broadcastable proof of misbehaviour, the PoR the relay
  // signed when it accepted the message.
  const auto fail = [&](NodeId relay, std::uint64_t ref, const ProofOfRelay& por,
                        TimePoint relayed_at, std::uint64_t span) {
    host_.counters().tests_failed->add();
    host_.trace_event(obs::EventKind::TestBySender, relay, ref, 0);
    ProofOfMisbehavior pom;
    pom.kind = ProofOfMisbehavior::Kind::RelayFailure;
    pom.culprit = relay;
    pom.evidence_accepted = por;
    host_.issue_pom(std::move(pom), metrics::DetectionMethod::TestBySender,
                    now - (relayed_at + host_.config().delta1));
    tracer.close_span(now, span, 0);
  };

  for (PendingTest& t : tests_) {
    if (s.exhausted()) break;
    if (t.done || t.relay != peer.id()) continue;
    if (now < t.relayed_at + host_.config().delta1) continue;  // not testable yet
    if (now > t.relayed_at + host_.config().delta2) continue;  // window closed
    t.done = true;
    // One arena generation per challenge: frames and signed payloads encoded
    // below live until this reset at the start of the next challenge.
    s.arena().reset();

    NodeId real_dst = NodeId::invalid();
    if (!host_.begin_test(t, real_dst)) continue;  // policy record gone

    const std::uint64_t ref = t.id.value();
    host_.counters().tests_by_sender->add();
    // One audit_round span per test-by-sender challenge, child of the message
    // span; the close value mirrors the TestBySender event (0 fail, 1 PoRs
    // ok, 2 storage proof ok, 3 inconclusive).
    const std::uint64_t span = tracer.open_span(
        now, "audit_round", tracer.message_span(ref), host_.id(), peer.id(), ref);
    // The challenge crosses the session as a POR_RQST frame carrying a fresh
    // 32-byte seed; the responder answers from the decoded bytes.
    PorRqstFrame challenge;
    challenge.h = t.h;
    // Four little-endian rng words fill the seed in place (byte-identical to
    // the former Writer-built buffer).
    for (std::size_t i = 0; i < 4; ++i) {
      const std::uint64_t word = host_.env_.rng().next();
      for (std::size_t j = 0; j < 8; ++j) {
        challenge.seed[i * 8 + j] = static_cast<std::uint8_t>(word >> (8 * j));
      }
    }
    const TestResponse resp = peer.audit().respond(s, s.send(host_, challenge));
    const bool stored = !resp.stored_resp.empty();
    // STORED_RESP arrives with the response; the proof binds to the message
    // and seed it echoes (its digest field is a placeholder, see
    // StoredRespFrame).
    StoredRespFrame proof;
    if (stored) proof = s.recv<StoredRespFrame>(host_, resp.stored_resp);

    if (!host_.screen_pors(t, resp.pors, real_dst, now)) {
      // The policy screen failed the test outright (Delegation: the chain
      // check detected a cheat and issued the PoM already).
      host_.counters().tests_failed->add();
      host_.trace_event(obs::EventKind::TestBySender, peer.id(), ref, 0);
      tracer.close_span(now, span, 0);
      continue;
    }

    // Either two valid PoRs...
    if (resp.pors.size() >= host_.config().relay_fanout) {
      // Every PoR is counted, verified and traced in order, even after one
      // fails. Signed payloads are built in the arena (no reset until the
      // next challenge).
      bool all_ok = true;
      for (const auto& por : resp.pors) {
        host_.count_verification();
        const auto* cert = host_.env_.roster().find(por.taker);
        const bool ok = por.h == t.h && por.giver == peer.id() && cert != nullptr &&
                        host_.identity().suite().verify(BytesView(cert->public_key),
                                                        arena_signed_payload(s.arena(), por),
                                                        BytesView(por.taker_signature));
        host_.trace_event(obs::EventKind::PorVerified, por.taker, ref, ok ? 1 : 0);
        if (ok) host_.counters().pors_verified->add();
        else all_ok = false;
      }
      if (all_ok) {
        host_.counters().tests_passed->add();
        host_.trace_event(obs::EventKind::TestBySender, peer.id(), ref, 1);
        tracer.close_span(now, span, 1);
        continue;  // test passed: the relay showed its PoRs
      }
    }

    // ...or a storage proof the source can recompute (it still has m).
    if (stored) {
      auto& holds = host_.handshake().holds();
      const auto it = holds.find(t.h);
      if (it == holds.end() || !it->second.has_msg) {
        host_.trace_event(obs::EventKind::TestBySender, peer.id(), ref, 3);
        tracer.close_span(now, span, 3);
        continue;  // source can no longer verify; give the benefit of the doubt
      }
      host_.count_heavy_hmac();
      // Both copies live in the session arena's current generation, which
      // lasts until the next challenge's reset.
      bool passed = false;
      if (proof.h == t.h) {
        const crypto::HeavyHmacAgreement verdict = crypto::heavy_hmac_agree(
            resp.stored_copy, BytesView(proof.seed.data(), proof.seed.size()),
            arena_encode(s.arena(), it->second.msg),
            BytesView(challenge.seed.data(), challenge.seed.size()),
            host_.config().heavy_hmac_iterations);
        host_.counters().heavy_hmac_computed->add(verdict.chains);
        passed = verdict.agree;
      }
      pending.push_back(
          PendingStorageCheck{passed, peer.id(), ref, t.por, t.relayed_at, span});
      continue;  // outcome resolves after the challenge loop
    }

    // Neither: the relay failed the test.
    fail(peer.id(), ref, t.por, t.relayed_at, span);
  }

  for (const PendingStorageCheck& c : pending) {
    if (c.passed) {
      host_.counters().tests_passed->add();
      host_.trace_event(obs::EventKind::TestBySender, c.relay, c.ref, 2);
      tracer.close_span(now, c.span, 2);
      continue;
    }
    fail(c.relay, c.ref, c.por, c.relayed_at, c.span);
  }
}

TestResponse AuditEngine::respond(Session& s, BytesView rqst) {
  const PorRqstFrame rq = s.recv<PorRqstFrame>(host_, rqst);
  TestResponse resp;
  auto& holds = host_.handshake().holds();
  const auto it = holds.find(rq.h);
  if (it == holds.end()) {
    // Nothing to show: a dropper past Delta2, or a dropper that kept no state.
    return resp;
  }
  const Hold& hold = it->second;

  if (mode_ == PresentMode::PorsThenStorage) {
    // Delegation: every PoR travels (the sender chain-checks them); a storage
    // proof covers the shortfall.
    resp.pors = hold.pors;
    for (const auto& por : resp.pors) s.transfer(host_, por.wire_size(), obs::WireKind::Por);
    if (hold.pors.size() < host_.config().relay_fanout && hold.has_msg) {
      storage_proof(s, hold, rq, resp);
    }
    return resp;
  }

  // Epidemic: a full PoR set settles the test by itself.
  if (hold.pors.size() >= host_.config().relay_fanout) {
    resp.pors = hold.pors;
    for (const auto& por : resp.pors) s.transfer(host_, por.wire_size(), obs::WireKind::Por);
    return resp;
  }
  if (hold.has_msg) {
    resp.pors = hold.pors;  // show what we have (0 or 1)
    storage_proof(s, hold, rq, resp);
    return resp;
  }
  return resp;  // dropper: no PoRs, no message
}

void AuditEngine::storage_proof(Session& s, const Hold& hold, const PorRqstFrame& rq,
                                TestResponse& resp) {
  host_.count_heavy_hmac();
  host_.counters().storage_challenges->add();
  host_.trace_event(obs::EventKind::StorageChallenge, s.peer_of(host_).id(),
                    hold.id.value(), host_.config().heavy_hmac_iterations);
  // The stored copy the proof covers, handed to the challenger in the
  // session arena's current generation (valid until the next challenge).
  resp.stored_copy = arena_encode(s.arena(), hold.msg);
  StoredRespFrame frame;
  frame.h = rq.h;
  frame.seed = rq.seed;
  resp.stored_resp = s.send(host_, frame);
}

std::size_t AuditEngine::pending_count() const {
  return static_cast<std::size_t>(
      std::count_if(tests_.begin(), tests_.end(), [](const PendingTest& t) { return !t.done; }));
}

}  // namespace g2g::proto::relay
