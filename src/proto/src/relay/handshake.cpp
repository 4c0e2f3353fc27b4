#include "g2g/proto/relay/handshake.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/relay/relay_node.hpp"

namespace g2g::proto::relay {

void HandshakeEngine::generate(const SealedMessage& m, MessageId id, double fm) {
  Hold hold;
  hold.msg = m;
  hold.id = id;
  hold.has_msg = true;
  hold.msg_bytes = m.wire_size();
  hold.fm = fm;
  hold.received = host_.env_.now();
  hold.expires = host_.env_.now() + host_.config().delta1;
  hold.giver = host_.id();
  hold.is_source = true;
  host_.buffer_changed(static_cast<std::int64_t>(hold.msg_bytes));
  hold_.emplace(m.hash(), std::move(hold));
  handled_.insert(id);
}

void HandshakeEngine::purge(TimePoint now) {
  std::vector<PendingTest>& tests = host_.audit().tests();
  const Duration delta2 = host_.config().delta2;
  const auto live = [&](const PendingTest& t) { return !t.done && now <= t.relayed_at + delta2; };
  std::vector<MessageId> tested;  // ids with a live test, sorted
  bool tested_built = false;
  // Delta2 after receipt: every trace of the message may be discarded.
  for (auto it = hold_.begin(); it != hold_.end();) {
    Hold& hold = it->second;
    if (now <= hold.received + delta2) {
      ++it;
      continue;
    }
    // A source keeps its bookkeeping while tests of its relays are pending.
    // The live tests are collected once per purge, at the first expired
    // source hold.
    if (hold.is_source) {
      if (!tested_built) {
        for (const PendingTest& t : tests) {
          if (live(t)) tested.push_back(t.id);
        }
        std::ranges::sort(tested);
        tested_built = true;
      }
      if (std::ranges::binary_search(tested, hold.id)) {
        ++it;
        continue;
      }
    }
    if (hold.has_msg) drop_payload(hold);
    // Message and PoR state is discarded at Delta2; the message's bit stays
    // in `handled_` so the node never pays for re-reception.
    it = hold_.erase(it);
  }
  std::erase_if(tests, [&](const PendingTest& t) { return !live(t); });
}

void HandshakeEngine::drop_payload(Hold& hold) {
  host_.buffer_changed(-static_cast<std::int64_t>(hold.msg_bytes));
  hold.has_msg = false;
}

void HandshakeEngine::giver_pass(Session& s, RelayNode& taker) {
  const TimePoint now = s.now();
  obs::Tracer& tracer = host_.env_.obs().tracer;
  // A handshake mutates only the hold it offers (and the taker), so the
  // table is walked in place.
  for (auto& [h, hold] : hold_) {
    if (!hold.has_msg || hold.is_destination) continue;
    // A hoarder never relays other people's messages — it will answer the
    // storage test instead (and pay the heavy HMAC for it).
    if (host_.behavior().kind == Behavior::Hoarder && !hold.is_source &&
        host_.deviates_with(hold.giver)) {
      continue;
    }
    const std::size_t fanout =
        hold.is_source ? host_.config().source_fanout : host_.config().relay_fanout;
    if (hold.pors.size() >= fanout) continue;
    if (now > hold.expires) continue;  // stop seeking relays (Delta1 / TTL)

    if (s.exhausted()) break;  // the contact cannot carry another handshake
    // One arena generation per handshake attempt: every frame and payload
    // encoded below lives until this reset at the start of the next attempt.
    s.arena().reset();

    // One relay_session span per handshake attempt, child of the message
    // span; closed 0 on decline/abort, 1 when the relay completes.
    const std::uint64_t ref = hold.id.value();
    const std::uint64_t span = tracer.open_span(
        now, "relay_session", tracer.message_span(ref), host_.id(), taker.id(), ref);

    // Steps 1-4: policy-specific (epidemic offer vs. delegation negotiation).
    auto out = host_.relay_attempt(s, taker, h, hold);
    if (!out.has_value()) {
      tracer.close_span(now, span, 0);
      continue;  // declined or aborted; accounting done
    }

    // Room for a relay's whole fan-out at once (a source's is unbounded by
    // default, so it gets the same start and grows past it).
    if (hold.pors.empty()) hold.pors.reserve(std::min(fanout, host_.config().relay_fanout));
    hold.pors.push_back(out->por);
    // Step 5: KEY.
    host_.counters().handshakes_completed->add();
    host_.trace_event(obs::EventKind::HsKeyReveal, taker.id(), ref);
    KeyRevealFrame key;
    key.h = h;
    const BytesView key_bytes = s.send(host_, key);
    host_.env_.notify_relayed(hold.id, host_.id(), taker.id());
    if (out->update_fm) hold.fm = out->new_fm;
    taker.handshake().complete_relay(s, host_, out->data_frame, key_bytes, hold.fm,
                                     hold.expires);

    if (hold.is_source) {
      host_.audit().arm(PendingTest{h, hold.id, taker.id(), now, out->por, false});
    }
    if (!hold.is_source && hold.pors.size() >= host_.config().relay_fanout) {
      // Forwarding duty fulfilled: the payload may go, the PoRs stay.
      drop_payload(hold);
    }
    tracer.close_span(now, span, 1);
  }
}

BytesView HandshakeEngine::answer_relay_rqst(Session& s, RelayNode& giver,
                                            BytesView rqst_frame) {
  const RelayRqstFrame rq = s.recv<RelayRqstFrame>(host_, rqst_frame);
  // Step 2: RELAY_OK, or "node B informs S that it should not be chosen as a
  // relay" — and it answers honestly, because it cannot know whether it is
  // the destination.
  const MessageId id = host_.env_.message_id(rq.h);
  const bool accept = !handled_.contains(id);
  host_.trace_event(obs::EventKind::HsRelayOk, giver.id(), id.value(), accept ? 1 : 0);
  return s.send(host_, RelayOkFrame{rq.h, accept});
}

BytesView HandshakeEngine::countersign(Session& s, RelayNode& giver, ProofOfRelay por) {
  host_.count_signature();
  // The signed payload is built in the arena; the signature it produces is
  // owned by the PoR (it outlives the attempt inside Holds and PoMs).
  por.taker_signature = host_.identity().sign(arena_signed_payload(s.arena(), por));
  host_.counters().pors_issued->add();
  const std::uint64_t ref = host_.env_.message_id(por.h).value();
  host_.trace_event(obs::EventKind::HsPorSigned, giver.id(), ref);
  host_.trace_event(obs::EventKind::PorIssued, giver.id(), ref);
  return s.send(host_, por);
}

void HandshakeEngine::complete_relay(Session& s, RelayNode& giver, BytesView data_frame,
                                     BytesView key_frame, double new_fm, TimePoint expires) {
  // In-place decode: the message and attachments are read from the frame
  // bytes through views; only what the Hold must own is materialized.
  const RelayDataFrameView data = s.recv<RelayDataFrameView>(host_, data_frame);
  (void)s.recv<KeyRevealFrame>(host_, key_frame);  // the box seal emulates E_k
  // H(m) over the message's wire bytes as they arrived — no re-encode.
  const MessageHash h = data.msg.hash();
  const MessageId id = host_.env_.message_id(h);
  handled_.insert(id);

  Hold hold;
  hold.msg = data.msg.to_owned();
  hold.id = id;
  hold.msg_bytes = data.msg.wire_size();
  hold.fm = new_fm;
  hold.received = s.now();
  // Global TTL: the expiry travels with the message; per-holder otherwise.
  hold.expires = host_.config().global_ttl ? expires : s.now() + host_.config().delta1;
  hold.giver = giver.id();
  hold.attachments = data.decode_attachments();

  if (hold.msg.dst == host_.id()) {
    const auto opened = open_message(host_.identity(), hold.msg, s.env().roster());
    host_.count_verification();
    if (opened.has_value() && opened->authentic) s.env().notify_delivered(id, host_.id());
    host_.on_delivered(s, hold.attachments);  // test by the destination
    // The destination keeps the message (it must still answer a possible
    // storage test — it cannot reveal that it is the destination by design).
    hold.is_destination = true;
    hold.has_msg = true;
    host_.buffer_changed(static_cast<std::int64_t>(hold.msg_bytes));
    hold_.emplace(h, std::move(hold));
    return;
  }

  if (host_.behavior().kind == Behavior::Dropper && host_.deviates_with(giver.id())) {
    // Drop right after the relay phase: no payload is stored; only the
    // handled-set entry remains so the node declines re-reception.
    hold.has_msg = false;
    hold_.emplace(h, std::move(hold));
    return;
  }

  hold.has_msg = true;
  host_.buffer_changed(static_cast<std::int64_t>(hold.msg_bytes));
  hold_.emplace(h, std::move(hold));
}

}  // namespace g2g::proto::relay
