// HandshakeEngine: the 5-step relay phase (Fig. 1 / Fig. 6), frame-driven.
//
// One engine per node owns the hold table and the handled set, and runs both
// sides of the handshake against the peer node's engine. Every step crosses
// the contact as an encoded frame (relay/frames.hpp) through the session seam
// — Session::send charges it, Session::recv decodes it on the receiving side
// — so a real transport backend only has to carry the frame bytes. The
// policy-specific middle of the handshake (epidemic accept vs. delegation
// quality negotiation) is delegated to the host's relay_attempt() hook; the
// shared tail (PoR bookkeeping, key reveal, completion, test arming,
// forwarding-duty payload drop) lives here.
#pragma once

#include <map>

#include "g2g/proto/relay/state.hpp"

namespace g2g::proto {
class Session;
}

namespace g2g::proto::relay {

class RelayNode;

class HandshakeEngine {
 public:
  explicit HandshakeEngine(RelayNode& host) : host_(host) {}

  /// Source-side message admission (the host supplies the initial f_m);
  /// `id` is the message's dense per-run id.
  void generate(const SealedMessage& m, MessageId id, double fm);

  /// Delta2 housekeeping: expired holds go, except a source's hold while a
  /// test of one of its relays is pending; resolved or out-of-window tests go.
  void purge(TimePoint now);

  /// Giver side: offer every eligible hold to `taker`, one handshake each,
  /// in hash order (with byte-budgeted contacts the order decides which
  /// holds get a handshake).
  void giver_pass(Session& s, RelayNode& taker);

  /// Taker side of step 2 for the epidemic handshake: decode the RELAY_RQST
  /// frame and answer with RELAY_OK, or with a decline when the message was
  /// already handled. Returns the answer frame for the giver to recv() — a
  /// view into the session arena, valid for the current handshake attempt.
  [[nodiscard]] BytesView answer_relay_rqst(Session& s, RelayNode& giver, BytesView rqst_frame);

  /// Taker side of step 4: sign the PoR the giver built (h, giver, taker,
  /// time; plus D', f_m and f_BD' for Delegation) and send it back. The giver
  /// recv()s and verifies it; the bytes live in the session arena for the
  /// current attempt.
  [[nodiscard]] BytesView countersign(Session& s, RelayNode& giver, ProofOfRelay por);

  /// Taker side after the key reveal (step 5): decode the data and key
  /// frames, then store / deliver / drop per behaviour. H(m) is computed over
  /// the received wire bytes and resolved to its id once, here.
  void complete_relay(Session& s, RelayNode& giver, BytesView data_frame,
                      BytesView key_frame, double new_fm, TimePoint expires);

  /// Forwarding duty fulfilled (or Delta2): the payload may go, PoRs stay.
  void drop_payload(Hold& hold);

  [[nodiscard]] bool has_handled(MessageId id) const { return handled_.contains(id); }
  [[nodiscard]] std::map<MessageHash, Hold>& holds() { return hold_; }
  [[nodiscard]] const std::map<MessageHash, Hold>& holds() const { return hold_; }

 private:
  RelayNode& host_;
  /// Keyed and iterated by hash (giver_pass order); membership lives in
  /// handled_.
  std::map<MessageHash, Hold> hold_;
  MessageIdSet handled_;
};

}  // namespace g2g::proto::relay
