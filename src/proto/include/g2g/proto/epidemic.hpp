// Vanilla Epidemic Forwarding (Vahdat & Becker, 2000).
//
// Every contact is a forwarding opportunity: if the giver carries a message
// the taker has not seen, the message is replicated to the taker. Used by the
// paper as the delay/success-rate optimal (but costly) benchmark, and as the
// victim of the message-dropper experiments (Fig. 3).
#pragma once

#include <map>

#include "g2g/proto/node.hpp"

namespace g2g::proto {

class EpidemicNode final : public ProtocolNode {
 public:
  using ProtocolNode::ProtocolNode;

  /// Inject a locally-generated message (the node is its source); `id` is
  /// its dense per-run id.
  void generate(const SealedMessage& m, MessageId id);

  /// Run both directions of the forwarding exchange for one contact.
  static void run_contact(Session& s, EpidemicNode& x, EpidemicNode& y);

  // Introspection (tests).
  [[nodiscard]] bool carries(const MessageHash& h) const { return buffer_.contains(h); }
  [[nodiscard]] std::size_t buffer_size() const { return buffer_.size(); }

 private:
  struct Entry {
    SealedMessage msg;
    MessageId id;
    TimePoint expires;  // creation + delta1 (the vanilla TTL), carried along
    std::size_t bytes = 0;
  };

  void offer_all(Session& s, EpidemicNode& taker);
  /// Take a copy of the giver's entry for H(m) = `h`.
  void receive(Session& s, EpidemicNode& giver, const MessageHash& h, const Entry& e);
  void purge(TimePoint now);
  void drop_entry(std::map<MessageHash, Entry>::iterator it);
  /// Finite-buffer extension: evict entries closest to expiry when over cap.
  void enforce_buffer_cap();

  /// Offered in hash order: with byte-budgeted contacts the order decides
  /// which messages cross, so it stays the summary-vector order.
  std::map<MessageHash, Entry> buffer_;
  MessageIdSet seen_;
  MessageIdSet mine_;  // messages this node originated
};

}  // namespace g2g::proto
