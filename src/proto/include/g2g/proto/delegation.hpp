// Vanilla Delegation Forwarding (Erramilli, Crovella, Chaintreau, Diot —
// MobiHoc 2008), in the two flavours the paper evaluates:
//   * Destination Frequency — forward to nodes that met the destination more
//     often than any node the message has seen so far;
//   * Destination Last Contact — forward to nodes that met the destination
//     more recently.
// Each message carries a forwarding-quality level f_m; a replica is created
// (and both copies relabelled) whenever a met node beats f_m. Victim of the
// dropper/liar experiments (Fig. 5).
#pragma once

#include <map>

#include "g2g/proto/node.hpp"
#include "g2g/proto/quality.hpp"

namespace g2g::proto {

class DelegationNode final : public ProtocolNode {
 public:
  DelegationNode(Env& env, crypto::NodeIdentity identity, NodeConfig config,
                 BehaviorConfig behavior);

  /// Inject a locally-generated message; `id` is its dense per-run id.
  void generate(const SealedMessage& m, MessageId id);
  static void run_contact(Session& s, DelegationNode& x, DelegationNode& y);

  void note_encounter(NodeId peer, TimePoint t) override;

  /// Forwarding quality toward `dst` as this node *declares* it when asked by
  /// `asker` (liars answer 0; vanilla Delegation uses the current value).
  [[nodiscard]] double declare_quality(NodeId dst, NodeId asker) const;

  // Introspection (tests).
  [[nodiscard]] bool carries(const MessageHash& h) const { return buffer_.contains(h); }
  [[nodiscard]] std::size_t buffer_size() const { return buffer_.size(); }
  [[nodiscard]] const EncounterTable& table() const { return table_; }

 private:
  struct Entry {
    SealedMessage msg;
    MessageId id;
    double fm = 0.0;
    TimePoint expires;
    std::size_t bytes = 0;
  };

  void offer_all(Session& s, DelegationNode& taker);
  /// Take a copy of the giver's entry for H(m) = `h` (its f_m already
  /// relabelled by the giver).
  void receive(Session& s, DelegationNode& giver, const MessageHash& h, const Entry& e);
  void purge(TimePoint now);
  /// Finite-buffer extension: evict entries closest to expiry when over cap.
  void enforce_buffer_cap();

  /// Offered in hash order: with byte-budgeted contacts the order decides
  /// which messages cross, so it stays the summary-vector order.
  std::map<MessageHash, Entry> buffer_;
  MessageIdSet seen_;
  MessageIdSet mine_;  // messages this node originated
  EncounterTable table_;
};

}  // namespace g2g::proto
