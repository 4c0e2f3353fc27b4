// PomLedger + PoM gossip: the accusation layer of the relay core.
//
// PomLedger is the per-node state every protocol shares: the blacklist and
// the log of PoMs the node has verified (or issued) and will gossip onward.
//
// gossip_poms is one direction of a session's PoM gossip: each PoM crosses
// as an unsigned transfer, and the receiver checks its evidence and, if it
// holds, blacklists the culprit (ProtocolNode::learn_pom).
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "g2g/proto/wire.hpp"

namespace g2g::proto {
class ProtocolNode;
class Session;
}  // namespace g2g::proto

namespace g2g::proto::relay {

/// Per-node accusation state: who is evicted, and the verifiable evidence.
class PomLedger {
 public:
  [[nodiscard]] bool blacklisted(NodeId n) const { return blacklist_.contains(n); }
  [[nodiscard]] const std::vector<ProofOfMisbehavior>& known() const { return poms_; }

  void blacklist(NodeId n) { blacklist_.insert(n); }
  /// Append a verified (or self-issued) PoM; returns the stored copy.
  const ProofOfMisbehavior& record(ProofOfMisbehavior pom) {
    poms_.push_back(std::move(pom));
    return poms_.back();
  }

 private:
  std::set<NodeId> blacklist_;
  std::vector<ProofOfMisbehavior> poms_;
};

/// Gossip `from`'s PoMs to `to` over `s`: every PoM whose culprit `to` has
/// not blacklisted (yet: a learned PoM suppresses later ones about the same
/// culprit) is charged to the session (wire.pom, pom.gossiped, a PomGossip
/// event) and handed to `to.learn_pom`. Returns the number of PoMs carried.
std::size_t gossip_poms(Session& s, ProtocolNode& from, ProtocolNode& to);

}  // namespace g2g::proto::relay
