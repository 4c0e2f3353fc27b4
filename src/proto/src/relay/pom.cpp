#include "g2g/proto/relay/pom.hpp"

#include "g2g/obs/context.hpp"
#include "g2g/proto/node.hpp"

namespace g2g::proto::relay {

std::size_t gossip_poms(Session& s, ProtocolNode& from, ProtocolNode& to) {
  obs::ObsContext& obs = s.env().obs();
  std::size_t carried = 0;
  // learn_pom appends to `to`'s ledger only, so `from`'s stays put.
  for (const ProofOfMisbehavior& pom : from.known_poms()) {
    if (to.blacklisted(pom.culprit)) continue;  // peer already knows
    s.transfer(from, pom.wire_size(), obs::WireKind::Pom);
    obs.counters.poms_gossiped->add();
    if (obs.tracer.enabled()) {
      obs.tracer.emit({s.now(), obs::EventKind::PomGossip, from.id(), to.id(),
                       pom.culprit.value(), 0});
    }
    (void)to.learn_pom(pom);
    ++carried;
  }
  return carried;
}

}  // namespace g2g::proto::relay
