#include "g2g/proto/delegation.hpp"

namespace g2g::proto {

DelegationNode::DelegationNode(Env& env, crypto::NodeIdentity identity, NodeConfig config,
                               BehaviorConfig behavior)
    : ProtocolNode(env, std::move(identity), config, behavior),
      table_(config.quality_frame) {}

void DelegationNode::note_encounter(NodeId peer, TimePoint t) { table_.record(peer, t); }

double DelegationNode::declare_quality(NodeId dst, NodeId asker) const {
  if (behavior().kind == Behavior::Liar && deviates_with(asker)) {
    return min_quality(config().quality_kind);
  }
  return table_.current(config().quality_kind, dst);
}

void DelegationNode::generate(const SealedMessage& m, MessageId id) {
  Entry e;
  e.msg = m;
  e.id = id;
  // "When a message is generated, it is associated with the forwarding
  // quality of the sender" (Section VI).
  e.fm = table_.current(config().quality_kind, m.dst);
  e.expires = env_.now() + config().delta1;
  e.bytes = m.wire_size();
  buffer_changed(static_cast<std::int64_t>(e.bytes));
  buffer_.emplace(m.hash(), std::move(e));
  seen_.insert(id);
  mine_.insert(id);
}

void DelegationNode::run_contact(Session& s, DelegationNode& x, DelegationNode& y) {
  x.purge(s.now());
  y.purge(s.now());
  x.offer_all(s, y);
  y.offer_all(s, x);
}

void DelegationNode::offer_all(Session& s, DelegationNode& taker) {
  // A hoarder free-rides: it only spends transmit energy on its own traffic.
  const bool hoarding =
      behavior().kind == Behavior::Hoarder && deviates_with(taker.id());
  s.transfer(*this, buffer_.size() * sizeof(MessageHash),
             obs::WireKind::SummaryVector);  // summary vector
  // receive() mutates only the taker, so the buffer is walked in place.
  for (auto& [h, e] : buffer_) {
    if (hoarding && !mine_.contains(e.id)) continue;
    if (s.exhausted()) break;  // contact too short to carry more
    if (taker.seen_.contains(e.id)) continue;

    if (e.msg.dst == taker.id()) {
      // Direct delivery, regardless of quality.
      s.transfer(*this, e.bytes, obs::WireKind::Payload);
      taker.receive(s, *this, h, e);
      continue;
    }

    // Quality query (tiny unsigned exchange in the vanilla protocol).
    s.transfer(*this, 40, obs::WireKind::FqRqst);
    s.transfer(taker, 16, obs::WireKind::QualityDecl);
    const double q = taker.declare_quality(e.msg.dst, id());
    if (q > e.fm) {
      s.transfer(*this, e.bytes, obs::WireKind::Payload);
      // "...creates a replica of the message, labels both messages with the
      // forwarding quality of node B, and forwards one of the two replicas."
      e.fm = q;
      taker.receive(s, *this, h, e);
    }
  }
}

void DelegationNode::receive(Session& s, DelegationNode& giver, const MessageHash& h,
                             const Entry& e) {
  seen_.insert(e.id);
  s.env().notify_relayed(e.id, giver.id(), id());

  if (e.msg.dst == id()) {
    const auto opened = open_message(identity(), e.msg, s.env().roster());
    count_verification();
    if (opened.has_value() && opened->authentic) s.env().notify_delivered(e.id, id());
    return;
  }

  if (behavior().kind == Behavior::Dropper && deviates_with(giver.id())) return;

  buffer_changed(static_cast<std::int64_t>(e.bytes));
  buffer_.emplace(h, e);
  enforce_buffer_cap();
}

void DelegationNode::enforce_buffer_cap() {
  const std::size_t cap = config().max_buffer_messages;
  if (cap == 0) return;
  while (buffer_.size() > cap) {
    auto victim = buffer_.begin();
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (it->second.expires < victim->second.expires) victim = it;
    }
    buffer_changed(-static_cast<std::int64_t>(victim->second.bytes));
    buffer_.erase(victim);
  }
}

void DelegationNode::purge(TimePoint now) {
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    if (it->second.expires <= now) {
      buffer_changed(-static_cast<std::int64_t>(it->second.bytes));
      it = buffer_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace g2g::proto
