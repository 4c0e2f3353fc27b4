#include "g2g/proto/epidemic.hpp"

namespace g2g::proto {

void EpidemicNode::generate(const SealedMessage& m, MessageId id) {
  Entry e;
  e.msg = m;
  e.id = id;
  e.expires = env_.now() + config().delta1;
  e.bytes = m.wire_size();
  buffer_changed(static_cast<std::int64_t>(e.bytes));
  buffer_.emplace(m.hash(), std::move(e));
  seen_.insert(id);
  mine_.insert(id);
}

void EpidemicNode::run_contact(Session& s, EpidemicNode& x, EpidemicNode& y) {
  x.purge(s.now());
  y.purge(s.now());
  x.offer_all(s, y);
  y.offer_all(s, x);
}

void EpidemicNode::offer_all(Session& s, EpidemicNode& taker) {
  // A hoarder free-rides: it only spends transmit energy on its own traffic.
  const bool hoarding =
      behavior().kind == Behavior::Hoarder && deviates_with(taker.id());
  // Summary-vector exchange: one hash per carried message.
  s.transfer(*this, buffer_.size() * sizeof(MessageHash), obs::WireKind::SummaryVector);
  // receive() mutates only the taker, so the buffer is walked in place.
  for (const auto& [h, e] : buffer_) {
    if (hoarding && !mine_.contains(e.id)) continue;
    if (s.exhausted()) break;  // contact too short to carry more
    if (taker.seen_.contains(e.id)) continue;
    s.transfer(*this, e.bytes, obs::WireKind::Payload);
    taker.receive(s, *this, h, e);
  }
}

void EpidemicNode::receive(Session& s, EpidemicNode& giver, const MessageHash& h,
                           const Entry& e) {
  seen_.insert(e.id);
  s.env().notify_relayed(e.id, giver.id(), id());

  if (e.msg.dst == id()) {
    const auto opened = open_message(identity(), e.msg, s.env().roster());
    count_verification();  // inner sender-signature check
    if (opened.has_value() && opened->authentic) s.env().notify_delivered(e.id, id());
    return;  // destinations consume; `seen_` suppresses re-reception
  }

  // A message dropper "uses the system to send and receive messages and
  // just drops every message it happens to relay" (Section V).
  if (behavior().kind == Behavior::Dropper && deviates_with(giver.id())) return;

  buffer_changed(static_cast<std::int64_t>(e.bytes));
  buffer_.emplace(h, e);
  enforce_buffer_cap();
}

void EpidemicNode::enforce_buffer_cap() {
  const std::size_t cap = config().max_buffer_messages;
  if (cap == 0) return;
  while (buffer_.size() > cap) {
    // Evict the entry closest to expiry: it has the least forwarding value.
    auto victim = buffer_.begin();
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (it->second.expires < victim->second.expires) victim = it;
    }
    drop_entry(victim);
  }
}

void EpidemicNode::purge(TimePoint now) {
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    if (it->second.expires <= now) {
      auto dead = it++;
      drop_entry(dead);
    } else {
      ++it;
    }
  }
}

void EpidemicNode::drop_entry(std::map<MessageHash, Entry>::iterator it) {
  buffer_changed(-static_cast<std::int64_t>(it->second.bytes));
  buffer_.erase(it);
}

}  // namespace g2g::proto
