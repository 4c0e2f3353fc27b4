#include "g2g/proto/wire.hpp"

#include <cmath>
#include <span>
#include <string_view>

namespace g2g::proto {

const char* to_string(QualityKind kind) {
  switch (kind) {
    case QualityKind::DestinationFrequency: return "dest-frequency";
    case QualityKind::DestinationLastContact: return "dest-last-contact";
  }
  return "?";
}

double min_quality(QualityKind kind) {
  switch (kind) {
    case QualityKind::DestinationFrequency: return 0.0;
    case QualityKind::DestinationLastContact: return kNeverMet;
  }
  return 0.0;
}

namespace {
constexpr std::string_view kFqRespDomain = "g2g-fqresp-v1";
constexpr std::string_view kPorDomain = "g2g-por-v1";
}  // namespace

std::size_t QualityDeclaration::signed_payload_size() const {
  // domain string + declarer + dst + value + frame + at.
  return 4 + kFqRespDomain.size() + 4 + 4 + 8 + 8 + 8;
}

void QualityDeclaration::signed_payload_into(SpanWriter& w) const {
  w.str(kFqRespDomain);
  w.u32(declarer.value());
  w.u32(dst.value());
  w.f64(value);
  w.i64(frame);
  w.i64(at.micros());
}

Bytes QualityDeclaration::signed_payload() const {
  Bytes out(signed_payload_size());
  SpanWriter w(std::span<std::uint8_t>(out.data(), out.size()));
  signed_payload_into(w);
  w.expect_full();
  return out;
}

void QualityDeclaration::encode_into(SpanWriter& w) const {
  w.u32(declarer.value());
  w.u32(dst.value());
  w.f64(value);
  w.i64(frame);
  w.i64(at.micros());
  w.blob(signature);
}

Bytes QualityDeclaration::encode() const { return encode_exact(*this); }

QualityDeclaration QualityDeclaration::decode(BytesView b) {
  Reader r(b);
  QualityDeclaration d = decode(r);
  if (!r.done()) throw DecodeError("trailing bytes after QualityDeclaration");
  return d;
}

QualityDeclaration QualityDeclaration::decode(Reader& r) {
  QualityDeclaration d;
  d.declarer = NodeId(r.u32());
  d.dst = NodeId(r.u32());
  d.value = r.f64();
  d.frame = r.i64();
  d.at = TimePoint(r.i64());
  d.signature = r.blob();
  return d;
}

std::size_t QualityDeclaration::wire_size() const {
  // declarer + dst + value + frame + at + signature length prefix + signature.
  return 4 + 4 + 8 + 8 + 8 + 4 + signature.size();
}

namespace {

// ProofOfRelay and ProofOfRelayView carry identical non-signature fields, so
// the canonical layouts are written and read once, generically over both.
template <typename P>
std::size_t por_payload_size(const P& p) {
  // domain string + h + giver + taker + at + flag [+ delegation extension].
  return 4 + kPorDomain.size() + 32 + 4 + 4 + 8 + 1 + (p.delegation ? 4 + 8 + 8 + 8 : 0);
}

template <typename P>
void por_payload_into(SpanWriter& w, const P& p) {
  w.str(kPorDomain);
  w.raw(BytesView(p.h.data(), p.h.size()));
  w.u32(p.giver.value());
  w.u32(p.taker.value());
  w.i64(p.at.micros());
  w.u8(p.delegation ? 1 : 0);
  if (p.delegation) {
    w.u32(p.declared_dst.value());
    w.f64(p.msg_quality);
    w.f64(p.taker_quality);
    w.i64(p.quality_frame);
  }
}

/// Everything up to (not including) the trailing signature blob.
template <typename P>
void por_fields_from(Reader& r, P& p) {
  const BytesView hv = r.raw(p.h.size());
  std::copy(hv.begin(), hv.end(), p.h.begin());
  p.giver = NodeId(r.u32());
  p.taker = NodeId(r.u32());
  p.at = TimePoint(r.i64());
  p.delegation = r.u8() != 0;
  if (p.delegation) {
    p.declared_dst = NodeId(r.u32());
    p.msg_quality = r.f64();
    p.taker_quality = r.f64();
    p.quality_frame = r.i64();
  }
}

}  // namespace

std::size_t ProofOfRelay::signed_payload_size() const { return por_payload_size(*this); }

void ProofOfRelay::signed_payload_into(SpanWriter& w) const { por_payload_into(w, *this); }

Bytes ProofOfRelay::signed_payload() const {
  Bytes out(signed_payload_size());
  SpanWriter w(std::span<std::uint8_t>(out.data(), out.size()));
  signed_payload_into(w);
  w.expect_full();
  return out;
}

void ProofOfRelay::encode_into(SpanWriter& w) const {
  w.raw(BytesView(h.data(), h.size()));
  w.u32(giver.value());
  w.u32(taker.value());
  w.i64(at.micros());
  w.u8(delegation ? 1 : 0);
  // The delegation extension travels only when the flag is set, matching
  // signed_payload() — epidemic PoRs never pay for fields they do not carry.
  if (delegation) {
    w.u32(declared_dst.value());
    w.f64(msg_quality);
    w.f64(taker_quality);
    w.i64(quality_frame);
  }
  w.blob(taker_signature);
}

Bytes ProofOfRelay::encode() const { return encode_exact(*this); }

ProofOfRelay ProofOfRelay::decode(BytesView b) {
  Reader r(b);
  ProofOfRelay p = decode(r);
  if (!r.done()) throw DecodeError("trailing bytes after PoR");
  return p;
}

ProofOfRelay ProofOfRelay::decode(Reader& r) {
  ProofOfRelay p;
  por_fields_from(r, p);
  p.taker_signature = r.blob();
  return p;
}

std::size_t ProofOfRelayView::signed_payload_size() const { return por_payload_size(*this); }

void ProofOfRelayView::signed_payload_into(SpanWriter& w) const { por_payload_into(w, *this); }

ProofOfRelay ProofOfRelayView::to_owned() const {
  ProofOfRelay p;
  p.h = h;
  p.giver = giver;
  p.taker = taker;
  p.at = at;
  p.delegation = delegation;
  p.declared_dst = declared_dst;
  p.msg_quality = msg_quality;
  p.taker_quality = taker_quality;
  p.quality_frame = quality_frame;
  p.taker_signature.assign(taker_signature.begin(), taker_signature.end());
  return p;
}

std::size_t ProofOfRelayView::wire_size() const {
  return 32 + 4 + 4 + 8 + 1 + (delegation ? 4 + 8 + 8 + 8 : 0) + 4 + taker_signature.size();
}

ProofOfRelayView ProofOfRelayView::decode(BytesView b) {
  Reader r(b);
  ProofOfRelayView p;
  por_fields_from(r, p);
  p.taker_signature = r.blob_view();
  if (!r.done()) throw DecodeError("trailing bytes after PoR");
  return p;
}

std::size_t ProofOfRelay::wire_size() const {
  // h + giver + taker + at + flag [+ delegation extension] + sig prefix + sig.
  return 32 + 4 + 4 + 8 + 1 + (delegation ? 4 + 8 + 8 + 8 : 0) + 4 + taker_signature.size();
}

void ProofOfMisbehavior::encode_into(SpanWriter& w) const {
  // Evidence artefacts are written in place as length-prefixed sub-encodings
  // (no intermediate buffers); the prefix is the artefact's own wire_size().
  const auto nested = [&w](const auto& evidence) {
    w.u32(static_cast<std::uint32_t>(evidence.wire_size()));
    evidence.encode_into(w);
  };
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(culprit.value());
  w.u32(accuser.value());
  w.i64(at.micros());
  w.u8(evidence_accepted.has_value() ? 1 : 0);
  if (evidence_accepted) nested(*evidence_accepted);
  w.u8(evidence_forwarded.has_value() ? 1 : 0);
  if (evidence_forwarded) nested(*evidence_forwarded);
  w.u8(evidence_declaration.has_value() ? 1 : 0);
  if (evidence_declaration) nested(*evidence_declaration);
}

Bytes ProofOfMisbehavior::encode() const { return encode_exact(*this); }

ProofOfMisbehavior ProofOfMisbehavior::decode(BytesView b) {
  Reader r(b);
  ProofOfMisbehavior p;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(Kind::ChainCheat)) throw DecodeError("bad PoM kind");
  p.kind = static_cast<Kind>(kind);
  p.culprit = NodeId(r.u32());
  p.accuser = NodeId(r.u32());
  p.at = TimePoint(r.i64());
  const auto read_flag = [&r] {
    const std::uint8_t f = r.u8();
    if (f > 1) throw DecodeError("bad PoM evidence flag");
    return f == 1;
  };
  // Each evidence blob is decoded in place through a bounded view; the strict
  // BytesView decode rejects evidence blobs with trailing junk, so an
  // accepted PoM's blob is exactly the artefact's canonical encoding.
  if (read_flag()) p.evidence_accepted = ProofOfRelay::decode(r.blob_view());
  if (read_flag()) p.evidence_forwarded = ProofOfRelay::decode(r.blob_view());
  if (read_flag()) p.evidence_declaration = QualityDeclaration::decode(r.blob_view());
  if (!r.done()) throw DecodeError("trailing bytes after PoM");

  // A PoM is gossiped network-wide, so the decoder enforces that exactly the
  // evidence verify_pom() needs for the claimed kind is present — anything
  // else is a malformed accusation, rejected before signature checks run.
  const bool acc = p.evidence_accepted.has_value();
  const bool fwd = p.evidence_forwarded.has_value();
  const bool decl = p.evidence_declaration.has_value();
  const bool shape_ok = (p.kind == Kind::RelayFailure && acc && !fwd && !decl) ||
                        (p.kind == Kind::QualityLie && !acc && !fwd && decl) ||
                        (p.kind == Kind::ChainCheat && acc && fwd && !decl);
  if (!shape_ok) throw DecodeError("PoM evidence does not match kind");
  return p;
}

std::size_t ProofOfMisbehavior::wire_size() const {
  // kind + culprit + accuser + at + three presence flags, plus one
  // length-prefixed blob per attached evidence artefact.
  std::size_t size = 1 + 4 + 4 + 8 + 1 + 1 + 1;
  if (evidence_accepted) size += 4 + evidence_accepted->wire_size();
  if (evidence_forwarded) size += 4 + evidence_forwarded->wire_size();
  if (evidence_declaration) size += 4 + evidence_declaration->wire_size();
  return size;
}

bool verify_pom(const crypto::Suite& suite, const Roster& roster,
                const ProofOfMisbehavior& pom) {
  // Signature checks run only after every structural check of the claimed
  // kind has passed, one suite.verify per evidence artefact, in order.
  switch (pom.kind) {
    case ProofOfMisbehavior::Kind::RelayFailure: {
      // The culprit signed a PoR accepting the message; the accuser (its
      // giver) attests the storage test failed.
      if (!pom.evidence_accepted.has_value() ||
          pom.evidence_accepted->taker != pom.culprit ||
          pom.evidence_accepted->giver != pom.accuser) {
        return false;
      }
      const ProofOfRelay& por = *pom.evidence_accepted;
      const auto* cert = roster.find(por.taker);
      return cert != nullptr &&
             suite.verify(cert->public_key, por.signed_payload(), por.taker_signature);
    }

    case ProofOfMisbehavior::Kind::QualityLie: {
      // Signed declaration by the culprit; the destination attests the
      // contradiction with its own symmetric records.
      if (!pom.evidence_declaration.has_value() ||
          pom.evidence_declaration->declarer != pom.culprit) {
        return false;
      }
      const QualityDeclaration& decl = *pom.evidence_declaration;
      const auto* cert = roster.find(pom.culprit);
      return cert != nullptr &&
             suite.verify(cert->public_key, decl.signed_payload(), decl.signature);
    }

    case ProofOfMisbehavior::Kind::ChainCheat: {
      // Self-contained: the culprit accepted at quality f_AD
      // (evidence_accepted, signed by the culprit) but attached a different
      // f1_m when forwarding (evidence_forwarded, signed by the next relay).
      if (!pom.evidence_accepted.has_value() || !pom.evidence_forwarded.has_value()) {
        return false;
      }
      const ProofOfRelay& in = *pom.evidence_accepted;
      const ProofOfRelay& out = *pom.evidence_forwarded;
      // The establishing PoR is either the one the culprit signed when it
      // accepted the message, or an earlier outgoing PoR of the culprit.
      if (in.taker != pom.culprit && in.giver != pom.culprit) return false;
      if (out.giver != pom.culprit) return false;
      if (in.h != out.h) return false;
      if (!in.delegation || !out.delegation) return false;
      // The cheat: quality attached on forward differs from quality accepted.
      if (std::abs(out.msg_quality - in.taker_quality) <= 1e-9) return false;
      const auto* in_cert = roster.find(in.taker);
      const auto* out_cert = roster.find(out.taker);
      return in_cert != nullptr && out_cert != nullptr &&
             suite.verify(in_cert->public_key, in.signed_payload(), in.taker_signature) &&
             suite.verify(out_cert->public_key, out.signed_payload(), out.taker_signature);
    }
  }
  return false;
}

}  // namespace g2g::proto
